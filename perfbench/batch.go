package main

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"sort"
	"time"

	"hcrowd/internal/aggregate"
	"hcrowd/internal/belief"
	"hcrowd/internal/crowd"
	"hcrowd/internal/dataset"
	"hcrowd/internal/pipeline"
	"hcrowd/internal/rngutil"
	"hcrowd/internal/taskselect"
)

// The batch workload: offline labeling at paper scale, alternating the
// uniform loop (pipeline.Run) and the cost-aware loop
// (pipeline.RunCostAware) over a fixed list of seeded datasets.
const (
	batchDatasets = 8
	batchBudget   = 1000
	batchK        = 3
	// setupReps is how many times a run repeats its set-up; setup_s is
	// the median.
	setupReps = 25
)

// costAwarePrice prices one answer by the expert's accuracy, as the
// cost ablation does: pricier experts are more accurate.
func costAwarePrice(w crowd.Worker) float64 { return 1 + 8*(w.Accuracy-0.9) }

// batchCase is one dataset of the list and its answer-source seed.
type batchCase struct {
	ds      *dataset.Dataset
	srcSeed int64
}

func makeBatchCases(seed int64) ([]batchCase, error) {
	cases := make([]batchCase, batchDatasets)
	for i := range cases {
		ds, err := dataset.SentiLike(rngutil.New(derive(seed, "batch/ds", i)), dataset.DefaultSentiConfig())
		if err != nil {
			return nil, err
		}
		cases[i] = batchCase{ds: ds, srcSeed: derive(seed, "batch/src", i)}
	}
	return cases, nil
}

var flavors = [2]string{"uniform", "costaware"}

// batchRun is one untraced labeling run.
func batchRun(ctx context.Context, c batchCase, costaware bool) (*pipeline.Result, error) {
	cfg := pipeline.Config{K: batchK, Budget: batchBudget, Init: aggregate.MV{},
		Source: pipeline.NewSimulated(c.srcSeed, c.ds)}
	if costaware {
		cfg.Cost = costAwarePrice
		return pipeline.RunCostAware(ctx, c.ds, cfg)
	}
	return pipeline.Run(ctx, c.ds, cfg)
}

func runBatch(ctx context.Context, e *env) (*report, error) {
	r := newReport(e)
	var setups samples
	var cases []batchCase
	for i := 0; i < setupReps; i++ {
		t := time.Now()
		var err error
		if cases, err = makeBatchCases(e.seed); err != nil {
			return nil, err
		}
		setups.add(time.Since(t))
	}
	r.e2e["setup_s"] = setups.pct(50) / 1e3

	window := e.seconds
	if e.trace {
		window /= 2
	}
	// The untraced loop: pair p is dataset p/2 under flavor p%2. Every
	// pair runs at least once, so every digest is checked.
	pairs := 2 * len(cases)
	first := make([]*pipeline.Result, pairs)
	var times [2]samples
	byDS := [2][]samples{make([]samples, len(cases)), make([]samples, len(cases))}
	var ends []time.Duration
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	start := time.Now()
	n := 0
	for ; n < pairs || time.Since(start).Seconds() < window; n++ {
		p := n % pairs
		t := time.Now()
		res, err := batchRun(ctx, cases[p/2], p%2 == 1)
		d := time.Since(t)
		ends = append(ends, time.Since(start))
		if r.ops.noteErr(err) {
			r.gate("batch run %d (%s on dataset %d): %v", n, flavors[p%2], p/2, err)
			return r, nil
		}
		times[p%2].add(d)
		byDS[p%2][p/2].add(d)
		if first[p] == nil {
			first[p] = res
		} else if !slices.Equal(first[p].Labels, res.Labels) {
			r.gate("batch: %s labels on dataset %d differ between repeats", flavors[p%2], p/2)
		}
	}
	runtime.ReadMemStats(&ms1)

	var dg digest
	var acc float64
	for p, res := range first {
		dg.bools(res.Labels)
		acc += res.Accuracy
		if len(res.Labels) != cases[p/2].ds.NumFacts() {
			r.gate("batch: pair %d labels cover %d of %d facts", p, len(res.Labels), cases[p/2].ds.NumFacts())
		}
	}
	checkPin(r, "batch", e.seed, dg.String())

	// The floor figures are means over the datasets, so that each of
	// the seed's datasets counts alike, not just the quickest.
	r.e2e["primary_ms"] = meanPct(byDS[0], floorPct)
	r.e2e["primary_ms_tail"] = times[0].tail(r, "uniform runs", 90)
	r.e2e["secondary_ms"] = meanPct(byDS[1], floorPct)
	r.e2e["secondary_ms_tail"] = times[1].tail(r, "cost-aware runs", 90)
	// Block k is dataset k mod len(cases) under both flavors.
	rates := blockRates(ends, 2)
	ratesByDS := make([]samples, len(cases))
	for k, v := range rates {
		ratesByDS[k%len(cases)] = append(ratesByDS[k%len(cases)], v)
	}
	r.e2e["throughput_per_s"] = meanPct(ratesByDS, 100-floorPct)
	r.e2e["label_accuracy"] = acc / float64(pairs)
	r.e2e["peak_rss_mb"] = selfPeakRSSMB()
	r.extraLog = append(r.extraLog,
		times[0].summary("uniform_run_ms"), times[1].summary("costaware_run_ms"), rates.rateSummary("runs_per_s"),
		fmt.Sprintf("label digest %s over %d (dataset, flavor) pairs", dg.String(), pairs))

	if e.trace {
		r.layer["proc.alloc_kb_per_run"] = float64(ms1.TotalAlloc-ms0.TotalAlloc) / 1024 / float64(n)
		r.layer["proc.gc_per_run"] = float64(ms1.NumGC-ms0.NumGC) / float64(n)
		if err := traceBatch(ctx, e, r, cases, first, window, (times[0].pct(floorPct)+times[1].pct(floorPct))/2); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// batchTrace accumulates the traced replay's selector counters.
type batchTrace struct {
	stats  [2]taskselect.SelectStats
	rounds [2]int
}

// traceBatch replays the batch runs through the public layer calls with
// spans around each, for window seconds, and checks every replay's picks
// and labels against the untraced run of the same pair.
func traceBatch(ctx context.Context, e *env, r *report, cases []batchCase, ref []*pipeline.Result, window, untracedMS float64) error {
	tr := newTracer()
	r.spans = tr
	var bt batchTrace
	var runs [2]samples
	start := time.Now()
	for n := 0; n < len(ref) || time.Since(start).Seconds() < window; n++ {
		p := n % len(ref)
		t := time.Now()
		picks, labels, err := replayBatch(ctx, tr, uint64(n+1), cases[p/2], p%2 == 1, &bt)
		runs[p%2].add(time.Since(t))
		if r.ops.noteErr(err) {
			r.gate("batch replay %d: %v", n, err)
			return nil
		}
		if len(picks) != len(ref[p].Rounds) {
			r.gate("batch replay of pair %d: %d rounds, untraced run had %d", p, len(picks), len(ref[p].Rounds))
			return nil
		}
		for i, rs := range ref[p].Rounds {
			if !slices.Equal(picks[i], rs.Picks) {
				r.gate("batch replay of pair %d: round %d picks %v, untraced %v", p, i+1, picks[i], rs.Picks)
				return nil
			}
		}
		if !slices.Equal(labels, ref[p].Labels) {
			r.gate("batch replay of pair %d: labels differ from the untraced run", p)
		}
	}
	agg := Aggregate(tr.Spans())
	for f, fl := range flavors {
		r.layer["taskselect.select_us."+fl] = agg["taskselect.select."+fl].MeanSelfUS()
		r.layer["pipeline.round_us."+fl] = meanTotalUS(agg["pipeline.round."+fl])
		if bt.rounds[f] > 0 {
			r.layer["taskselect.evals_per_round."+fl] = float64(bt.stats[f].Evals) / float64(bt.rounds[f])
		}
	}
	reused := bt.stats[0].Reused + bt.stats[1].Reused
	if all := reused + bt.stats[0].Rescans + bt.stats[1].Rescans; all > 0 {
		r.layer["taskselect.reuse_ratio"] = float64(reused) / float64(all)
	}
	r.layer["belief.update_us"] = agg["belief.update"].MeanSelfUS()
	r.layer["aggregate.init_ms"] = agg["aggregate.init"].MeanSelfUS() / 1e3
	r.layer["pipeline.answers_us"] = agg["pipeline.answers"].MeanSelfUS()
	// The round spans' self time: everything a round does besides
	// selecting, collecting answers and updating beliefs (grouping, cache
	// invalidation, the per-round quality and accuracy sweep).
	var self, count float64
	for _, fl := range flavors {
		if st := agg["pipeline.round."+fl]; st != nil {
			self += float64(st.Self)
			count += float64(st.Count)
		}
	}
	if count > 0 {
		r.layer["pipeline.self_us"] = self / count / 1e3
	}
	traced := (runs[0].pct(floorPct) + runs[1].pct(floorPct)) / 2
	r.layer["trace.overhead_pct"] = (traced/untracedMS - 1) * 100
	return nil
}

func meanTotalUS(s *SpanStat) float64 {
	if s == nil || s.Count == 0 {
		return 0
	}
	return float64(s.Total) / float64(s.Count) / 1e3
}

// bookkeepingSink keeps the replay's per-round quality and accuracy
// sweep from being optimized away.
var bookkeepingSink float64

// purchase is one answer collection of a replayed round.
type purchase struct {
	task   int
	locals []int
	panel  crowd.Crowd
}

// replayBatch runs one labeling run the way the pipeline engine does —
// initialize, then select, collect answers, update and invalidate per
// round — calling each layer's public entry point under a span. It
// returns the per-round picks and the final labels.
func replayBatch(ctx context.Context, tr *Tracer, id uint64, c batchCase, costaware bool, bt *batchTrace) ([][]taskselect.Candidate, []bool, error) {
	f := 0
	if costaware {
		f = 1
	}
	fl := flavors[f]
	ds := c.ds
	root := tr.Begin(id, -1, "pipeline.run."+fl)
	defer tr.End(root)
	ce, _ := ds.Split()
	sp := tr.Begin(id, root, "aggregate.init")
	beliefs, err := pipeline.InitBeliefs(ds, aggregate.MV{}, false)
	tr.End(sp)
	if err != nil {
		return nil, nil, err
	}
	src := pipeline.NewSimulated(c.srcSeed, ds)
	problem := taskselect.Problem{Beliefs: beliefs, Experts: ce}

	var sel *taskselect.SelectionState
	var asn *taskselect.AssignState
	var minCost, meanCost float64
	if costaware {
		asn = taskselect.NewAssignState(costAwarePrice, 0, 0)
		for i, w := range ce {
			c := costAwarePrice(w)
			if i == 0 || c < minCost {
				minCost = c
			}
			meanCost += c
		}
		meanCost /= float64(len(ce))
	} else {
		sel = taskselect.NewSelectionState(0)
	}
	price := func(w crowd.Worker) float64 {
		if costaware {
			return costAwarePrice(w)
		}
		return 1
	}

	var allPicks [][]taskselect.Candidate
	remaining := float64(batchBudget)
	for {
		if err := ctx.Err(); err != nil {
			return nil, nil, err
		}
		round := tr.Begin(id, root, "pipeline.round."+fl)
		var buys []purchase
		var picks []taskselect.Candidate
		span := func() func() {
			sp := tr.Begin(id, round, "taskselect.select."+fl)
			return func() { tr.End(sp) }
		}
		if costaware {
			buys, picks, err = planCostAware(ctx, asn, problem, remaining, minCost, meanCost, span)
		} else {
			buys, picks, err = planUniform(ctx, sel, problem, remaining, ce, span)
		}
		if err != nil {
			return nil, nil, err
		}
		if len(buys) == 0 {
			tr.End(round)
			break
		}
		var spent float64
		var touched []int
		for _, bu := range buys {
			globals := make([]int, len(bu.locals))
			for i, lf := range bu.locals {
				globals[i] = ds.Tasks[bu.task][lf]
			}
			sp := tr.Begin(id, round, "pipeline.answers")
			fam, err := src.Answers(bu.panel, globals)
			tr.End(sp)
			if err != nil {
				return nil, nil, err
			}
			for _, as := range fam {
				spent += float64(len(as.Facts)) * price(as.Worker)
			}
			local := relabel(fam, globals, bu.locals)
			sp = tr.Begin(id, round, "belief.update")
			err = beliefs[bu.task].Update(local)
			tr.End(sp)
			if err != nil {
				return nil, nil, err
			}
			if len(touched) == 0 || touched[len(touched)-1] != bu.task {
				touched = append(touched, bu.task)
			}
		}
		if costaware {
			asn.Invalidate(touched...)
		} else {
			sel.Invalidate(touched...)
		}
		if remaining -= spent; remaining < 0 {
			remaining = 0
		}
		allPicks = append(allPicks, picks)
		// The engine's per-round bookkeeping: total quality and MAP
		// accuracy over every task.
		var q float64
		correct := 0
		for t, d := range beliefs {
			q += d.Quality()
			truth := ds.TaskTruth(t)
			for j, l := range d.Labels() {
				if l == truth[j] {
					correct++
				}
			}
		}
		bookkeepingSink = q + float64(correct)
		tr.End(round)
	}
	if costaware {
		bt.stats[f] = addStats(bt.stats[f], asn.Stats())
	} else {
		bt.stats[f] = addStats(bt.stats[f], sel.Stats())
	}
	bt.rounds[f] += len(allPicks)
	return allPicks, beliefLabels(ds, beliefs), nil
}

func addStats(a, b taskselect.SelectStats) taskselect.SelectStats {
	return taskselect.SelectStats{Selects: a.Selects + b.Selects, Evals: a.Evals + b.Evals,
		Rescans: a.Rescans + b.Rescans, Reused: a.Reused + b.Reused}
}

// planUniform is Algorithm 1's purchase: up to K picks the remaining
// budget affords, each sent to every expert, grouped by task. span opens
// the span timing the selector call and returns its closer.
func planUniform(ctx context.Context, sel *taskselect.SelectionState, p taskselect.Problem, remaining float64, ce crowd.Crowd, span func() func()) ([]purchase, []taskselect.Candidate, error) {
	k := batchK
	if afford := int((remaining + 1e-9) / float64(len(ce))); afford < k {
		k = afford
	}
	if k < 1 {
		return nil, nil, nil
	}
	end := span()
	picks, err := sel.Select(ctx, p, k)
	end()
	if err != nil {
		return nil, nil, err
	}
	byTask := map[int][]int{}
	for _, c := range picks {
		byTask[c.Task] = append(byTask[c.Task], c.Fact)
	}
	tasks := make([]int, 0, len(byTask))
	for t := range byTask {
		tasks = append(tasks, t)
	}
	sort.Ints(tasks)
	buys := make([]purchase, 0, len(tasks))
	for _, t := range tasks {
		buys = append(buys, purchase{task: t, locals: byTask[t], panel: ce})
	}
	return buys, picks, nil
}

// planCostAware is the §III-D purchase: answer units bought by gain per
// cost up to the round's chunk, grouped per (task, worker).
func planCostAware(ctx context.Context, asn *taskselect.AssignState, p taskselect.Problem, remaining, minCost, meanCost float64, span func() func()) ([]purchase, []taskselect.Candidate, error) {
	if remaining < minCost {
		return nil, nil, nil
	}
	chunk := float64(batchK) * meanCost
	if chunk > remaining {
		chunk = remaining
	}
	end := span()
	units, err := asn.SelectAssign(ctx, p, chunk)
	end()
	if err != nil || len(units) == 0 {
		return nil, nil, err
	}
	type key struct {
		task   int
		worker string
	}
	groups := map[key][]int{}
	workers := map[key]crowd.Worker{}
	picks := make([]taskselect.Candidate, 0, len(units))
	for _, u := range units {
		k := key{u.Task, u.Worker.ID}
		groups[k] = append(groups[k], u.Fact)
		workers[k] = u.Worker
		picks = append(picks, taskselect.Candidate{Task: u.Task, Fact: u.Fact})
	}
	keys := make([]key, 0, len(groups))
	for k := range groups {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].task != keys[j].task {
			return keys[i].task < keys[j].task
		}
		return keys[i].worker < keys[j].worker
	})
	buys := make([]purchase, 0, len(keys))
	for _, k := range keys {
		buys = append(buys, purchase{task: k.task, locals: groups[k], panel: crowd.Crowd{workers[k]}})
	}
	return buys, picks, nil
}

// relabel maps an answer family from global to task-local fact indices.
func relabel(fam crowd.AnswerFamily, globals, locals []int) crowd.AnswerFamily {
	g2l := make(map[int]int, len(globals))
	for i, g := range globals {
		g2l[g] = locals[i]
	}
	out := make(crowd.AnswerFamily, len(fam))
	for i, as := range fam {
		facts := make([]int, len(as.Facts))
		for j, g := range as.Facts {
			facts[j] = g2l[g]
		}
		out[i] = crowd.AnswerSet{Worker: as.Worker, Facts: facts, Values: slices.Clone(as.Values)}
	}
	return out
}

// beliefLabels are the MAP labels of beliefs in global fact order.
func beliefLabels(ds *dataset.Dataset, beliefs []*belief.Dist) []bool {
	out := make([]bool, ds.NumFacts())
	for t, d := range beliefs {
		for j, l := range d.Labels() {
			out[ds.Tasks[t][j]] = l
		}
	}
	return out
}
