package main

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"time"

	"hcrowd/internal/aggregate"
	"hcrowd/internal/belief"
	"hcrowd/internal/crowd"
	"hcrowd/internal/dataset"
	"hcrowd/internal/mathx"
	"hcrowd/internal/pipeline"
	"hcrowd/internal/rngutil"
	"hcrowd/internal/taskselect"
)

// The wide workload: Table III's selection step on one 16-fact task.
// Each round times Approx (Greedy, k=3) and OPT (Exact, k=1) on the
// current belief, then applies one simulated answer set to Approx's
// picks so the next round sees a new belief. After wideRounds rounds the
// belief resets and the next cycle draws answers from the next of
// wideCycles seeds, so the workload stays stationary and every cycle's
// picks can be checked against its first occurrence.
const (
	wideFacts  = 16
	wideK      = 3
	wideRounds = 8
	wideCycles = 8
)

// wideCrowd is Table III's crowd: six preliminary workers and one
// expert, split at θ = 0.9.
var wideCrowd = crowd.HeterogeneousConfig{
	NumPrelim: 6, PrelimLo: 0.65, PrelimHi: 0.85,
	NumExpert: 1, ExpertLo: 0.93, ExpertHi: 0.97,
}

type wideSetup struct {
	ds   *dataset.Dataset
	init *belief.Dist
	ce   crowd.Crowd
}

func makeWide(seed int64) (*wideSetup, error) {
	ds, err := dataset.WideTask(rngutil.New(derive(seed, "wide/ds", 0)), wideFacts, wideCrowd, 0.9, 0.5)
	if err != nil {
		return nil, err
	}
	beliefs, err := pipeline.InitBeliefs(ds, aggregate.MV{}, false)
	if err != nil {
		return nil, err
	}
	ce, _ := ds.Split()
	return &wideSetup{ds: ds, init: beliefs[0], ce: ce}, nil
}

// wideLoop runs cycles of rounds for window seconds (and at least one
// pass over every answer seed), timing the two selectors. With tr set
// it records spans and runs the per-round kernel probes.
type wideLoop struct {
	w       *wideSetup
	r       *report
	tr      *Tracer
	approx  samples
	opt     samples
	evals   [2]int64 // approx, opt
	rounds  int
	start   time.Time
	ends    []time.Duration // each round's end, from start
	cycleDg map[int]string  // answer-seed index → picks digest of its first cycle
	acc     map[int]float64 // answer-seed index → final MAP accuracy
}

func (l *wideLoop) run(ctx context.Context, seed int64, window float64) error {
	l.start = time.Now()
	for c := 0; c < wideCycles || time.Since(l.start).Seconds() < window; c++ {
		if err := l.cycle(ctx, seed, c%wideCycles, uint64(c+1)); err != nil {
			return err
		}
	}
	return nil
}

func (l *wideLoop) cycle(ctx context.Context, seed int64, a int, id uint64) error {
	w := l.w
	d := w.init.Clone()
	rng := rngutil.New(derive(seed, "wide/answers", a))
	truth := w.ds.TruthFn()
	problem := taskselect.Problem{Beliefs: []*belief.Dist{d}, Experts: w.ce}
	var dg digest
	for i := 0; i < wideRounds; i++ {
		round := l.tr.Begin(id, -1, "wide.round")
		sp := l.tr.Begin(id, round, "taskselect.select.approx")
		e0 := taskselect.EvalCount()
		t := time.Now()
		apx, err := taskselect.Greedy{}.Select(ctx, problem, wideK)
		l.approx.add(time.Since(t))
		e1 := taskselect.EvalCount()
		l.tr.End(sp)
		if l.r.ops.noteErr(err) {
			return fmt.Errorf("approx select: %w", err)
		}
		sp = l.tr.Begin(id, round, "taskselect.select.opt")
		t = time.Now()
		opt, err := taskselect.Exact{}.Select(ctx, problem, 1)
		l.opt.add(time.Since(t))
		e2 := taskselect.EvalCount()
		l.tr.End(sp)
		if l.r.ops.noteErr(err) {
			return fmt.Errorf("opt select: %w", err)
		}
		l.evals[0] += e1 - e0
		l.evals[1] += e2 - e1
		l.rounds++
		// Greedy's first step is the k=1 optimum, so OPT's pick must be
		// among Approx's.
		if len(opt) != 1 || !slices.Contains(apx, opt[0]) {
			l.r.gate("wide: OPT pick %v not among Approx picks %v (answer seed %d, round %d)", opt, apx, a, i+1)
		}
		locals := make([]int, len(apx))
		for j, c := range apx {
			locals[j] = c.Fact
			dg.ints(c.Task, c.Fact)
		}
		dg.ints(opt[0].Fact)
		slices.Sort(locals)
		if l.tr != nil {
			l.probe(id, round, d, w.ce, locals)
		}
		globals := make([]int, len(locals))
		for j, lf := range locals {
			globals[j] = w.ds.Tasks[0][lf]
		}
		fam := relabel(crowd.SimulateAnswerFamily(rng, w.ce, globals, truth), globals, locals)
		sp = l.tr.Begin(id, round, "belief.update")
		err = d.Update(fam)
		l.tr.End(sp)
		if err != nil {
			return err
		}
		l.tr.End(round)
		l.ends = append(l.ends, time.Since(l.start))
	}
	got := dg.String()
	if want, ok := l.cycleDg[a]; !ok {
		l.cycleDg[a] = got
		acc, err := d.Accuracy(w.ds.TaskTruth(0))
		if err != nil {
			return err
		}
		l.acc[a] = acc
	} else if got != want {
		l.r.gate("wide: answer seed %d picks digest %s, first cycle %s", a, got, want)
	}
	return nil
}

// probe times the kernels the selectors spend their time in on the
// round's belief: one EntropySum over the joint and one CondEntropy of
// Approx's picks.
func (l *wideLoop) probe(id uint64, parent int32, d *belief.Dist, ce crowd.Crowd, picks []int) {
	probs := d.Probs()
	sp := l.tr.Begin(id, parent, "mathx.entropysum")
	h := mathx.EntropySum(probs)
	l.tr.End(sp)
	sp = l.tr.Begin(id, parent, "taskselect.condentropy")
	_, err := taskselect.CondEntropy(d, ce, picks)
	l.tr.End(sp)
	if err != nil || h == 0 {
		l.r.gate("wide probe: entropy %v, condentropy error %v", h, err)
	}
}

func runWide(ctx context.Context, e *env) (*report, error) {
	r := newReport(e)
	var setups samples
	var w *wideSetup
	for i := 0; i < setupReps; i++ {
		t := time.Now()
		var err error
		if w, err = makeWide(e.seed); err != nil {
			return nil, err
		}
		setups.add(time.Since(t))
	}
	r.e2e["setup_s"] = setups.pct(50) / 1e3

	window := e.seconds
	if e.trace {
		window /= 2
	}
	l := &wideLoop{w: w, r: r, cycleDg: map[int]string{}, acc: map[int]float64{}}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	if err := l.run(ctx, e.seed, window); err != nil {
		r.gate("wide: %v", err)
		return r, nil
	}
	runtime.ReadMemStats(&ms1)

	var dg digest
	var acc float64
	for a := 0; a < wideCycles; a++ {
		dg.h = append(dg.h, l.cycleDg[a]...)
		acc += l.acc[a]
	}
	checkPin(r, "wide", e.seed, dg.String())
	r.e2e["primary_ms"] = l.approx.pct(floorPct)
	r.e2e["primary_ms_tail"] = l.approx.tail(r, "approx selections", 90)
	r.e2e["secondary_ms"] = l.opt.pct(floorPct)
	r.e2e["secondary_ms_tail"] = l.opt.tail(r, "opt selections", 90)
	rates := blockRates(l.ends, 1)
	r.e2e["throughput_per_s"] = rates.pct(100 - floorPct)
	r.e2e["label_accuracy"] = acc / wideCycles
	r.e2e["peak_rss_mb"] = selfPeakRSSMB()
	r.extraLog = append(r.extraLog, l.approx.summary("approx_ms"), l.opt.summary("opt_ms"), rates.rateSummary("rounds_per_s"),
		fmt.Sprintf("pick digest %s over %d answer seeds", dg.String(), wideCycles))

	if e.trace {
		r.layer["proc.alloc_kb_per_select"] = float64(ms1.TotalAlloc-ms0.TotalAlloc) / 1024 / float64(2*l.rounds)
		tl := &wideLoop{w: w, r: r, tr: newTracer(), cycleDg: l.cycleDg, acc: map[int]float64{}}
		r.spans = tl.tr
		if err := tl.run(ctx, e.seed, window); err != nil {
			r.gate("wide traced: %v", err)
			return r, nil
		}
		agg := Aggregate(tl.tr.Spans())
		n := float64(tl.rounds)
		r.layer["taskselect.evals_per_select.approx"] = float64(tl.evals[0]) / n
		r.layer["taskselect.evals_per_select.opt"] = float64(tl.evals[1]) / n
		r.layer["mathx.bytes_per_select"] = float64(tl.evals[0]) / n * float64(len(w.init.Probs())) * 8
		r.layer["mathx.entropysum_ns_per_elem"] = agg["mathx.entropysum"].MeanSelfUS() * 1e3 / float64(len(w.init.Probs()))
		r.layer["taskselect.condentropy_us"] = agg["taskselect.condentropy"].MeanSelfUS()
		r.layer["belief.update_us"] = agg["belief.update"].MeanSelfUS()
		r.layer["trace.overhead_pct"] = (tl.approx.pct(floorPct)/l.approx.pct(floorPct) - 1) * 100
	}
	return r, nil
}
