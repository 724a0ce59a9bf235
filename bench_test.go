// Benchmarks regenerating every table and figure of the paper's
// evaluation (quick-mode workloads; `go run ./cmd/hcbench` produces the
// full-size numbers) plus the ablation benches DESIGN.md calls out.
package hcrowd_test

import (
	"context"
	"fmt"
	"io"
	"slices"
	"testing"

	"hcrowd"
	"hcrowd/internal/aggregate"
	"hcrowd/internal/crowd"
	"hcrowd/internal/experiments"
	"hcrowd/internal/taskselect"
)

func benchOpts() experiments.Options {
	return experiments.Options{Seed: 1, Quick: true}
}

// benchFigure runs one experiment driver end to end per iteration.
func benchFigure(b *testing.B, d experiments.Driver) {
	b.Helper()
	ctx := context.Background()
	for i := 0; i < b.N; i++ {
		fig, err := d(ctx, benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		if err := fig.Render(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig2Baselines regenerates Figure 2: HC vs the 8 aggregation
// baselines across the budget grid.
func BenchmarkFig2Baselines(b *testing.B) { benchFigure(b, experiments.Fig2) }

// BenchmarkFig3VaryK regenerates Figure 3: accuracy/quality for k sweeps.
func BenchmarkFig3VaryK(b *testing.B) { benchFigure(b, experiments.Fig3) }

// BenchmarkFig4VaryTheta regenerates Figure 4: the θ sweep.
func BenchmarkFig4VaryTheta(b *testing.B) { benchFigure(b, experiments.Fig4) }

// BenchmarkFig5Selection regenerates Figure 5: OPT vs Approx vs Random.
func BenchmarkFig5Selection(b *testing.B) { benchFigure(b, experiments.Fig5) }

// BenchmarkFig6Init regenerates Figure 6: the initialization sweep.
func BenchmarkFig6Init(b *testing.B) { benchFigure(b, experiments.Fig6) }

// BenchmarkFig7HCvsNoHC regenerates Figure 7: hierarchy vs flat checking.
func BenchmarkFig7HCvsNoHC(b *testing.B) { benchFigure(b, experiments.Fig7) }

// BenchmarkTable3Efficiency regenerates Table III: per-round selection
// time, OPT vs Approx with timeout.
func BenchmarkTable3Efficiency(b *testing.B) { benchFigure(b, experiments.Table3) }

// BenchmarkTable1Example measures the core belief machinery on the
// paper's Table I worked example: answer-family probability + Bayesian
// update.
func BenchmarkTable1Example(b *testing.B) {
	experts := hcrowd.Crowd{{ID: "e0", Accuracy: 0.9}, {ID: "e1", Accuracy: 0.95}}
	joint := []float64{0.09, 0.11, 0.10, 0.20, 0.08, 0.09, 0.15, 0.18}
	fam := hcrowd.AnswerFamily{
		{Worker: experts[0], Facts: []int{0, 2}, Values: []bool{true, false}},
		{Worker: experts[1], Facts: []int{0, 2}, Values: []bool{true, true}},
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d, err := hcrowd.BeliefFromJoint(joint)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := d.AnswerFamilyProb(fam); err != nil {
			b.Fatal(err)
		}
		if err := d.Update(fam); err != nil {
			b.Fatal(err)
		}
	}
}

// benchDataset builds the shared micro-bench dataset once.
func benchDataset(b *testing.B) *hcrowd.Dataset {
	b.Helper()
	cfg := hcrowd.DefaultSentiConfig()
	cfg.NumTasks = 50
	ds, err := hcrowd.GenerateSentiLike(7, cfg)
	if err != nil {
		b.Fatal(err)
	}
	return ds
}

// Ablation: the optimized conditional-entropy evaluator vs the textbook
// definition (identical results, different asymptotics — see DESIGN.md).
func benchCondEntropy(b *testing.B, naive bool) {
	d, err := hcrowd.BeliefFromJoint(randomJoint(64))
	if err != nil {
		b.Fatal(err)
	}
	experts := hcrowd.Crowd{{ID: "e0", Accuracy: 0.9}, {ID: "e1", Accuracy: 0.95}}
	facts := []int{0, 2, 4}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var h float64
		var err error
		if naive {
			h, err = taskselect.CondEntropyNaive(d, experts, facts)
		} else {
			h, err = taskselect.CondEntropy(d, experts, facts)
		}
		if err != nil || h < 0 {
			b.Fatal(h, err)
		}
	}
}

func BenchmarkCondEntropyFast(b *testing.B)  { benchCondEntropy(b, false) }
func BenchmarkCondEntropyNaive(b *testing.B) { benchCondEntropy(b, true) }

func randomJoint(n int) []float64 {
	rng := hcrowd.NewRand(11)
	p := make([]float64, n)
	for i := range p {
		p[i] = rng.Float64() + 1e-4
	}
	return p
}

// BenchmarkGreedySelect measures one full Algorithm 2 selection over the
// standard dataset.
func BenchmarkGreedySelect(b *testing.B) {
	ds := benchDataset(b)
	beliefs, err := hcrowd.InitBeliefs(ds, hcrowd.MajorityVote(), false)
	if err != nil {
		b.Fatal(err)
	}
	ce, _ := ds.Split()
	p := hcrowd.Problem{Beliefs: beliefs, Experts: ce}
	ctx := context.Background()
	sel := hcrowd.GreedySelector()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sel.Select(ctx, p, 3); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWideSelect is the Table III selector step on one 16-fact
// task: Approx (Greedy, k=3) and OPT (Exact, k=1) over a 2^16 belief,
// with Table III's crowd of six preliminary workers and one expert.
// evals/select counts the CondEntropy evaluations each selection runs.
func BenchmarkWideSelect(b *testing.B) {
	ds, err := hcrowd.GenerateWideTask(1, 16, hcrowd.HeterogeneousConfig{
		NumPrelim: 6, PrelimLo: 0.65, PrelimHi: 0.85,
		NumExpert: 1, ExpertLo: 0.93, ExpertHi: 0.97,
	}, 0.9, 0.5)
	if err != nil {
		b.Fatal(err)
	}
	beliefs, err := hcrowd.InitBeliefs(ds, hcrowd.MajorityVote(), false)
	if err != nil {
		b.Fatal(err)
	}
	ce, _ := ds.Split()
	p := hcrowd.Problem{Beliefs: beliefs, Experts: ce}
	ctx := context.Background()
	for _, c := range []struct {
		sel hcrowd.Selector
		k   int
	}{{taskselect.Greedy{}, 3}, {taskselect.Exact{}, 1}} {
		b.Run(c.sel.Name(), func(b *testing.B) {
			b.ReportAllocs()
			taskselect.ResetEvalCount()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := c.sel.Select(ctx, p, c.k); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(taskselect.EvalCount())/float64(b.N), "evals/select")
		})
	}
}

// BenchmarkAggregate measures every baseline on the standard matrix.
func BenchmarkAggregate(b *testing.B) {
	ds := benchDataset(b)
	for _, agg := range aggregate.Registry(3) {
		b.Run(agg.Name(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := agg.Aggregate(ds.Prelim); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkPipelineRound measures the full select+answer+update loop.
func BenchmarkPipelineRound(b *testing.B) {
	ds := benchDataset(b)
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, err := hcrowd.Run(ctx, ds, hcrowd.Config{
			K:      1,
			Budget: 10,
			Source: hcrowd.NewSimulatedSource(int64(i), ds),
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// Ablation: HC driven by accuracies estimated from a gold sample instead
// of the oracle-known rates (DESIGN.md "estimated vs true accuracies").
func BenchmarkAblationEstimatedAccuracy(b *testing.B) {
	ds := benchDataset(b)
	// Estimate accuracies from a simulated gold sample and substitute
	// them into a copy of the dataset's crowd.
	rng := hcrowd.NewRand(21)
	goldFacts := make([]int, 100)
	for i := range goldFacts {
		goldFacts[i] = i
	}
	var fam hcrowd.AnswerFamily
	for _, w := range ds.Crowd {
		var vals []bool
		for _, f := range goldFacts {
			v := ds.Truth[f]
			if rng.Float64() >= w.Accuracy {
				v = !v
			}
			vals = append(vals, v)
		}
		fam = append(fam, hcrowd.AnswerSet{Worker: w, Facts: goldFacts, Values: vals})
	}
	est := hcrowd.EstimateAccuracies(ds.Crowd, []hcrowd.AnswerFamily{fam}, ds.TruthFn())
	estDS := *ds
	estDS.Crowd = est
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := hcrowd.Run(ctx, &estDS, hcrowd.Config{
			K:      1,
			Budget: 20,
			Source: hcrowd.NewSimulatedSource(9, ds),
		})
		if err != nil {
			b.Fatal(err)
		}
		if res.Accuracy < 0.5 {
			b.Fatal("estimated-accuracy run collapsed")
		}
	}
}

// BenchmarkBeliefUpdate measures the Lemma 3 posterior update alone at
// several task widths.
func BenchmarkBeliefUpdate(b *testing.B) {
	for _, m := range []int{5, 10, 15} {
		b.Run(fmt.Sprintf("facts=%d", m), func(b *testing.B) {
			d, err := hcrowd.NewBelief(m)
			if err != nil {
				b.Fatal(err)
			}
			w := hcrowd.Worker{ID: "e", Accuracy: 0.93}
			fam := hcrowd.AnswerFamily{{Worker: w, Facts: []int{0, 1}, Values: []bool{true, false}}}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := d.Update(fam); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkGreedyParallel compares the serial and concurrent initial gain
// scans of Algorithm 2 on a many-task problem (the DESIGN.md parallelism
// ablation).
func BenchmarkGreedyParallel(b *testing.B) {
	ds := benchDataset(b)
	beliefs, err := hcrowd.InitBeliefs(ds, hcrowd.MajorityVote(), false)
	if err != nil {
		b.Fatal(err)
	}
	ce, _ := ds.Split()
	p := hcrowd.Problem{Beliefs: beliefs, Experts: ce}
	ctx := context.Background()
	for _, workers := range []int{1, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			sel := taskselect.Greedy{Workers: workers}
			for i := 0; i < b.N; i++ {
				if _, err := sel.Select(ctx, p, 3); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkGreedyIncremental compares the per-round cost of the checking
// loop's two selection engines on the fig2 workload: the full per-round
// rescan (Greedy) against the incremental SelectionState, driven exactly
// as the pipeline drives them — select, apply the answers to the picked
// tasks, invalidate, repeat. It reports CondEntropy evaluations per round
// (the hardware-independent cost unit) and verifies pick-for-pick
// equality between the engines while running.
func BenchmarkGreedyIncremental(b *testing.B) {
	ds := benchDataset(b)
	ce, _ := ds.Split()
	ctx := context.Background()
	const rounds, k = 20, 3

	runRounds := func(b *testing.B, sel hcrowd.Selector, record [][]hcrowd.Candidate) {
		b.Helper()
		beliefs, err := hcrowd.InitBeliefs(ds, hcrowd.MajorityVote(), false)
		if err != nil {
			b.Fatal(err)
		}
		src := hcrowd.NewSimulatedSource(5, ds)
		state, _ := sel.(*taskselect.SelectionState)
		p := hcrowd.Problem{Beliefs: beliefs, Experts: ce}
		for r := 0; r < rounds; r++ {
			picks, err := sel.Select(ctx, p, k)
			if err != nil {
				b.Fatal(err)
			}
			if record != nil {
				if record[r] == nil {
					record[r] = picks
				} else if !slices.Equal(picks, record[r]) {
					b.Fatalf("round %d: engines diverged: %v vs %v", r, picks, record[r])
				}
			}
			for _, c := range picks {
				fam, err := src.Answers(ce, []int{ds.Tasks[c.Task][c.Fact]})
				if err != nil {
					b.Fatal(err)
				}
				loc := []int{c.Fact} // re-index global -> local; Update only reads Facts
				for i := range fam {
					fam[i].Facts = loc
				}
				if err := beliefs[c.Task].Update(fam); err != nil {
					b.Fatal(err)
				}
				if state != nil {
					state.Invalidate(c.Task)
				}
			}
		}
	}

	picksByRound := make([][]hcrowd.Candidate, rounds)
	b.Run("full-rescan", func(b *testing.B) {
		taskselect.ResetEvalCount()
		for i := 0; i < b.N; i++ {
			runRounds(b, taskselect.Greedy{}, picksByRound)
		}
		b.ReportMetric(float64(taskselect.EvalCount())/float64(b.N*rounds), "evals/round")
	})
	b.Run("incremental", func(b *testing.B) {
		taskselect.ResetEvalCount()
		for i := 0; i < b.N; i++ {
			runRounds(b, taskselect.NewSelectionState(0), picksByRound)
		}
		b.ReportMetric(float64(taskselect.EvalCount())/float64(b.N*rounds), "evals/round")
	})
}

// BenchmarkCostGreedy measures the §III-D per-unit assignment selection.
func BenchmarkCostGreedy(b *testing.B) {
	ds := benchDataset(b)
	beliefs, err := hcrowd.InitBeliefs(ds, hcrowd.MajorityVote(), false)
	if err != nil {
		b.Fatal(err)
	}
	ce, _ := ds.Split()
	p := hcrowd.Problem{Beliefs: beliefs, Experts: ce}
	sel := taskselect.CostGreedy{}
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sel.SelectAssign(ctx, p, 4); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCostGreedyIncremental is BenchmarkGreedyIncremental for the
// cost-aware loop: the stateless gain-per-cost greedy (CostGreedy)
// against the incremental AssignState on the ablation-cost workload
// (pricier experts are more accurate), driven the way RunCostAware drives
// them — buy units, apply each purchased answer, invalidate, repeat. It
// reports CondEntropyAssign evaluations per round and verifies
// unit-for-unit pick equality between the engines while running.
func BenchmarkCostGreedyIncremental(b *testing.B) {
	ds := benchDataset(b)
	ce, _ := ds.Split()
	ctx := context.Background()
	truth := func(f int) bool { return ds.Truth[f] }
	ablation := func(w hcrowd.Worker) float64 { return 1 + 8*(w.Accuracy-0.9) }
	const rounds = 20
	const roundBudget = 4.0

	runRounds := func(b *testing.B, sel hcrowd.AssignSelector, record [][]hcrowd.TaskAssign) {
		b.Helper()
		beliefs, err := hcrowd.InitBeliefs(ds, hcrowd.MajorityVote(), false)
		if err != nil {
			b.Fatal(err)
		}
		rng := hcrowd.NewRand(5)
		state, _ := sel.(*hcrowd.AssignState)
		p := hcrowd.Problem{Beliefs: beliefs, Experts: ce}
		for r := 0; r < rounds; r++ {
			units, err := sel.SelectAssign(ctx, p, roundBudget)
			if err != nil {
				b.Fatal(err)
			}
			if record != nil {
				if record[r] == nil {
					record[r] = units
				} else if !slices.Equal(units, record[r]) {
					b.Fatalf("round %d: engines diverged: %v vs %v", r, units, record[r])
				}
			}
			for _, u := range units {
				fam := crowd.SimulateAnswerFamily(rng, hcrowd.Crowd{u.Worker}, []int{ds.Tasks[u.Task][u.Fact]}, truth)
				for i := range fam {
					fam[i].Facts = []int{u.Fact} // re-index global -> local
				}
				if err := beliefs[u.Task].Update(fam); err != nil {
					b.Fatal(err)
				}
				if state != nil {
					state.Invalidate(u.Task)
				}
			}
		}
	}

	unitsByRound := make([][]hcrowd.TaskAssign, rounds)
	b.Run("full-rescan", func(b *testing.B) {
		taskselect.ResetEvalCount()
		for i := 0; i < b.N; i++ {
			runRounds(b, taskselect.CostGreedy{Cost: ablation}, unitsByRound)
		}
		b.ReportMetric(float64(taskselect.EvalCount())/float64(b.N*rounds), "evals/round")
	})
	b.Run("incremental", func(b *testing.B) {
		taskselect.ResetEvalCount()
		for i := 0; i < b.N; i++ {
			runRounds(b, hcrowd.IncrementalAssignSelector(ablation, 0, 0), unitsByRound)
		}
		b.ReportMetric(float64(taskselect.EvalCount())/float64(b.N*rounds), "evals/round")
	})
}

// BenchmarkCatDS measures multi-class Dawid-Skene on a 4-class matrix.
func BenchmarkCatDS(b *testing.B) {
	cfg := hcrowd.DefaultMultiClassConfig()
	cfg.NumItems = 200
	ds, err := hcrowd.GenerateMultiClass(3, cfg)
	if err != nil {
		b.Fatal(err)
	}
	cat, err := hcrowd.CatFromOneHot(ds.Prelim, ds.Tasks)
	if err != nil {
		b.Fatal(err)
	}
	agg := hcrowd.CatDawidSkene()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := agg.AggregateCat(cat); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCondEntropyAssign measures the generalized per-assignment
// conditional entropy next to the uniform-panel evaluator.
func BenchmarkCondEntropyAssign(b *testing.B) {
	d, err := hcrowd.BeliefFromJoint(randomJoint(32))
	if err != nil {
		b.Fatal(err)
	}
	ce := hcrowd.Crowd{{ID: "e0", Accuracy: 0.9}, {ID: "e1", Accuracy: 0.95}}
	assigns := []taskselect.Assign{
		{Fact: 0, Worker: ce[0]}, {Fact: 2, Worker: ce[0]},
		{Fact: 0, Worker: ce[1]}, {Fact: 4, Worker: ce[1]},
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := taskselect.CondEntropyAssign(d, assigns); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngineBatch measures the engine round layer in the shape of
// the perfbench batch workload: one full labeling run per iteration on a
// 200-task × 5-fact SentiLike dataset, K = 3, budget 1000, MV
// initialization, under the uniform loop (Run) and the cost-aware loop
// (RunCostAware, experts priced by accuracy as in the cost ablation).
// ns/round is the run's wall time per engine round — selection, answer
// collection, belief updates and round scoring — and rounds/op the
// number of rounds a run takes.
func BenchmarkEngineBatch(b *testing.B) {
	ds, err := hcrowd.GenerateSentiLike(1, hcrowd.DefaultSentiConfig())
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	flavors := []struct {
		name string
		run  func(context.Context, *hcrowd.Dataset, hcrowd.Config) (*hcrowd.Result, error)
		cost func(hcrowd.Worker) float64
	}{
		{"uniform", hcrowd.Run, nil},
		{"costaware", hcrowd.RunCostAware, func(w hcrowd.Worker) float64 { return 1 + 8*(w.Accuracy-0.9) }},
	}
	for _, fl := range flavors {
		b.Run(fl.name, func(b *testing.B) {
			rounds := 0
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := fl.run(ctx, ds, hcrowd.Config{
					K:      3,
					Budget: 1000,
					Init:   hcrowd.MajorityVote(),
					Cost:   fl.cost,
					Source: hcrowd.NewSimulatedSource(2, ds),
				})
				if err != nil {
					b.Fatal(err)
				}
				rounds += len(res.Rounds)
			}
			b.StopTimer()
			if rounds == 0 {
				b.Fatal("no rounds ran")
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(rounds), "ns/round")
			b.ReportMetric(float64(rounds)/float64(b.N), "rounds/op")
		})
	}
}
