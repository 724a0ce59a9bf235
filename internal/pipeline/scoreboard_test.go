package pipeline

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"testing"

	"hcrowd/internal/belief"
	"hcrowd/internal/crowd"
	"hcrowd/internal/dataset"
	"hcrowd/internal/taskselect"
)

// totalQuality sums Q(F_t) over all tasks by a full sweep — the oracle
// the engine's incremental scoreboard must match bit for bit.
func totalQuality(beliefs []*belief.Dist) float64 {
	var q float64
	for _, d := range beliefs {
		q += d.Quality()
	}
	return q
}

// totalAccuracy is the full-sweep oracle for the fraction of all facts
// whose MAP label matches the ground truth.
func totalAccuracy(ds *dataset.Dataset, beliefs []*belief.Dist) (float64, error) {
	correct, total := 0, 0
	for t, d := range beliefs {
		labels := d.Labels()
		truth := ds.TaskTruth(t)
		if len(labels) != len(truth) {
			return 0, fmt.Errorf("pipeline: task %d labels/truth mismatch", t)
		}
		for j := range labels {
			total++
			if labels[j] == truth[j] {
				correct++
			}
		}
	}
	if total == 0 {
		return 0, errors.New("pipeline: no facts")
	}
	return float64(correct) / float64(total), nil
}

// frozenScan counts the (task, fact) pairs a stop state's masks hold
// frozen — the oracle for the running stopState.nFrozen.
func frozenScan(frozen [][]bool) int {
	n := 0
	for _, row := range frozen {
		for _, f := range row {
			if f {
				n++
			}
		}
	}
	return n
}

// scoredRun is one engine run plus everything the oracle needs: the
// beliefs the run started from and the cloned beliefs of every round's
// checkpoint.
type scoredRun struct {
	ds     *dataset.Dataset
	init   []*belief.Dist
	res    *Result
	rounds [][]*belief.Dist
	rec    *MetricsRecorder
}

// instrument attaches the checkpoint collector and metrics sink.
func (s *scoredRun) instrument(cfg *Config) {
	s.rec = &MetricsRecorder{}
	cfg.Metrics = s.rec
	cfg.OnCheckpoint = func(ck *Checkpoint) { s.rounds = append(s.rounds, ck.Beliefs) }
}

func cloneBeliefs(bs []*belief.Dist) []*belief.Dist {
	out := make([]*belief.Dist, len(bs))
	for i, b := range bs {
		out[i] = b.Clone()
	}
	return out
}

// unitCostModel prices the first expert at 2 and every other at 1.
func unitCostModel(ds *dataset.Dataset) func(w crowd.Worker) float64 {
	pricey := ""
	if ce, _ := ds.Split(); len(ce) > 0 {
		pricey = ce[0].ID
	}
	return func(w crowd.Worker) float64 {
		if w.ID == pricey {
			return 2
		}
		return 1
	}
}

// TestScoreboardMatchesSweepDeterministicGivenSeed pins the engine's
// incremental round scoring to the full sweep it replaced: every
// recorded quality and accuracy — initial, per round (RoundStats and
// RoundMetrics) and final — must equal the oracle bit for bit, across
// both loop flavors, a streaming run admitting tasks at a round boundary
// and on the idle path, RunTiers, and a warm Resume. The name keeps it
// inside the -count=2 determinism suite.
func TestScoreboardMatchesSweepDeterministicGivenSeed(t *testing.T) {
	ctx := context.Background()
	variants := []struct {
		name string
		run  func(t *testing.T) *scoredRun
	}{
		{"uniform", func(t *testing.T) *scoredRun {
			s := &scoredRun{ds: smallDataset(t, 4)}
			cfg := fig2StyleConfig(t, s.ds, 40)
			cfg.Stop = &StopRule{C: 2, Eps: 0.1}
			s.init = mustInit(t, s.ds, cfg)
			s.instrument(&cfg)
			s.res = mustRun(t)(Run(ctx, s.ds, cfg))
			return s
		}},
		{"cost-aware", func(t *testing.T) *scoredRun {
			s := &scoredRun{ds: smallDataset(t, 4)}
			cfg := fig2StyleConfig(t, s.ds, 40)
			cfg.Budget = 30
			cfg.Cost = unitCostModel(s.ds)
			s.init = mustInit(t, s.ds, cfg)
			s.instrument(&cfg)
			s.res = mustRun(t)(RunCostAware(ctx, s.ds, cfg))
			return s
		}},
		{"streaming", func(t *testing.T) *scoredRun {
			s := &scoredRun{ds: smallDataset(t, 11)}
			ce, _ := s.ds.Split()
			perPick := float64(len(ce))
			cfg := fig2StyleConfig(t, s.ds, 50)
			cfg.K = 1
			cfg.Budget = 2 * perPick
			cfg.BudgetWindow = perPick
			frags := streamFragments(t, s.ds, 123, 3)
			// Batch 1 lands at a round boundary; the budget then runs dry
			// and batch 4 arrives through the idle path's blocking poll.
			cfg.Admit = &ScheduleSource{Batches: [][]*dataset.Fragment{
				nil, {frags[0]}, nil, nil, {frags[1], frags[2]},
			}}
			s.init = mustInit(t, s.ds, cfg)
			s.instrument(&cfg)
			s.res = mustRun(t)(Run(ctx, s.ds, cfg))
			if want := 6; s.res.TasksAdmitted != want {
				t.Fatalf("TasksAdmitted = %d, want %d", s.res.TasksAdmitted, want)
			}
			return s
		}},
		{"tiers", func(t *testing.T) *scoredRun {
			s := &scoredRun{ds: smallDataset(t, 4)}
			cfg := fig2StyleConfig(t, s.ds, 40)
			tiers, _, err := SplitTiers(s.ds.Crowd, s.ds.Theta, 2, 40)
			if err != nil {
				t.Fatal(err)
			}
			s.init = mustInit(t, s.ds, cfg)
			s.instrument(&cfg)
			s.res = mustRun(t)(RunTiers(ctx, s.ds, cfg, tiers))
			return s
		}},
		{"warm-resume", func(t *testing.T) *scoredRun {
			s := &scoredRun{ds: smallDataset(t, 4)}
			cfg := fig2StyleConfig(t, s.ds, 40)
			cfg.Stop = &StopRule{C: 2, Eps: 0.1}
			cfg1 := cfg
			cfg1.Budget = 24
			part1 := mustRun(t)(Run(ctx, s.ds, cfg1))
			var buf bytes.Buffer
			if err := NewCheckpoint(part1).Write(&buf); err != nil {
				t.Fatal(err)
			}
			ck, err := ReadCheckpoint(&buf)
			if err != nil {
				t.Fatal(err)
			}
			if ck.Selection == nil {
				t.Fatal("checkpoint carries no selection cache")
			}
			s.init = cloneBeliefs(ck.Beliefs)
			s.instrument(&cfg)
			s.res = mustRun(t)(Resume(ctx, s.ds, cfg, ck))
			return s
		}},
	}
	for _, v := range variants {
		t.Run(v.name, func(t *testing.T) {
			s := v.run(t)
			if len(s.res.Rounds) == 0 {
				t.Fatal("no rounds recorded")
			}
			if len(s.rounds) != len(s.res.Rounds) {
				t.Fatalf("%d checkpoints for %d rounds", len(s.rounds), len(s.res.Rounds))
			}
			metrics := s.rec.Rounds()
			if len(metrics) != len(s.res.Rounds) {
				t.Fatalf("%d metrics records for %d rounds", len(metrics), len(s.res.Rounds))
			}
			sameBits(t, "InitQuality", s.res.InitQuality, totalQuality(s.init))
			sameBits(t, "InitAccuracy", s.res.InitAccuracy, mustAcc(t, s.ds, s.init))
			for i, bs := range s.rounds {
				q := totalQuality(bs)
				sameBits(t, fmt.Sprintf("Rounds[%d].Quality", i), s.res.Rounds[i].Quality, q)
				sameBits(t, fmt.Sprintf("RoundMetrics[%d].Quality", i), metrics[i].Quality, q)
				sameBits(t, fmt.Sprintf("Rounds[%d].Accuracy", i), s.res.Rounds[i].Accuracy, mustAcc(t, s.ds, bs))
			}
			sameBits(t, "Quality", s.res.Quality, totalQuality(s.res.Beliefs))
			sameBits(t, "Accuracy", s.res.Accuracy, mustAcc(t, s.ds, s.res.Beliefs))
		})
	}
}

// TestStopStateFrozenCountMatchesScan checks the running frozen counter
// against a scan of the live masks after every round: the selector
// receives the engine's masks as Problem.Frozen when it plans the next
// round, and the round's metrics record carries the counter. A resume
// rebuilds the masks from the checkpointed votes, so its counter is
// checked against a scan too.
func TestStopStateFrozenCountMatchesScan(t *testing.T) {
	ctx := context.Background()
	ds := smallDataset(t, 4)
	cfg := fig2StyleConfig(t, ds, 40)
	cfg.Budget = 120
	cfg.Stop = &StopRule{C: 1, Eps: 0.1}
	sel := &frozenProbe{}
	cfg.Selector = sel
	rec := &MetricsRecorder{}
	cfg.Metrics = rec
	var cks []*Checkpoint
	cfg.OnCheckpoint = func(ck *Checkpoint) { cks = append(cks, ck) }
	res := mustRun(t)(Run(ctx, ds, cfg))
	rounds := rec.Rounds()
	if len(rounds) != len(res.Rounds) || len(rounds) < 2 {
		t.Fatalf("%d metrics records for %d rounds", len(rounds), len(res.Rounds))
	}
	// scans[r] is the scan before round r+1 plans, i.e. after round r.
	if len(sel.scans) < len(rounds) {
		t.Fatalf("selector saw %d rounds, want at least %d", len(sel.scans), len(rounds))
	}
	for r := 1; r < len(rounds); r++ {
		if got, want := rounds[r-1].FrozenFacts, sel.scans[r]; got != want {
			t.Errorf("round %d: FrozenFacts = %d, scan = %d", r, got, want)
		}
	}
	if last := rounds[len(rounds)-1].FrozenFacts; last == 0 {
		t.Fatal("stop rule froze nothing; the check is vacuous")
	}
	for i, ck := range cks {
		st, err := newStopState(ds, cfg.Stop, ck.StopVotes)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := st.nFrozen, frozenScan(st.frozen); got != want {
			t.Errorf("checkpoint %d rebuild: counter %d, scan %d", i, got, want)
		}
		if got, want := st.nFrozen, rounds[i].FrozenFacts; got != want {
			t.Errorf("checkpoint %d rebuild: counter %d, live round %d", i, got, want)
		}
	}
}

// frozenProbe is the greedy selector that scans Problem.Frozen on every
// call.
type frozenProbe struct{ scans []int }

func (p *frozenProbe) Name() string { return "frozen-probe" }

func (p *frozenProbe) Select(ctx context.Context, pr taskselect.Problem, k int) ([]taskselect.Candidate, error) {
	p.scans = append(p.scans, frozenScan(pr.Frozen))
	return taskselect.Greedy{}.Select(ctx, pr, k)
}

func mustInit(t *testing.T, ds *dataset.Dataset, cfg Config) []*belief.Dist {
	t.Helper()
	bs, err := initFor(ds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return bs
}

func mustRun(t *testing.T) func(*Result, error) *Result {
	return func(res *Result, err error) *Result {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
}

func mustAcc(t *testing.T, ds *dataset.Dataset, bs []*belief.Dist) float64 {
	t.Helper()
	acc, err := totalAccuracy(ds, bs)
	if err != nil {
		t.Fatal(err)
	}
	return acc
}

func sameBits(t *testing.T, what string, got, want float64) {
	t.Helper()
	if math.Float64bits(got) != math.Float64bits(want) {
		t.Errorf("%s = %v, full sweep %v", what, got, want)
	}
}
