package taskselect

import (
	"context"
	"fmt"
	"testing"

	"hcrowd/internal/belief"
	"hcrowd/internal/crowd"
	"hcrowd/internal/rngutil"
)

// randomProblem builds a multi-task problem with varied widths.
func randomProblem(t *testing.T, seed int64, tasks int, ce crowd.Crowd) Problem {
	t.Helper()
	beliefs := make([]*belief.Dist, tasks)
	for i := range beliefs {
		m := 2 + int(seed+int64(i))%3 // widths 2..4
		beliefs[i] = randomDist(t, seed*100+int64(i), m)
	}
	return Problem{Beliefs: beliefs, Experts: ce}
}

// samePicks fails the test unless the two selectors returned identical
// candidate sets.
func samePicks(t *testing.T, label string, got, want []Candidate) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: incremental picked %v, greedy picked %v", label, got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: pick %d differs: incremental %v, greedy %v", label, i, got, want)
		}
	}
}

func TestSelectionStateMatchesGreedySingleShot(t *testing.T) {
	ctx := context.Background()
	for seed := int64(0); seed < 6; seed++ {
		for _, k := range []int{1, 2, 4, 7} {
			p := randomProblem(t, seed, 4, experts(0.8, 0.93))
			want, err := (greedyReference{}).Select(ctx, p, k)
			if err != nil {
				t.Fatal(err)
			}
			got, err := NewSelectionState(0).Select(ctx, p, k)
			if err != nil {
				t.Fatal(err)
			}
			samePicks(t, fmt.Sprintf("seed=%d k=%d", seed, k), got, want)
		}
	}
}

// TestSelectionStateMatchesGreedyAcrossRounds is the core equivalence
// property: driven like the pipeline drives it (select, update the picked
// tasks' beliefs, invalidate, repeat), the incremental engine must produce
// the same picks as a fresh full-scan Greedy every round.
func TestSelectionStateMatchesGreedyAcrossRounds(t *testing.T) {
	ctx := context.Background()
	cases := []struct {
		name    string
		ce      crowd.Crowd
		workers int
		frozen  bool
	}{
		{"symmetric-serial", experts(0.85, 0.95), 0, false},
		{"symmetric-parallel", experts(0.85, 0.95), 4, false},
		{"asymmetric", crowd.Crowd{{ID: "A", TPR: 0.9, TNR: 0.8}, {ID: "B", TPR: 0.85, TNR: 0.95}}, 2, false},
		{"with-freezing", experts(0.85, 0.95), 2, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := randomProblem(t, 3, 5, tc.ce)
			if tc.frozen {
				p.Frozen = make([][]bool, len(p.Beliefs))
				for i, d := range p.Beliefs {
					p.Frozen[i] = make([]bool, d.NumFacts())
				}
			}
			state := NewSelectionState(tc.workers)
			rng := rngutil.New(77)
			for round := 0; round < 8; round++ {
				want, err := (greedyReference{Workers: tc.workers}).Select(ctx, p, 3)
				if err != nil {
					t.Fatal(err)
				}
				got, err := state.Select(ctx, p, 3)
				if err != nil {
					t.Fatal(err)
				}
				samePicks(t, fmt.Sprintf("round %d", round), got, want)
				if len(got) == 0 {
					break
				}
				// Apply simulated expert answers to the picked tasks, as the
				// pipeline would, then invalidate exactly those tasks.
				byTask := make(map[int][]int)
				for _, c := range got {
					byTask[c.Task] = append(byTask[c.Task], c.Fact)
				}
				for task, facts := range byTask {
					truth := func(f int) bool { return (task+f)%2 == 0 }
					fam := crowd.SimulateAnswerFamily(rng, tc.ce, facts, truth)
					if err := p.Beliefs[task].Update(fam); err != nil {
						t.Fatal(err)
					}
					if tc.frozen && round >= 3 {
						// Freeze the first picked fact to exercise the
						// frozen-drift path alongside belief invalidation.
						p.Frozen[task][facts[0]] = true
					}
					state.Invalidate(task)
				}
			}
		})
	}
}

// TestSelectionStateSteadyStateEvals verifies the engine's reason to
// exist: after the first round, selection must cost far fewer
// conditional-entropy evaluations than the full rescan.
func TestSelectionStateSteadyStateEvals(t *testing.T) {
	ctx := context.Background()
	p := randomProblem(t, 5, 20, experts(0.85, 0.95))
	state := NewSelectionState(0)
	if _, err := state.Select(ctx, p, 1); err != nil {
		t.Fatal(err) // cold round pays the full scan
	}

	countRound := func(sel Selector) int64 {
		t.Helper()
		ResetEvalCount()
		picks, err := sel.Select(ctx, p, 1)
		if err != nil {
			t.Fatal(err)
		}
		if len(picks) != 1 {
			t.Fatalf("picked %v", picks)
		}
		return EvalCount()
	}
	full := countRound(greedyReference{})
	// Steady state with one invalidated task.
	state.Invalidate(0)
	incr := countRound(state)
	if incr*2 > full {
		t.Errorf("steady-state round cost %d evals, full rescan %d — want >=2x fewer", incr, full)
	}
}

// TestSelectionStateCrowdChangeResets drives the tier-switch scenario: a
// new expert crowd must invalidate every crowd-derived memo.
func TestSelectionStateCrowdChangeResets(t *testing.T) {
	ctx := context.Background()
	p := randomProblem(t, 9, 4, experts(0.8, 0.9))
	state := NewSelectionState(0)
	if _, err := state.Select(ctx, p, 2); err != nil {
		t.Fatal(err)
	}
	p.Experts = experts(0.97)
	want, err := (greedyReference{}).Select(ctx, p, 2)
	if err != nil {
		t.Fatal(err)
	}
	got, err := state.Select(ctx, p, 2)
	if err != nil {
		t.Fatal(err)
	}
	samePicks(t, "after crowd swap", got, want)
}

// TestSelectionStateFrozenDriftWithoutInvalidate checks the safety net:
// freezing a fact without an explicit Invalidate must still be noticed.
func TestSelectionStateFrozenDriftWithoutInvalidate(t *testing.T) {
	ctx := context.Background()
	p := randomProblem(t, 11, 3, experts(0.85, 0.95))
	state := NewSelectionState(0)
	first, err := state.Select(ctx, p, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(first) != 1 {
		t.Fatalf("picked %v", first)
	}
	// Freeze the winning fact; the engine must not pick it again.
	p.Frozen = make([][]bool, len(p.Beliefs))
	for i, d := range p.Beliefs {
		p.Frozen[i] = make([]bool, d.NumFacts())
	}
	p.Frozen[first[0].Task][first[0].Fact] = true
	want, err := (greedyReference{}).Select(ctx, p, 1)
	if err != nil {
		t.Fatal(err)
	}
	got, err := state.Select(ctx, p, 1)
	if err != nil {
		t.Fatal(err)
	}
	samePicks(t, "after freeze", got, want)
	if got[0] == first[0] {
		t.Errorf("frozen fact %v re-picked", first[0])
	}
}
