package taskselect

import (
	"context"
	"fmt"
	"testing"
)

// growProblem appends extra fresh-belief tasks to a problem, simulating a
// streaming admission batch.
func growProblem(t *testing.T, p Problem, seed int64, extra int) Problem {
	t.Helper()
	for i := 0; i < extra; i++ {
		m := 2 + int(seed+int64(i))%3
		p.Beliefs = append(p.Beliefs, randomDist(t, seed*1000+int64(i), m))
	}
	return p
}

// TestSelectionStateAdmitMatchesGreedy drives the engine like the
// streaming pipeline does — select, admit a batch of new tasks, Admit(),
// select again — and demands the picks stay identical to a cold Greedy
// on the grown problem, with the pre-existing task caches reused rather
// than rebuilt.
func TestSelectionStateAdmitMatchesGreedy(t *testing.T) {
	ctx := context.Background()
	ce := experts(0.85, 0.95)
	p := randomProblem(t, 3, 5, ce)
	state := NewSelectionState(0)
	for round := 0; round < 3; round++ {
		want, err := (greedyReference{}).Select(ctx, p, 3)
		if err != nil {
			t.Fatal(err)
		}
		got, err := state.Select(ctx, p, 3)
		if err != nil {
			t.Fatal(err)
		}
		samePicks(t, fmt.Sprintf("pre-admit round %d", round), got, want)

		before := state.Stats()
		old := len(p.Beliefs)
		p = growProblem(t, p, 40+int64(round), 2)
		state.Admit(len(p.Beliefs))
		want, err = (greedyReference{}).Select(ctx, p, 3)
		if err != nil {
			t.Fatal(err)
		}
		got, err = state.Select(ctx, p, 3)
		if err != nil {
			t.Fatal(err)
		}
		samePicks(t, fmt.Sprintf("post-admit round %d", round), got, want)
		delta := state.Stats().Sub(before)
		if delta.Rescans != 2 {
			t.Fatalf("round %d: admit rescanned %d tasks, want only the 2 new ones", round, delta.Rescans)
		}
		if delta.Reused != int64(old) {
			t.Fatalf("round %d: admit reused %d caches, want all %d pre-existing", round, delta.Reused, old)
		}
	}
}

// TestAssignStateAdmitMatchesCostGreedy is the cost-aware mirror.
func TestAssignStateAdmitMatchesCostGreedy(t *testing.T) {
	ctx := context.Background()
	ce := assignExperts()
	p := randomProblem(t, 3, 5, ce)
	state := NewAssignState(ablationCost, 0, 0)
	for round := 0; round < 3; round++ {
		want, err := (CostGreedy{Cost: ablationCost}).SelectAssign(ctx, p, 6)
		if err != nil {
			t.Fatal(err)
		}
		got, err := state.SelectAssign(ctx, p, 6)
		if err != nil {
			t.Fatal(err)
		}
		sameAssigns(t, fmt.Sprintf("pre-admit round %d", round), got, want)

		before := state.Stats()
		old := len(p.Beliefs)
		p = growProblem(t, p, 90+int64(round), 2)
		state.Admit(len(p.Beliefs))
		want, err = (CostGreedy{Cost: ablationCost}).SelectAssign(ctx, p, 6)
		if err != nil {
			t.Fatal(err)
		}
		got, err = state.SelectAssign(ctx, p, 6)
		if err != nil {
			t.Fatal(err)
		}
		sameAssigns(t, fmt.Sprintf("post-admit round %d", round), got, want)
		delta := state.Stats().Sub(before)
		if delta.Rescans != 2 {
			t.Fatalf("round %d: admit rescanned %d tasks, want only the 2 new ones", round, delta.Rescans)
		}
		if delta.Reused != int64(old) {
			t.Fatalf("round %d: admit reused %d caches, want all %d pre-existing", round, delta.Reused, old)
		}
	}
}

// TestAdmitBeforeFirstSyncIsSafe pins the cold-start contract: Admit on a
// never-synced state must not leave a partial table behind.
func TestAdmitBeforeFirstSyncIsSafe(t *testing.T) {
	ctx := context.Background()
	ce := experts(0.85, 0.95)
	p := randomProblem(t, 5, 4, ce)
	state := NewSelectionState(0)
	state.Admit(4) // never synced: must be ignored
	want, err := (greedyReference{}).Select(ctx, p, 3)
	if err != nil {
		t.Fatal(err)
	}
	got, err := state.Select(ctx, p, 3)
	if err != nil {
		t.Fatal(err)
	}
	samePicks(t, "cold admit", got, want)
}
