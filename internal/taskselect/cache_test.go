package taskselect

import (
	"context"
	"encoding/json"
	"testing"
)

// warmSelectionState runs a state to steady state and exports its cache.
func warmSelectionState(t *testing.T, ctx context.Context, p Problem) *SelectionCache {
	t.Helper()
	state := NewSelectionState(0)
	if _, err := state.Select(ctx, p, 2); err != nil {
		t.Fatal(err)
	}
	c := state.ExportCache()
	if c == nil {
		t.Fatal("warm state exported nil cache")
	}
	return c
}

// TestSelectionCacheRoundTripWarm is the warm-restore property for the
// uniform engine: a fresh state restored from a serialized cache must
// pick identically to the live state without re-scanning any clean task.
func TestSelectionCacheRoundTripWarm(t *testing.T) {
	ctx := context.Background()
	p := randomProblem(t, 4, 6, experts(0.85, 0.95))
	c := warmSelectionState(t, ctx, p)

	raw, err := json.Marshal(c)
	if err != nil {
		t.Fatal(err)
	}
	var back SelectionCache
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}

	want, err := (greedyReference{}).Select(ctx, p, 2)
	if err != nil {
		t.Fatal(err)
	}
	warm := NewSelectionState(0)
	if err := warm.RestoreCache(&back); err != nil {
		t.Fatal(err)
	}
	ResetEvalCount()
	got, err := warm.Select(ctx, p, 2)
	if err != nil {
		t.Fatal(err)
	}
	warmEvals := EvalCount()
	samePicks(t, "warm restore", got, want)

	ResetEvalCount()
	if _, err := NewSelectionState(0).Select(ctx, p, 2); err != nil {
		t.Fatal(err)
	}
	coldEvals := EvalCount()
	// The warm state skips the initial full scan entirely; only the eager
	// per-pick refreshes remain.
	if warmEvals*2 > coldEvals {
		t.Errorf("warm restore cost %d evals, cold %d — want >=2x fewer", warmEvals, coldEvals)
	}
}

// TestAssignCacheRoundTripWarm is the same property for the assignment
// engine.
func TestAssignCacheRoundTripWarm(t *testing.T) {
	ctx := context.Background()
	p := randomProblem(t, 8, 6, assignExperts())
	live := NewAssignState(ablationCost, 0, 0)
	if _, err := live.SelectAssign(ctx, p, 4); err != nil {
		t.Fatal(err)
	}
	c := live.ExportCache()
	if c == nil {
		t.Fatal("warm state exported nil cache")
	}
	raw, err := json.Marshal(c)
	if err != nil {
		t.Fatal(err)
	}
	var back SelectionCache
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}

	want, err := (CostGreedy{Cost: ablationCost}).SelectAssign(ctx, p, 4)
	if err != nil {
		t.Fatal(err)
	}
	warm := NewAssignState(ablationCost, 0, 0)
	if err := warm.RestoreCache(&back); err != nil {
		t.Fatal(err)
	}
	ResetEvalCount()
	got, err := warm.SelectAssign(ctx, p, 4)
	if err != nil {
		t.Fatal(err)
	}
	warmEvals := EvalCount()
	sameAssigns(t, "warm restore", got, want)

	ResetEvalCount()
	if _, err := NewAssignState(ablationCost, 0, 0).SelectAssign(ctx, p, 4); err != nil {
		t.Fatal(err)
	}
	coldEvals := EvalCount()
	if warmEvals*2 > coldEvals {
		t.Errorf("warm restore cost %d evals, cold %d — want >=2x fewer", warmEvals, coldEvals)
	}
}

// TestSelectionCacheDirtyTasksRescan: tasks exported as dirty re-scan on
// first use and the picks still match.
func TestSelectionCacheDirtyTasksRescan(t *testing.T) {
	ctx := context.Background()
	p := randomProblem(t, 6, 5, experts(0.85, 0.95))
	state := NewSelectionState(0)
	if _, err := state.Select(ctx, p, 2); err != nil {
		t.Fatal(err)
	}
	state.Invalidate(1, 3)
	c := state.ExportCache()
	if !c.Tasks[1].Dirty || !c.Tasks[3].Dirty {
		t.Fatalf("invalidated tasks exported clean: %+v", c.Tasks)
	}
	warm := NewSelectionState(0)
	if err := warm.RestoreCache(c); err != nil {
		t.Fatal(err)
	}
	want, err := (greedyReference{}).Select(ctx, p, 2)
	if err != nil {
		t.Fatal(err)
	}
	got, err := warm.Select(ctx, p, 2)
	if err != nil {
		t.Fatal(err)
	}
	samePicks(t, "dirty tasks", got, want)
}

// TestSelectionCacheMismatchFallsBackCold: a cache from a different crowd
// or shape is ignored, not trusted.
func TestSelectionCacheMismatchFallsBackCold(t *testing.T) {
	ctx := context.Background()
	p := randomProblem(t, 4, 6, experts(0.85, 0.95))
	c := warmSelectionState(t, ctx, p)

	other := p
	other.Experts = experts(0.7, 0.99)
	want, err := (greedyReference{}).Select(ctx, other, 2)
	if err != nil {
		t.Fatal(err)
	}
	warm := NewSelectionState(0)
	if err := warm.RestoreCache(c); err != nil {
		t.Fatal(err)
	}
	got, err := warm.Select(ctx, other, 2)
	if err != nil {
		t.Fatal(err)
	}
	samePicks(t, "crowd mismatch", got, want)
}

// TestSelectionCacheKindMismatch: restoring a cache into the wrong engine
// errors rather than guessing.
func TestSelectionCacheKindMismatch(t *testing.T) {
	ctx := context.Background()
	p := randomProblem(t, 4, 3, assignExperts())
	g := warmSelectionState(t, ctx, p)
	if err := NewAssignState(nil, 0, 0).RestoreCache(g); err == nil {
		t.Error("assign engine accepted a greedy cache")
	}
	a := NewAssignState(nil, 0, 0)
	if _, err := a.SelectAssign(ctx, p, 2); err != nil {
		t.Fatal(err)
	}
	if err := NewSelectionState(0).RestoreCache(a.ExportCache()); err == nil {
		t.Error("greedy engine accepted an assign cache")
	}
}

// TestSelectionCacheValidate covers the structural checks.
func TestSelectionCacheValidate(t *testing.T) {
	cases := []struct {
		name string
		c    SelectionCache
		ok   bool
	}{
		{"good", SelectionCache{Version: CacheVersion, Kind: CacheKindGreedy}, true},
		{"bad-version", SelectionCache{Version: 99, Kind: CacheKindGreedy}, false},
		{"bad-kind", SelectionCache{Version: CacheVersion, Kind: "mystery"}, false},
		{"frozen-shape", SelectionCache{Version: CacheVersion, Kind: CacheKindGreedy,
			Tasks: []TaskGainCache{{Gains: []float64{1, 2}, Frozen: []bool{true}}}}, false},
		{"dirty-skips-shape", SelectionCache{Version: CacheVersion, Kind: CacheKindGreedy,
			Tasks: []TaskGainCache{{Dirty: true, Frozen: []bool{true}}}}, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.c.Validate()
			if tc.ok && err != nil {
				t.Errorf("unexpected error: %v", err)
			}
			if !tc.ok && err == nil {
				t.Error("invalid cache accepted")
			}
		})
	}
	var s SelectionState
	if err := s.RestoreCache(nil); err != nil {
		t.Errorf("nil cache: %v", err)
	}
	if s.ExportCache() != nil {
		t.Error("never-synced state exported a cache")
	}
}
