package taskselect

import (
	"context"
	"errors"
	"fmt"
	"math"
	"testing"
	"time"

	"hcrowd/internal/crowd"
	"hcrowd/internal/rngutil"
)

// bruteForceOPT enumerates every size-k subset of the unfrozen candidates
// in lexicographic (task, fact) order and returns the first strict
// minimizer of Problem.Objective with its objective value.
func bruteForceOPT(t *testing.T, ctx context.Context, p Problem, k int) ([]Candidate, float64) {
	t.Helper()
	var all []Candidate
	for task, d := range p.Beliefs {
		for f := 0; f < d.NumFacts(); f++ {
			if !p.frozen(task, f) {
				all = append(all, Candidate{task, f})
			}
		}
	}
	k = min(k, len(all))
	best, bestH := []Candidate(nil), math.Inf(1)
	var rec func(start int, cur []Candidate)
	rec = func(start int, cur []Candidate) {
		if len(cur) == k {
			h, err := p.Objective(ctx, cur)
			if err != nil {
				t.Fatal(err)
			}
			if h < bestH {
				best, bestH = append([]Candidate(nil), cur...), h
			}
			return
		}
		for i := start; i < len(all); i++ {
			rec(i+1, append(cur, all[i]))
		}
	}
	rec(0, make([]Candidate, 0, k))
	return best, bestH
}

// TestExactMatchesBruteForceObjective checks Exact's hoisted-entropy path
// against a brute force over Problem.Objective on multi-task problems: the
// same picks, and a winning total that is bitwise the Objective minimum.
func TestExactMatchesBruteForceObjective(t *testing.T) {
	ctx := context.Background()
	crowds := map[string]crowd.Crowd{
		"symmetric":  experts(0.8, 0.93),
		"asymmetric": {{ID: "A", TPR: 0.9, TNR: 0.75}, {ID: "B", TPR: 0.8, TNR: 0.95}},
	}
	for name, ce := range crowds {
		for seed := int64(0); seed < 4; seed++ {
			for _, frozen := range []bool{false, true} {
				p := randomProblem(t, 20+seed, 4, ce)
				if frozen {
					rng := rngutil.New(seed)
					p.Frozen = make([][]bool, len(p.Beliefs))
					for i, d := range p.Beliefs {
						p.Frozen[i] = make([]bool, d.NumFacts())
						for f := range p.Frozen[i] {
							p.Frozen[i][f] = rng.Float64() < 0.3
						}
					}
				}
				for k := 1; k <= 3; k++ {
					label := fmt.Sprintf("%s seed=%d frozen=%v k=%d", name, seed, frozen, k)
					got, err := Exact{}.Select(ctx, p, k)
					if err != nil {
						t.Fatal(err)
					}
					want, wantH := bruteForceOPT(t, ctx, p, k)
					samePicks(t, label, got, want)
					gotH, err := p.Objective(ctx, got)
					if err != nil {
						t.Fatal(err)
					}
					if math.Float64bits(gotH) != math.Float64bits(wantH) {
						t.Errorf("%s: winning total %v, brute force %v", label, gotH, wantH)
					}
				}
			}
		}
	}
}

// TestExactExpiredDeadline: Table III's timeout cells rely on Exact
// reporting an expired deadline as context.DeadlineExceeded.
func TestExactExpiredDeadline(t *testing.T) {
	p := randomProblem(t, 3, 3, experts(0.9, 0.95))
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	if _, err := (Exact{}).Select(ctx, p, 2); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Exact under an expired deadline: err %v, want context.DeadlineExceeded", err)
	}
}
