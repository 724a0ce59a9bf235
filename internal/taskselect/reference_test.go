package taskselect

import (
	"context"
	"math"
)

// greedyReference is the textbook Algorithm 2 gain loop, kept as an
// independent oracle for the engine's pick-identity tests: every marginal
// gain is a fresh CondEntropy call on the enlarged query set, with no
// memoized crowd tables, fused projections or cached argmax. Greedy
// itself runs on SelectionState, so comparing the engine with Greedy
// would compare it with itself.
type greedyReference struct {
	Workers int
}

func (greedyReference) Name() string { return "Approx" }

func (g greedyReference) Select(ctx context.Context, p Problem, k int) ([]Candidate, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if k <= 0 {
		return nil, nil
	}
	type cand struct {
		c    Candidate
		gain float64
	}
	selected := make(map[int][]int) // task -> chosen local facts
	baseH := make([]float64, len(p.Beliefs))
	for t, d := range p.Beliefs {
		baseH[t] = d.Entropy() // H(O_t | AS^∅) = H(O_t)
	}
	// gains[t] holds the current marginal gain of every unchosen fact of
	// task t given selected[t].
	gains := make([][]cand, len(p.Beliefs))
	recompute := func(t int) error {
		d := p.Beliefs[t]
		sel := selected[t]
		gains[t] = gains[t][:0]
		chosen := make([]bool, d.NumFacts())
		for _, f := range sel {
			chosen[f] = true
		}
		for f := 0; f < d.NumFacts(); f++ {
			if chosen[f] || p.frozen(t, f) {
				continue
			}
			if err := ctx.Err(); err != nil {
				return err
			}
			h, err := CondEntropy(d, p.Experts, append(append([]int{}, sel...), f))
			if err != nil {
				return err
			}
			gains[t] = append(gains[t], cand{Candidate{t, f}, baseH[t] - h})
		}
		return nil
	}
	if err := scanAll(ctx, len(p.Beliefs), g.Workers, recompute); err != nil {
		return nil, err
	}
	var picks []Candidate
	for len(picks) < k {
		best := cand{gain: math.Inf(-1)}
		for _, tg := range gains {
			for _, c := range tg {
				if c.gain > best.gain {
					best = c
				}
			}
		}
		if math.IsInf(best.gain, -1) {
			break // no candidates left
		}
		if best.gain <= gainEps {
			break // Algorithm 2 line 4: no further expected improvement
		}
		picks = append(picks, best.c)
		t := best.c.Task
		selected[t] = append(selected[t], best.c.Fact)
		if len(picks) == k {
			break // no further pick reads the recomputed gains
		}
		// The conditional entropy with the enlarged selection becomes the
		// new baseline for task t's marginal gains.
		h, err := CondEntropy(p.Beliefs[t], p.Experts, selected[t])
		if err != nil {
			return nil, err
		}
		baseH[t] = h
		if err := recompute(t); err != nil {
			return nil, err
		}
	}
	sortCandidates(picks)
	return picks, nil
}
