package taskselect

import (
	"context"
	"math"
	"slices"
	"testing"
	"testing/quick"

	"hcrowd/internal/belief"
	"hcrowd/internal/crowd"
	"hcrowd/internal/rngutil"
)

// instance decodes arbitrary quick-generated bytes into a valid small
// selection instance: a 3-fact belief, 1-2 experts, and a query subset.
type instance struct {
	d     *belief.Dist
	ce    crowd.Crowd
	facts []int
}

func decodeInstance(seed int64) instance {
	rng := rngutil.New(seed)
	raw := make([]float64, 8)
	for i := range raw {
		raw[i] = rng.Float64() + 1e-5
	}
	d, err := belief.FromJoint(raw)
	if err != nil {
		panic(err)
	}
	n := 1 + rng.Intn(2)
	ce := make(crowd.Crowd, n)
	for i := range ce {
		ce[i] = crowd.Worker{ID: string(rune('a' + i)), Accuracy: 0.5 + 0.5*rng.Float64()}
	}
	size := 1 + rng.Intn(3)
	perm := rng.Perm(3)
	return instance{d: d, ce: ce, facts: perm[:size]}
}

func TestQuickCondEntropyIdentity(t *testing.T) {
	// Property: optimized == naive over arbitrary instances.
	f := func(seed int64) bool {
		in := decodeInstance(seed)
		fast, err1 := CondEntropy(in.d, in.ce, in.facts)
		naive, err2 := CondEntropyNaive(in.d, in.ce, in.facts)
		if err1 != nil || err2 != nil {
			return false
		}
		return math.Abs(fast-naive) < 1e-9*(1+math.Abs(naive))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickInformationNeverHurts(t *testing.T) {
	// Property: 0 <= H(O|AS) <= H(O) for any instance.
	f := func(seed int64) bool {
		in := decodeInstance(seed)
		h, err := CondEntropy(in.d, in.ce, in.facts)
		if err != nil {
			return false
		}
		return h >= 0 && h <= in.d.Entropy()+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickGreedyNeverWorseThanSingleBest(t *testing.T) {
	// Property: greedy's k=2 objective is never worse than its k=1
	// objective (adding a query cannot hurt the optimal conditional
	// entropy, and greedy extends its own k=1 choice).
	ctx := context.Background()
	f := func(seed int64) bool {
		in := decodeInstance(seed)
		p := Problem{Beliefs: []*belief.Dist{in.d}, Experts: in.ce}
		g1, err := Greedy{}.Select(ctx, p, 1)
		if err != nil {
			return false
		}
		g2, err := Greedy{}.Select(ctx, p, 2)
		if err != nil {
			return false
		}
		h1, err := p.Objective(ctx, g1)
		if err != nil {
			return false
		}
		h2, err := p.Objective(ctx, g2)
		if err != nil {
			return false
		}
		return h2 <= h1+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestQuickGreedyMatchesReference(t *testing.T) {
	// Property: Greedy (a cold SelectionState) picks exactly what the
	// textbook gain loop picks, with as many CondEntropy evaluations, on
	// multi-task problems with symmetric or asymmetric crowds, random
	// frozen masks and serial or parallel scans.
	ctx := context.Background()
	f := func(seed int64, kRaw uint8, asym, freeze, parallel bool) bool {
		rng := rngutil.New(seed)
		ce := crowd.Crowd{{ID: "a", Accuracy: 0.6 + 0.39*rng.Float64()}, {ID: "b", Accuracy: 0.6 + 0.39*rng.Float64()}}
		if asym {
			ce[1] = crowd.Worker{ID: "b", TPR: 0.5 + 0.5*rng.Float64(), TNR: 0.5 + 0.5*rng.Float64()}
		}
		p := Problem{Beliefs: make([]*belief.Dist, 1+rng.Intn(4)), Experts: ce}
		for i := range p.Beliefs {
			p.Beliefs[i] = decodeInstance(rng.Int63()).d
		}
		if freeze {
			p.Frozen = make([][]bool, len(p.Beliefs))
			for i := range p.Frozen {
				p.Frozen[i] = []bool{rng.Intn(3) == 0, rng.Intn(3) == 0, rng.Intn(3) == 0}
			}
		}
		workers := 0
		if parallel {
			workers = 3
		}
		k := 1 + int(kRaw%6)
		ResetEvalCount()
		got, err1 := Greedy{Workers: workers}.Select(ctx, p, k)
		gotEvals := EvalCount()
		ResetEvalCount()
		want, err2 := greedyReference{Workers: workers}.Select(ctx, p, k)
		// The same evaluation schedule, not just the same picks.
		return err1 == nil && err2 == nil && slices.Equal(got, want) && gotEvals == EvalCount()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestQuickSelectorsAgreeOnPickValidity(t *testing.T) {
	// Property: every selector returns distinct, in-range, sorted picks.
	ctx := context.Background()
	f := func(seed int64, kRaw uint8) bool {
		in := decodeInstance(seed)
		p := Problem{Beliefs: []*belief.Dist{in.d}, Experts: in.ce}
		k := 1 + int(kRaw%3)
		for _, s := range []Selector{Greedy{}, greedyReference{}, Exact{}, Random{Rng: rngutil.New(seed)}, MaxEntropy{}} {
			picks, err := s.Select(ctx, p, k)
			if err != nil {
				return false
			}
			seen := map[Candidate]bool{}
			prev := Candidate{Task: -1, Fact: -1}
			for _, c := range picks {
				if c.Task != 0 || c.Fact < 0 || c.Fact > 2 || seen[c] {
					return false
				}
				if c.Task < prev.Task || (c.Task == prev.Task && c.Fact <= prev.Fact) {
					return false // not sorted
				}
				seen[c] = true
				prev = c
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestQuickFrozenNeverPicked(t *testing.T) {
	ctx := context.Background()
	f := func(seed int64, frozenBit uint8) bool {
		in := decodeInstance(seed)
		frozen := [][]bool{{false, false, false}}
		frozen[0][int(frozenBit)%3] = true
		p := Problem{Beliefs: []*belief.Dist{in.d}, Experts: in.ce, Frozen: frozen}
		for _, s := range []Selector{Greedy{}, greedyReference{}, Exact{}, Random{Rng: rngutil.New(seed)}, MaxEntropy{}} {
			picks, err := s.Select(ctx, p, 3)
			if err != nil {
				return false
			}
			for _, c := range picks {
				if frozen[c.Task][c.Fact] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}
