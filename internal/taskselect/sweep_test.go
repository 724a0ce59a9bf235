package taskselect

import (
	"fmt"
	"math"
	"testing"

	"hcrowd/internal/belief"
)

// projectionRef is the per-bit branching projection the sweeps replaced:
// the marginal of d on the ordered fact list, accumulated in ascending
// observation order.
func projectionRef(d *belief.Dist, facts []int) []float64 {
	q := make([]float64, 1<<uint(len(facts)))
	for o := 0; o < d.NumObservations(); o++ {
		po := d.P(o)
		if po == 0 {
			continue
		}
		p := 0
		for j, f := range facts {
			if belief.Models(o, f) {
				p |= 1 << uint(j)
			}
		}
		q[p] += po
	}
	return q
}

// productBelief returns an m-fact independent-product belief with a
// distinct marginal per fact, built by doubling in O(2^m) rather than
// FromMarginals' O(m·2^m) so the 2^25 case stays cheap.
func productBelief(t *testing.T, m int) *belief.Dist {
	t.Helper()
	raw := make([]float64, 1<<uint(m))
	raw[0] = 1
	for f, size := 0, 1; f < m; f, size = f+1, size<<1 {
		p := 0.05 + 0.9*float64((7*f)%m)/float64(m)
		for o := 0; o < size; o++ {
			raw[size+o] = raw[o] * p
			raw[o] *= 1 - p
		}
	}
	d, err := belief.FromJoint(raw)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func sameBits(t *testing.T, label string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d entries, want %d", label, len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: entry %d = %v, want %v (bitwise)", label, i, got[i], want[i])
		}
	}
}

// TestBranchlessSweepsMatchProjection checks projectionInto and the fused
// rescan and refill passes bitwise against the per-fact branching
// projection, up to belief.MaxFacts so the top fact bit is covered. On
// the widest belief only the lowest and highest facts are compared, each
// reference projection being a full 2^25 pass.
func TestBranchlessSweepsMatchProjection(t *testing.T) {
	for _, m := range []int{5, 16, belief.MaxFacts} {
		t.Run(fmt.Sprintf("m=%d", m), func(t *testing.T) {
			if m > 16 && raceEnabled {
				// The sweeps run on one goroutine, and the race detector's
				// shadow memory would take a 2^25 belief past 1.5 GB.
				t.Skip("2^25 belief skipped under the race detector")
			}
			d := productBelief(t, m)
			check := []int{0, m - 1}
			if m <= 16 {
				check = check[:0]
				for f := 0; f < m; f++ {
					check = append(check, f)
				}
			}

			for _, facts := range [][]int{{0, m - 1, m / 2}} {
				sameBits(t, fmt.Sprintf("projectionInto %v", facts), projectionInto(nil, d, facts), projectionRef(d, facts))
			}

			qs := singletonProjections(nil, d)
			for _, f := range check {
				sameBits(t, fmt.Sprintf("rescan marginal of fact %d", f), qs[2*f:2*f+2], projectionRef(d, []int{f}))
			}

			sel := []int{m / 2, 2}
			var cands []int
			for _, f := range check {
				if f != sel[0] && f != sel[1] {
					cands = append(cands, f)
				}
			}
			n := 2 << uint(len(sel))
			qs = extendedProjections(nil, d, sel, cands)
			for i, f := range cands {
				facts := append(append([]int{}, sel...), f)
				sameBits(t, fmt.Sprintf("refill projection %v", facts), qs[i*n:(i+1)*n], projectionRef(d, facts))
			}
		})
	}
}
