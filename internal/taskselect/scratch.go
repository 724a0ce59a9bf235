package taskselect

import (
	"encoding/binary"
	"sync"

	"hcrowd/internal/belief"
)

// evalScratch bundles the per-evaluation working buffers of the
// incremental engines: the projection vector q, the query-set fact list,
// and the per-unit tables of the assignment evaluator. One scratch serves
// one evaluation at a time; the pool hands each goroutine of the parallel
// refill its own. Pooling only recycles capacity — every buffer is
// re-filled before use — so reuse cannot perturb results.
type evalScratch struct {
	q     []float64
	facts []int
	pyes  [][2]float64
	pos   []int
	units []unitRef
	key   []byte
}

var scratchPool = sync.Pool{New: func() any { return new(evalScratch) }}

func getScratch() *evalScratch  { return scratchPool.Get().(*evalScratch) }
func putScratch(s *evalScratch) { scratchPool.Put(s) }

// growFloats returns s with length exactly n, reusing its backing array
// when the capacity allows. Contents are unspecified; callers overwrite.
func growFloats(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

// growInts is growFloats for int slices.
func growInts(s []int, n int) []int {
	if cap(s) < n {
		return make([]int, n)
	}
	return s[:n]
}

// growBools is growFloats for bool slices.
func growBools(s []bool, n int) []bool {
	if cap(s) < n {
		return make([]bool, n)
	}
	return s[:n]
}

// growPairs is growFloats for [2]float64 slices.
func growPairs(s [][2]float64, n int) [][2]float64 {
	if cap(s) < n {
		return make([][2]float64, n)
	}
	return s[:n]
}

// growRows returns a [m][w]float64 table, reusing outer and inner
// capacity when possible. Row contents are unspecified.
func growRows(rows [][]float64, m, w int) [][]float64 {
	if cap(rows) < m {
		next := make([][]float64, m)
		copy(next, rows)
		rows = next
	} else {
		rows = rows[:m]
	}
	for f := range rows {
		rows[f] = growFloats(rows[f], w)
	}
	return rows
}

// projectionInto computes the belief's marginal on the ordered fact list
// into q (resized as needed) and returns it. Observations accumulate in
// ascending order, so every caller's projection agrees bitwise. Like the
// fused passes below, it shifts each fact's truth bit out of o instead
// of branching on it: a pass that tests many facts per observation
// interleaves more bit patterns than the branch predictor follows.
func projectionInto(q []float64, d *belief.Dist, facts []int) []float64 {
	s := len(facts)
	q = growFloats(q, 1<<uint(s))
	for i := range q {
		q[i] = 0
	}
	for o := 0; o < d.NumObservations(); o++ {
		po := d.P(o)
		if po == 0 {
			continue
		}
		p := 0
		for j, f := range facts {
			p |= ((o >> uint(f)) & 1) << uint(j)
		}
		q[p] += po
	}
	return q
}

// singletonProjections fills qs (resized to 2m) with every fact's
// one-fact projection, qs[2f+b] = P(fact f has truth bit b), in a single
// observation pass. Each slot accumulates in ascending observation
// order, so qs[2f:2f+2] is bitwise projectionInto's result for {f}.
func singletonProjections(qs []float64, d *belief.Dist) []float64 {
	m := d.NumFacts()
	qs = growFloats(qs, 2*m)
	for i := range qs {
		qs[i] = 0
	}
	for o := 0; o < d.NumObservations(); o++ {
		po := d.P(o)
		if po == 0 {
			continue
		}
		for f := 0; f < m; f++ {
			qs[2*f+(o>>uint(f))&1] += po
		}
	}
	return qs
}

// extendedProjections fills qs (resized to len(cands)·n, n = 2^(|sel|+1))
// with the projection onto sel followed by each candidate fact:
// qs[i·n:(i+1)·n] is bitwise projectionInto's result for sel+[cands[i]].
// One observation pass serves every candidate, since the selection's
// pattern bits are shared and only the candidate's top bit differs.
func extendedProjections(qs []float64, d *belief.Dist, sel, cands []int) []float64 {
	n := 2 << uint(len(sel))
	qs = growFloats(qs, len(cands)*n)
	for i := range qs {
		qs[i] = 0
	}
	hiBit := uint(len(sel)) // the candidate fact is the query list's last entry
	for o := 0; o < d.NumObservations(); o++ {
		po := d.P(o)
		if po == 0 {
			continue
		}
		pb := 0
		for j, f := range sel {
			pb |= ((o >> uint(f)) & 1) << uint(j)
		}
		for i, f := range cands {
			qs[i*n+(pb|((o>>uint(f))&1)<<hiBit)] += po
		}
	}
	return qs
}

// projKey appends a self-delimiting encoding of the fact list to buf and
// returns it — the projection-memo key. Varint-encoding each index keeps
// the key collision-free for fact indices of any size; the previous
// single-byte encoding truncated indices ≥ 256 onto each other and could
// serve the wrong task projection.
func projKey(buf []byte, facts []int) []byte {
	for _, f := range facts {
		buf = binary.AppendUvarint(buf, uint64(f))
	}
	return buf
}
