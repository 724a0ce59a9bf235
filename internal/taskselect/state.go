package taskselect

import (
	"fmt"
	"math"
	"strings"
	"sync"

	"context"

	"hcrowd/internal/belief"
	"hcrowd/internal/crowd"
)

// SelectionState is the engine behind the Greedy selector. A cold state
// makes the picks of Algorithm 2's textbook gain loop (same values, same
// deterministic tie-break, same evaluation schedule); a state kept
// across the checking loop's rounds also amortizes that work:
//
//   - The per-task round-start marginal gains gain^∅(f) = H(O_t) −
//     H(O_t|AS^{{f}}) are cached between Select calls and recomputed only
//     for tasks the caller has Invalidated (in the pipeline: the tasks
//     whose beliefs the previous round's answers updated). A steady-state
//     round with k picks therefore costs O(touched tasks), not O(N·m)
//     CondEntropy evaluations.
//   - The pick loop replaces a priority queue with a two-level argmax:
//     every task caches the first strict maximum of its gain row (fact
//     ascending), and each pick scans those per-task bests in task order
//     with a strict comparison — exactly the argmax order of the textbook
//     loop's full scan (gain descending, ties to the lowest task then
//     fact), at O(N) per pick with no heap maintenance and no
//     allocation. A pick only perturbs the gains of its own task (tasks
//     are independent), so only that task's row is re-evaluated —
//     eagerly, on exactly the textbook loop's recompute schedule, rather
//     than CELF-style stale-until-popped: pure laziness needs stale gains
//     to upper-bound fresh ones, and while submodularity guarantees that
//     in exact arithmetic, rounding can violate it by a few ulps, which
//     in the exact-tie regimes of a converged belief silently changes the
//     argmax and breaks pick-identity with the textbook loop. Eager
//     refresh costs at most m−1 extra evaluations per pick and keeps the
//     identity provable; the (1−1/e) guarantee carries over unchanged
//     either way.
//   - The crowd-only pieces of CondEntropy (Hamming-distance likelihood
//     tables, Σ_cr h(Pr_cr), the asymmetric yes-probability table) are
//     computed once per crowd; projections and query-set lists are built
//     in pooled scratch, so a steady-state round allocates O(1).
//
// The caller owns cache coherence: after mutating a task's belief (or its
// Frozen mask) it must call Invalidate(task) before the next Select. The
// pipeline does this for every task that received answers. Select itself
// detects crowd or problem-shape changes and resets wholesale, so one
// state must only ever serve one logical run at a time.
//
// Workers > 1 re-scans invalidated tasks concurrently and fans the
// post-pick row refresh out across the same pool; every goroutine writes
// a disjoint slot of the row and the per-task best is reduced serially
// afterwards, so the parallel refill is deterministic and bit-identical
// to the serial one. SelectionState is not safe for concurrent Select
// calls.
type SelectionState struct {
	// Workers bounds the goroutines of the invalidation re-scan and the
	// post-pick row refresh; <= 1 means serial.
	Workers int

	// Crowd-derived memos, reset when the crowd signature changes.
	crowdSig  string
	ce        crowd.Crowd
	asym      bool
	hPerQuery float64      // symmetric: Σ_cr h(Pr_cr)
	pYes      [][2]float64 // asymmetric: P(yes | truth) per worker

	// tables[s] caches likelihoodTables(ce, s) per query-set size. The
	// mutex makes get-or-create safe from the parallel re-scan.
	tablesMu sync.Mutex
	tables   map[int][][]float64 //hclint:guardedby tablesMu

	tasks []*taskCache

	// dirtyList and touchedList are per-Select scratch (task indices),
	// kept on the state so steady-state rounds reuse their capacity.
	dirtyList   []int
	touchedList []int

	// pending holds a cache restored via RestoreCache until the next sync
	// adopts it (the crowd memos must be recomputed for the live crowd
	// before the per-task gains are trusted).
	pending *SelectionCache

	stats engineStats
}

// taskCache holds the belief-derived memos for one task.
type taskCache struct {
	dirty     bool
	entropy   float64   // H(O_t)
	gains     []float64 // round-start gain per fact; NaN marks frozen facts
	frozen    []bool    // the mask gains was computed under
	anyFrozen bool      // OR of frozen, the drift check's fast path
	// bestFact/bestGain cache the first strict maximum of gains in fact
	// order (the task's entry in the pick loop's argmax); bestFact == -1
	// when no live candidate remains.
	bestFact int
	bestGain float64

	// Pick-loop scratch, only meaningful while touched (reset at the
	// start of the next Select): sel holds this round's picks in this
	// task in pick order, chosen marks them, live holds the refreshed
	// marginal gains given sel with NaN on chosen and frozen facts, and
	// qs is the refill's fused projection buffer.
	touched      bool
	sel          []int
	chosen       []bool
	live         []float64
	qs           []float64
	liveBestFact int
	liveBestGain float64
}

// curBest returns the task's current argmax entry: the refreshed row if
// the task received a pick this round, the round-start row otherwise.
func (tc *taskCache) curBest() (int, float64) {
	if tc.touched {
		return tc.liveBestFact, tc.liveBestGain
	}
	return tc.bestFact, tc.bestGain
}

// resetRound clears the pick-loop scratch. chosen and live are left
// dirty; they are re-initialized when the task is next touched.
func (tc *taskCache) resetRound() {
	tc.touched = false
	tc.sel = tc.sel[:0]
}

// gainRowBest returns the first strict maximum of a gain row in fact
// order, skipping NaN (frozen or consumed) entries; (-1, -Inf) when the
// row has no live entry. Scanning facts ascending with a strict > is
// exactly how the textbook loop's argmax breaks ties, which is what makes
// the cached best usable in its place.
func gainRowBest(gains []float64) (int, float64) {
	bf, bg := -1, math.Inf(-1)
	for f, g := range gains {
		if math.IsNaN(g) {
			continue
		}
		if g > bg {
			bf, bg = f, g
		}
	}
	return bf, bg
}

// NewSelectionState returns an empty incremental selection engine; the
// first Select populates it for the problem it sees.
func NewSelectionState(workers int) *SelectionState {
	return &SelectionState{Workers: workers}
}

// Name implements Selector. The engine reports the same name as Greedy
// because it is the same algorithm — only the evaluation schedule differs.
func (s *SelectionState) Name() string { return "Approx" }

// Invalidate marks tasks whose beliefs (or frozen masks) changed since the
// last Select, forcing their cached gains to be recomputed. Out-of-range
// indices are ignored.
func (s *SelectionState) Invalidate(tasks ...int) {
	for _, t := range tasks {
		if t >= 0 && t < len(s.tasks) && s.tasks[t] != nil {
			s.tasks[t].dirty = true
		}
	}
}

// InvalidateAll drops every cached gain (keeping the crowd memos).
func (s *SelectionState) InvalidateAll() {
	for _, tc := range s.tasks {
		if tc != nil {
			tc.dirty = true
		}
	}
}

// Admit grows the task table to total tasks, appending cold cache slots
// for the newly admitted tasks while keeping every existing task's cached
// gains and the crowd memos — the next sync slab-fills only the new
// slots instead of resetting wholesale. A state that has not synced yet
// is left untouched: its first sync builds the table at the grown size
// anyway. total at or below the current size is a no-op.
func (s *SelectionState) Admit(total int) {
	if len(s.tasks) == 0 || total <= len(s.tasks) {
		return
	}
	s.tasks = append(s.tasks, make([]*taskCache, total-len(s.tasks))...)
}

// crowdSignature fingerprints the crowd for cache-reset detection.
func crowdSignature(ce crowd.Crowd) string {
	var sb strings.Builder
	for _, w := range ce {
		fmt.Fprintf(&sb, "%s\x00%v\x00%v\x00%v\x01", w.ID, w.Accuracy, w.TPR, w.TNR)
	}
	return sb.String()
}

// crowdEqual reports whether two crowds are identical worker for worker —
// the steady-state fast path of the crowd-change check, sparing the
// formatted signature rebuild on every call. Float fields compare by bit
// pattern, which is at least as strict as the signature string.
func crowdEqual(a, b crowd.Crowd) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].ID != b[i].ID ||
			math.Float64bits(a[i].Accuracy) != math.Float64bits(b[i].Accuracy) ||
			math.Float64bits(a[i].TPR) != math.Float64bits(b[i].TPR) ||
			math.Float64bits(a[i].TNR) != math.Float64bits(b[i].TNR) {
			return false
		}
	}
	return true
}

// sync aligns the cache with the problem: a crowd or shape change resets
// everything, and a frozen-mask drift on a clean task dirties it.
func (s *SelectionState) sync(p Problem) {
	if !crowdEqual(s.ce, p.Experts) || len(p.Beliefs) != len(s.tasks) {
		s.crowdSig = crowdSignature(p.Experts)
		// Copy the crowd so a caller mutating its slice in place is still
		// caught by the equality check on the next call.
		s.ce = append(crowd.Crowd(nil), p.Experts...)
		s.asym = false
		for _, w := range p.Experts {
			if w.Asymmetric() {
				s.asym = true
				break
			}
		}
		if s.asym {
			s.pYes = asymYesTable(p.Experts)
		} else {
			s.hPerQuery = symAnswerEntropy(p.Experts)
		}
		// sync runs serially before any parallel scan, but the reset
		// still takes tablesMu (uncontended) so the guardedby invariant
		// holds on every path rather than by phase-ordering argument.
		s.tablesMu.Lock()
		s.tables = make(map[int][][]float64)
		s.tablesMu.Unlock()
		s.tasks = make([]*taskCache, len(p.Beliefs))
		s.adoptPending(p)
	}
	s.pending = nil
	// Batch-allocate caches for tasks still missing one (all of them after
	// a reset, none in steady state) instead of one heap object per task.
	missing := 0
	for _, tc := range s.tasks {
		if tc == nil {
			missing++
		}
	}
	if missing > 0 {
		slab := make([]taskCache, missing)
		// Carve every new cache's per-fact slices out of two shared backing
		// arrays; a cold sync otherwise allocates four slices per task. The
		// three-index slicing caps each slice at its task's fact count, so
		// a later grow can never reach into a neighbour's segment.
		totalFacts := 0
		for t := range s.tasks {
			if s.tasks[t] == nil {
				totalFacts += p.Beliefs[t].NumFacts()
			}
		}
		fslab := make([]float64, 2*totalFacts)
		bslab := make([]bool, 2*totalFacts)
		i, off := 0, 0
		for t := range s.tasks {
			if s.tasks[t] == nil {
				m := p.Beliefs[t].NumFacts()
				tc := &slab[i]
				tc.dirty = true
				tc.gains = fslab[off : off+m : off+m]
				tc.live = fslab[off+m : off+2*m : off+2*m]
				tc.frozen = bslab[off : off+m : off+m]
				tc.chosen = bslab[off+m : off+2*m : off+2*m]
				s.tasks[t] = tc
				i++
				off += 2 * m
			}
		}
	}
	for t, tc := range s.tasks {
		if !tc.dirty && !frozenEqual(tc.frozen, tc.anyFrozen, p, t) {
			tc.dirty = true
		}
	}
}

// frozenEqual reports whether the cached frozen mask matches the
// problem's current mask for task t. anyFrozen is the cached mask's OR,
// letting the overwhelmingly common nothing-frozen-anywhere case skip the
// per-fact scan.
func frozenEqual(cached []bool, anyFrozen bool, p Problem, t int) bool {
	if !anyFrozen && (p.Frozen == nil || t >= len(p.Frozen) || p.Frozen[t] == nil) {
		return true
	}
	n := p.Beliefs[t].NumFacts()
	for f := 0; f < n; f++ {
		was := cached != nil && f < len(cached) && cached[f]
		if was != p.frozen(t, f) {
			return false
		}
	}
	return true
}

// likelihoodTablesFor returns the memoized Hamming-distance tables for
// query-set size sz, building them on first use.
func (s *SelectionState) likelihoodTablesFor(sz int) [][]float64 {
	s.tablesMu.Lock()
	defer s.tablesMu.Unlock()
	tbl, ok := s.tables[sz]
	if !ok {
		tbl = likelihoodTables(s.ce, sz)
		s.tables[sz] = tbl
	}
	return tbl
}

// condEntropy evaluates H(O_t | AS^facts) through the crowd memos, using
// sc for the projection. It matches CondEntropy bitwise: the cores run
// the identical arithmetic, only the setup comes from cache and scratch.
func (s *SelectionState) condEntropy(sc *evalScratch, tc *taskCache, d *belief.Dist, facts []int) (float64, error) {
	if len(facts) == 0 {
		return tc.entropy, nil
	}
	sz, w := len(facts), len(s.ce)
	if sz*w > maxFamilyBits {
		return 0, fmt.Errorf("%w: |T|=%d × |CE|=%d", ErrTooLarge, sz, w)
	}
	s.stats.evals.Add(1)
	sc.q = projectionInto(sc.q, d, facts)
	if s.asym {
		return condEntropyAsymCore(tc.entropy, sc.q, s.pYes, sz, w), nil
	}
	return condEntropySymCore(tc.entropy, sc.q, s.likelihoodTablesFor(sz), s.hPerQuery, sz, w), nil
}

// rescan rebuilds the round-start gain cache of task t. The round-start
// gains all condition on one-fact query sets, so singletonProjections
// fills every fact's two-pattern marginal in one observation pass; the
// marginals, and so the gains, are bitwise the ones the one-at-a-time
// evaluation produces.
func (s *SelectionState) rescan(ctx context.Context, p Problem, t int) error {
	tc := s.tasks[t]
	d := p.Beliefs[t]
	sc := getScratch()
	defer putScratch(sc)
	tc.entropy = d.Entropy()
	m, w := d.NumFacts(), len(s.ce)
	tc.gains = growFloats(tc.gains, m)
	tc.frozen = growBools(tc.frozen, m)
	tc.anyFrozen = false
	sc.q = singletonProjections(sc.q, d)
	qs := sc.q
	var tables [][]float64
	if !s.asym {
		tables = s.likelihoodTablesFor(1)
	}
	for f := 0; f < m; f++ {
		tc.frozen[f] = p.frozen(t, f)
		if tc.frozen[f] {
			tc.anyFrozen = true
			tc.gains[f] = math.NaN()
			continue
		}
		if w > maxFamilyBits {
			return fmt.Errorf("%w: |T|=1 × |CE|=%d", ErrTooLarge, w)
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		s.stats.evals.Add(1)
		q := qs[2*f : 2*f+2]
		var h float64
		if s.asym {
			h = condEntropyAsymCore(tc.entropy, q, s.pYes, 1, w)
		} else {
			h = condEntropySymCore(tc.entropy, q, tables, s.hPerQuery, 1, w)
		}
		tc.gains[f] = tc.entropy - h
	}
	tc.bestFact, tc.bestGain = gainRowBest(tc.gains)
	tc.dirty = false
	return nil
}

// refill re-evaluates task tc's unchosen candidates against the enlarged
// selection (conditional entropy nh) — exactly the textbook loop's
// recompute schedule after a pick — and refreshes the task's cached
// argmax. Every candidate's query set is sel plus one fact, so
// extendedProjections serves them all from one observation pass, bitwise
// the per-candidate projections. Frozen and chosen facts are filtered out
// before the pass, so its inner loop only shifts bits. Workers > 1 fans
// the core evaluations out after the serial projection pass; each
// goroutine writes only its fact's slot and the argmax reduction runs
// serially afterwards, so the result is identical to the serial sweep.
func (s *SelectionState) refill(ctx context.Context, tc *taskCache, d *belief.Dist, nh float64) error {
	m, w := d.NumFacts(), len(s.ce)
	sc := getScratch()
	defer putScratch(sc)
	cands := sc.facts[:0]
	for f := 0; f < m; f++ {
		tc.live[f] = math.NaN()
		if !tc.chosen[f] && !tc.frozen[f] {
			cands = append(cands, f)
		}
	}
	sc.facts = cands
	tc.liveBestFact, tc.liveBestGain = -1, math.Inf(-1)
	if len(cands) == 0 {
		return nil
	}
	sz := len(tc.sel) + 1
	if sz*w > maxFamilyBits {
		return fmt.Errorf("%w: |T|=%d × |CE|=%d", ErrTooLarge, sz, w)
	}
	var tables [][]float64
	if !s.asym {
		tables = s.likelihoodTablesFor(sz)
	}
	n := 1 << uint(sz)
	tc.qs = extendedProjections(tc.qs, d, tc.sel, cands)
	qs := tc.qs
	err := scanAll(ctx, len(cands), s.Workers, func(i int) error {
		s.stats.evals.Add(1)
		q := qs[i*n : (i+1)*n]
		var th float64
		if s.asym {
			th = condEntropyAsymCore(tc.entropy, q, s.pYes, sz, w)
		} else {
			th = condEntropySymCore(tc.entropy, q, tables, s.hPerQuery, sz, w)
		}
		tc.live[cands[i]] = nh - th
		return nil
	})
	if err != nil {
		return err
	}
	tc.liveBestFact, tc.liveBestGain = gainRowBest(tc.live)
	return nil
}

// Select implements Selector. See the type comment for the contract; the
// picks are identical to a cold state's (Greedy.Select's) on the same
// problem.
func (s *SelectionState) Select(ctx context.Context, p Problem, k int) ([]Candidate, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if k <= 0 {
		return nil, nil
	}
	// Clear the previous round's pick-loop scratch up front (not at the
	// end: an error-path abort must not leak touched rows into the next
	// call) and before sync, which may swap the task table wholesale.
	for _, t := range s.touchedList {
		if t < len(s.tasks) && s.tasks[t] != nil {
			s.tasks[t].resetRound()
		}
	}
	s.touchedList = s.touchedList[:0]
	s.sync(p)
	s.stats.selects.Add(1)

	// Parallel invalidation re-scan: only dirty tasks pay the O(m)
	// CondEntropy sweep.
	s.dirtyList = s.dirtyList[:0]
	for t, tc := range s.tasks {
		if tc.dirty {
			s.dirtyList = append(s.dirtyList, t)
		}
	}
	s.stats.rescans.Add(int64(len(s.dirtyList)))
	s.stats.reused.Add(int64(len(s.tasks) - len(s.dirtyList)))
	if len(s.dirtyList) > 0 {
		// Pre-warm the size-1 table so the workers only read shared state.
		if !s.asym {
			s.likelihoodTablesFor(1)
		}
		err := scanAll(ctx, len(s.dirtyList), s.Workers, func(i int) error {
			return s.rescan(ctx, p, s.dirtyList[i])
		})
		if err != nil {
			return nil, err
		}
	}

	sc := getScratch()
	defer putScratch(sc)
	var picks []Candidate
	for len(picks) < k {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		// Two-level argmax: per-task cached bests, scanned in task order
		// with a strict > — the textbook loop's tie-break order.
		bt, bf := -1, -1
		bg := math.Inf(-1)
		for t, tc := range s.tasks {
			f, g := tc.curBest()
			if f >= 0 && g > bg {
				bt, bf, bg = t, f, g
			}
		}
		if bt < 0 || bg <= gainEps {
			// Algorithm 2 line 4: no candidate improves the objective.
			break
		}
		tc, d := s.tasks[bt], p.Beliefs[bt]
		if !tc.touched {
			tc.touched = true
			s.touchedList = append(s.touchedList, bt)
			m := d.NumFacts()
			tc.chosen = growBools(tc.chosen, m)
			for f := range tc.chosen {
				tc.chosen[f] = false
			}
			tc.live = growFloats(tc.live, m)
		}
		picks = append(picks, Candidate{Task: bt, Fact: bf})
		tc.sel = append(tc.sel, bf)
		tc.chosen[bf] = true
		if len(picks) == k {
			// The round is complete: no further argmax reads the refreshed
			// row (the next Select rescans or starts from round-start gains),
			// so the final — and most expensive — refresh is skipped.
			break
		}
		// The enlarged selection's conditional entropy becomes the new gain
		// baseline for task bt; its remaining candidates re-evaluate against
		// it on exactly the textbook loop's recompute schedule.
		nh, err := s.condEntropy(sc, tc, d, tc.sel)
		if err != nil {
			return nil, err
		}
		if err := s.refill(ctx, tc, d, nh); err != nil {
			return nil, err
		}
	}
	sortCandidates(picks)
	return picks, nil
}
