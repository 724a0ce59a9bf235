package taskselect

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"sync"

	"hcrowd/internal/belief"
	"hcrowd/internal/crowd"
)

// Candidate identifies one checking query: fact Fact (local index) of task
// Task in a multi-task problem.
type Candidate struct {
	Task int
	Fact int
}

// Problem is a checking-task selection instance: the current belief of
// every task plus the expert crowd that will answer. Tasks are mutually
// independent (the observation distribution of the data set is the product
// over tasks), which is what lets the conditional entropy objective
// decompose additively across tasks.
type Problem struct {
	Beliefs []*belief.Dist
	Experts crowd.Crowd
	// Frozen optionally masks facts out of the candidate pool (for
	// example once the stopping rule of Abraham et al. [38] fires for a
	// fact); Frozen[t][f] == true removes fact f of task t. A nil outer
	// or inner slice freezes nothing.
	Frozen [][]bool
}

// frozen reports whether fact f of task t is masked out.
func (p Problem) frozen(t, f int) bool {
	return p.Frozen != nil && t < len(p.Frozen) && p.Frozen[t] != nil && f < len(p.Frozen[t]) && p.Frozen[t][f]
}

// Validate checks the problem is well formed.
func (p Problem) Validate() error {
	if len(p.Beliefs) == 0 {
		return errors.New("taskselect: problem has no tasks")
	}
	for i, d := range p.Beliefs {
		if d == nil {
			return fmt.Errorf("taskselect: task %d belief is nil", i)
		}
	}
	if len(p.Experts) == 0 {
		return ErrNoExperts
	}
	return p.Experts.Validate()
}

// NumFacts returns the total number of candidate facts across all tasks.
func (p Problem) NumFacts() int {
	n := 0
	for _, d := range p.Beliefs {
		n += d.NumFacts()
	}
	return n
}

// Objective evaluates the global objective Σ_t H(O_t | AS^{T_t}) for a
// query set grouped per task. Tasks with no selected fact contribute their
// unconditional entropy H(O_t).
func (p Problem) Objective(ctx context.Context, picks []Candidate) (float64, error) {
	perTask := make(map[int][]int)
	for _, c := range picks {
		if c.Task < 0 || c.Task >= len(p.Beliefs) {
			return 0, fmt.Errorf("taskselect: candidate task %d out of range", c.Task)
		}
		perTask[c.Task] = append(perTask[c.Task], c.Fact)
	}
	var total float64
	for t, d := range p.Beliefs {
		if err := ctx.Err(); err != nil {
			return 0, err
		}
		sel := perTask[t]
		if len(sel) == 0 {
			total += d.Entropy()
			continue
		}
		h, err := CondEntropy(d, p.Experts, sel)
		if err != nil {
			return 0, err
		}
		total += h
	}
	return total, nil
}

// Selector chooses up to k checking queries for the expert crowd. A
// selector may return fewer than k candidates when further queries cannot
// improve the expected quality (Algorithm 2 line 4) or when the problem
// has fewer than k facts.
type Selector interface {
	// Name identifies the selector in experiment output ("Approx", "OPT",
	// "Random", "MaxEntropy").
	Name() string
	Select(ctx context.Context, p Problem, k int) ([]Candidate, error)
}

// gainEps is the tolerance below which a marginal gain counts as zero; in
// exact arithmetic conditioning can never increase entropy, so only
// rounding noise lands below it.
const gainEps = 1e-12

// Greedy is the approximate selector of Algorithm 2: it adds the fact with
// the largest marginal quality gain gain^T(f) = H(O|AS^T) − H(O|AS^T∪{f})
// until k facts are selected or no fact improves the objective. Because
// tasks are independent, the marginal gain of a fact depends only on the
// facts already selected in the same task, so only the winning task's
// gains are recomputed after each pick. The greedy solution is within
// (1−1/e) of optimal by the submodularity of conditional entropy.
//
// Each Select runs a cold SelectionState: the same picks and the same
// evaluation schedule as the textbook loop, with H(O_t) computed once per
// task and each rescan or post-pick refill sharing one observation pass.
// Workers > 1 parallelises the initial per-task rescan and the post-pick
// refill of the winning task's gains.
type Greedy struct {
	Workers int
}

// Name implements Selector.
func (Greedy) Name() string { return "Approx" }

// Select implements Selector.
func (g Greedy) Select(ctx context.Context, p Problem, k int) ([]Candidate, error) {
	return NewSelectionState(g.Workers).Select(ctx, p, k)
}

// Exact is the OPT selector: brute-force enumeration of every size-k
// subset of facts, minimizing the global conditional entropy. Its cost is
// C(N, k) objective evaluations and it honors ctx cancellation so the
// efficiency experiment (Table III) can impose the paper's timeout.
//
// Each task's H(O_t) is computed once per call. A subset evaluates only
// the tasks it picks from; every other task adds its cached entropy, in
// ascending task order, so each subset's total is bitwise the one
// Problem.Objective returns.
type Exact struct{}

// Name implements Selector.
func (Exact) Name() string { return "OPT" }

// Select implements Selector.
func (Exact) Select(ctx context.Context, p Problem, k int) ([]Candidate, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if k <= 0 {
		return nil, nil
	}
	var all []Candidate
	for t, d := range p.Beliefs {
		for f := 0; f < d.NumFacts(); f++ {
			if p.frozen(t, f) {
				continue
			}
			all = append(all, Candidate{t, f})
		}
	}
	if k > len(all) {
		k = len(all)
	}
	if k == 0 {
		return nil, nil
	}
	hO := make([]float64, len(p.Beliefs))
	for t, d := range p.Beliefs {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		hO[t] = d.Entropy()
	}
	idx := make([]int, k)
	for i := range idx {
		idx[i] = i
	}
	bestH := math.Inf(1)
	best := make([]Candidate, k)
	subset := make([]Candidate, k)
	facts := make([]int, 0, k)
	for {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		for i, j := range idx {
			subset[i] = all[j]
		}
		// subset is in (task, fact) order, so each task's picks are one
		// run, in the order Objective would group them.
		var h float64
		rest := subset
		for t, d := range p.Beliefs {
			facts = facts[:0]
			for len(rest) > 0 && rest[0].Task == t {
				facts = append(facts, rest[0].Fact)
				rest = rest[1:]
			}
			ht, err := condEntropy(d, p.Experts, facts, hO[t])
			if err != nil {
				return nil, err
			}
			h += ht
		}
		if h < bestH {
			bestH = h
			copy(best, subset)
		}
		// Advance the combination (lexicographic).
		i := k - 1
		for i >= 0 && idx[i] == len(all)-k+i {
			i--
		}
		if i < 0 {
			break
		}
		idx[i]++
		for j := i + 1; j < k; j++ {
			idx[j] = idx[j-1] + 1
		}
	}
	sortCandidates(best)
	return best, nil
}

// Random selects k distinct facts uniformly at random; it is the paper's
// "Random" baseline for Figure 5.
type Random struct {
	Rng *rand.Rand
}

// Name implements Selector.
func (Random) Name() string { return "Random" }

// Select implements Selector.
func (r Random) Select(ctx context.Context, p Problem, k int) ([]Candidate, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if r.Rng == nil {
		return nil, errors.New("taskselect: Random selector needs an Rng")
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	var all []Candidate
	for t, d := range p.Beliefs {
		for f := 0; f < d.NumFacts(); f++ {
			if p.frozen(t, f) {
				continue
			}
			all = append(all, Candidate{t, f})
		}
	}
	r.Rng.Shuffle(len(all), func(i, j int) { all[i], all[j] = all[j], all[i] })
	if k > len(all) {
		k = len(all)
	}
	picks := append([]Candidate{}, all[:k]...)
	sortCandidates(picks)
	return picks, nil
}

// MaxEntropy selects the k facts with the largest marginal Bernoulli
// entropy. It is the trivial optimal policy for the special case of one
// query per round answered by a single worker (the related-work [41]
// setting the paper discusses) and serves as a cheap heuristic baseline.
type MaxEntropy struct{}

// Name implements Selector.
func (MaxEntropy) Name() string { return "MaxEntropy" }

// Select implements Selector.
func (MaxEntropy) Select(ctx context.Context, p Problem, k int) ([]Candidate, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	type scored struct {
		c Candidate
		h float64
	}
	var all []scored
	for t, d := range p.Beliefs {
		for f := 0; f < d.NumFacts(); f++ {
			if p.frozen(t, f) {
				continue
			}
			all = append(all, scored{Candidate{t, f}, d.FactEntropy(f)})
		}
	}
	sort.Slice(all, func(i, j int) bool {
		//hclint:ignore float-eq exact != in a comparator tie-break keeps the sort a strict weak order; entropies are compared, never tested for closeness
		if all[i].h != all[j].h {
			return all[i].h > all[j].h
		}
		if all[i].c.Task != all[j].c.Task {
			return all[i].c.Task < all[j].c.Task
		}
		return all[i].c.Fact < all[j].c.Fact
	})
	if k > len(all) {
		k = len(all)
	}
	picks := make([]Candidate, 0, k)
	for _, s := range all[:k] {
		picks = append(picks, s.c)
	}
	sortCandidates(picks)
	return picks, nil
}

// sortCandidates orders picks by (Task, Fact). slices.SortFunc rather
// than sort.Slice: the latter builds a reflect-based swapper, one heap
// allocation per call on the selection hot path.
func sortCandidates(cs []Candidate) {
	slices.SortFunc(cs, func(a, b Candidate) int {
		if a.Task != b.Task {
			return a.Task - b.Task
		}
		return a.Fact - b.Fact
	})
}

// scanAll runs fn(t) for every task index, optionally across workers
// goroutines. The per-task closures write to disjoint slice slots, so no
// locking is needed beyond the error channel.
func scanAll(ctx context.Context, n, workers int, fn func(int) error) error {
	if workers <= 1 || n < 2 {
		for t := 0; t < n; t++ {
			if err := fn(t); err != nil {
				return err
			}
		}
		return nil
	}
	if workers > n {
		workers = n
	}
	tasks := make(chan int)
	errs := make(chan error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for t := range tasks {
				if err := fn(t); err != nil {
					select {
					case errs <- err:
					default:
					}
					return
				}
			}
		}()
	}
	for t := 0; t < n; t++ {
		if err := ctx.Err(); err != nil {
			break
		}
		select {
		case tasks <- t:
		case err := <-errs:
			close(tasks)
			wg.Wait()
			return err
		}
	}
	close(tasks)
	wg.Wait()
	select {
	case err := <-errs:
		return err
	default:
	}
	return ctx.Err()
}
