// Package belief implements the paper's data model (§II-A): facts,
// observations, joint belief distributions over the 2^m truth-value
// interpretations of a task's facts, the data quality function
// Q(F) = -H(O) (Definition 2), and the Bayesian belief update from
// crowdsourced answers (Lemma 3).
//
// Within a task the m facts carry local indices 0..m-1. An observation is
// encoded as an integer in [0, 2^m) whose i-th bit gives the truth value
// of fact i; o_1..o_8 in the paper's Table I correspond to codes 0..7 with
// f_1 as bit 0.
package belief

import (
	"errors"
	"fmt"
	"math"

	"hcrowd/internal/crowd"
	"hcrowd/internal/mathx"
)

// MaxFacts caps the number of facts a single joint distribution may hold;
// 2^25 float64s is 256 MiB, past any workload in the paper (which uses
// 5-fact tasks and >20-fact efficiency stress tests).
const MaxFacts = 25

// Dist is a belief state: a probability distribution over the 2^m
// observations of an m-fact task. The zero value is not usable; construct
// with New, FromJoint or FromMarginals.
type Dist struct {
	m int
	p []float64
	// scratch is the posterior buffer Update writes before committing; it
	// swaps with p on success so steady-state updates allocate nothing.
	scratch []float64
}

// New returns the uniform belief over m facts: every observation equally
// likely (the "NO HC" initialization of §IV-C.5).
func New(m int) (*Dist, error) {
	if m < 1 || m > MaxFacts {
		return nil, fmt.Errorf("belief: fact count %d outside [1, %d]", m, MaxFacts)
	}
	p := make([]float64, 1<<uint(m))
	mathx.Fill(p, 1/float64(len(p)))
	return &Dist{m: m, p: p}, nil
}

// FromJoint builds a belief from an explicit joint distribution whose
// length must be a power of two (2^m). The vector is copied and
// normalized; it must be non-negative with a positive finite sum.
func FromJoint(p []float64) (*Dist, error) {
	n := len(p)
	if n < 2 || n&(n-1) != 0 {
		return nil, fmt.Errorf("belief: joint length %d is not a power of two >= 2", n)
	}
	m := 0
	for 1<<uint(m) < n {
		m++
	}
	if m > MaxFacts {
		return nil, fmt.Errorf("belief: %d facts exceeds MaxFacts", m)
	}
	var sum float64
	for _, v := range p {
		if v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, errors.New("belief: joint contains negative, NaN or Inf mass")
		}
		sum += v
	}
	if sum <= 0 {
		return nil, errors.New("belief: joint has zero total mass")
	}
	cp := mathx.Clone(p)
	mathx.Normalize(cp)
	return &Dist{m: m, p: cp}, nil
}

// FromMarginals builds the independent-product belief of Equation 15:
// P(o) = prod_f ob(o, f), where pTrue[f] is the vote share (or any
// per-fact posterior) for fact f being true. Values are clamped into
// [eps, 1-eps] so no observation starts with exactly zero mass, which
// would make it unrecoverable by Bayesian updates.
func FromMarginals(pTrue []float64) (*Dist, error) {
	m := len(pTrue)
	if m < 1 || m > MaxFacts {
		return nil, fmt.Errorf("belief: fact count %d outside [1, %d]", m, MaxFacts)
	}
	const eps = 1e-6
	var qBuf [MaxFacts]float64
	q := qBuf[:m]
	for i, v := range pTrue {
		if math.IsNaN(v) || v < 0 || v > 1 {
			return nil, fmt.Errorf("belief: marginal %d = %v outside [0, 1]", i, v)
		}
		q[i] = mathx.Clamp(v, eps, 1-eps)
	}
	p := make([]float64, 1<<uint(m))
	for o := range p {
		prob := 1.0
		for f := 0; f < m; f++ {
			if Models(o, f) {
				prob *= q[f]
			} else {
				prob *= 1 - q[f]
			}
		}
		p[o] = prob
	}
	mathx.Normalize(p)
	return &Dist{m: m, p: p}, nil
}

// Models reports whether observation o is a positive model of fact f
// (o ⊨ f in the paper): bit f of o is set.
func Models(o, f int) bool { return o&(1<<uint(f)) != 0 }

// WithFact returns the observation equal to o except that fact f is set to
// v.
func WithFact(o, f int, v bool) int {
	if v {
		return o | 1<<uint(f)
	}
	return o &^ (1 << uint(f))
}

// NumFacts returns m, the number of facts in the task.
func (d *Dist) NumFacts() int { return d.m }

// NumObservations returns 2^m.
func (d *Dist) NumObservations() int { return len(d.p) }

// P returns the current probability of observation o.
func (d *Dist) P(o int) float64 { return d.p[o] }

// Probs returns a copy of the full joint distribution.
func (d *Dist) Probs() []float64 { return mathx.Clone(d.p) }

// Clone returns an independent copy of the belief.
func (d *Dist) Clone() *Dist {
	return &Dist{m: d.m, p: mathx.Clone(d.p)}
}

// Entropy returns H(O) in nats.
func (d *Dist) Entropy() float64 { return mathx.Entropy(d.p) }

// Quality returns the data quality Q(F) = -H(O) of Definition 2.
func (d *Dist) Quality() float64 { return mathx.NegEntropy(d.p) }

// Marginal returns P(f): the total mass of observations modeling fact f
// (Equation 2).
func (d *Dist) Marginal(f int) float64 {
	if f < 0 || f >= d.m {
		panic(fmt.Sprintf("belief: Marginal fact %d out of range [0,%d)", f, d.m))
	}
	var s float64
	bit := 1 << uint(f)
	for o, v := range d.p {
		if o&bit != 0 {
			s += v
		}
	}
	return s
}

// Marginals returns P(f) for every fact.
func (d *Dist) Marginals() []float64 {
	out := make([]float64, d.m)
	for f := range out {
		out[f] = d.Marginal(f)
	}
	return out
}

// MAP returns the maximum a-posteriori observation o* = argmax P(o), ties
// broken toward the lowest code.
func (d *Dist) MAP() int { return mathx.ArgMax(d.p) }

// Labels finalizes discrete labels from the belief per Equation 20:
// label(f) = truth value of f in the MAP observation.
func (d *Dist) Labels() []bool {
	o := d.MAP()
	out := make([]bool, d.m)
	for f := range out {
		out[f] = Models(o, f)
	}
	return out
}

// FactEntropy returns the entropy of the marginal Bernoulli distribution
// of fact f; the max-entropy selector of [41]'s special case uses it.
func (d *Dist) FactEntropy(f int) float64 {
	return mathx.BernoulliEntropy(d.Marginal(f))
}

// validateLocalFacts checks every queried fact index is within this task.
func (d *Dist) validateLocalFacts(facts []int) error {
	for _, f := range facts {
		if f < 0 || f >= d.m {
			return fmt.Errorf("belief: fact %d outside task with %d facts", f, d.m)
		}
	}
	return nil
}

// AnswerSetLikelihood computes P(A_cr^T | o) of Lemma 1 (Equation 6):
// the worker's accuracy raised to the size of the consistent set times
// the error rate raised to the size of the inconsistent set. For
// confusion-model workers the per-fact correctness probability is
// class-conditional (TPR when o ⊨ f, TNR otherwise).
func AnswerSetLikelihood(o int, as crowd.AnswerSet) float64 {
	like := 1.0
	for i, f := range as.Facts {
		tv := Models(o, f)
		pc := as.Worker.PCorrect(tv)
		if tv == as.Values[i] {
			like *= pc
		} else {
			like *= 1 - pc
		}
	}
	return like
}

// AnswerSetProb computes P(A_cr^T) of Lemma 1 (Equation 8): the marginal
// probability of receiving this answer set under the current belief.
func (d *Dist) AnswerSetProb(as crowd.AnswerSet) (float64, error) {
	if err := d.validateLocalFacts(as.Facts); err != nil {
		return 0, err
	}
	var s float64
	for o, po := range d.p {
		if po == 0 {
			continue
		}
		s += po * AnswerSetLikelihood(o, as)
	}
	return s, nil
}

// FamilyLikelihood computes P(A_C^T | o) = prod_cr P(A_cr^T | o): workers
// answer independently given the ground truth (§II-A).
func FamilyLikelihood(o int, fam crowd.AnswerFamily) float64 {
	like := 1.0
	for _, as := range fam {
		like *= AnswerSetLikelihood(o, as)
	}
	return like
}

// AnswerFamilyProb computes P(A_C^T) of Lemma 2 (Equation 11).
func (d *Dist) AnswerFamilyProb(fam crowd.AnswerFamily) (float64, error) {
	for _, as := range fam {
		if err := d.validateLocalFacts(as.Facts); err != nil {
			return 0, err
		}
	}
	var s float64
	for o, po := range d.p {
		if po == 0 {
			continue
		}
		s += po * FamilyLikelihood(o, fam)
	}
	return s, nil
}

// Update applies the Bayesian belief update of Lemma 3 (Equations 19/23)
// in place: P(o | A) ∝ P(o) · prod_cr P(A_cr^T | o). It returns an error
// if the answers reference facts outside the task or if the evidence has
// zero probability under the current belief (which can only happen when
// the belief already excludes every observation consistent with the
// answers).
func (d *Dist) Update(fam crowd.AnswerFamily) error {
	if err := fam.Validate(); err != nil {
		return err
	}
	for _, as := range fam {
		if err := d.validateLocalFacts(as.Facts); err != nil {
			return err
		}
	}
	// Hoist the per-answer likelihood factors out of the 2^m observation
	// loop: each answer contributes one of exactly two values depending
	// only on its fact's truth bit, so PCorrect runs once per answer here
	// instead of once per (answer, observation). The per-answer-set
	// subproducts keep FamilyLikelihood's association, so the posterior is
	// bitwise the one the direct evaluation produces.
	var facStack [24][2]float64
	var factStack [24]int
	var lenStack [8]int
	nUnits := 0
	for _, as := range fam {
		nUnits += len(as.Facts)
	}
	facs, facts, lens := facStack[:0], factStack[:0], lenStack[:0]
	if nUnits > len(facStack) {
		facs = make([][2]float64, 0, nUnits)
		facts = make([]int, 0, nUnits)
	}
	if len(fam) > len(lenStack) {
		lens = make([]int, 0, len(fam))
	}
	for _, as := range fam {
		pcT := as.Worker.PCorrect(true)
		pcF := as.Worker.PCorrect(false)
		for j, f := range as.Facts {
			var fac [2]float64
			if as.Values[j] {
				fac[1], fac[0] = pcT, 1-pcF
			} else {
				fac[1], fac[0] = 1-pcT, pcF
			}
			facs = append(facs, fac)
			facts = append(facts, f)
		}
		lens = append(lens, len(as.Facts))
	}
	post := d.scratch
	if cap(post) < len(d.p) {
		post = make([]float64, len(d.p))
	} else {
		post = post[:len(d.p)]
	}
	var sum float64
	for o, po := range d.p {
		if po == 0 {
			post[o] = 0
			continue
		}
		like := 1.0
		u := 0
		for _, n := range lens {
			sub := 1.0
			for j := 0; j < n; j++ {
				sub *= facs[u][(o>>uint(facts[u]))&1]
				u++
			}
			like *= sub
		}
		v := po * like
		post[o] = v
		sum += v
	}
	if sum <= 0 {
		return errors.New("belief: answers have zero probability under current belief")
	}
	inv := 1 / sum
	for o := range post {
		post[o] *= inv
	}
	// Commit by swapping: the outgoing distribution becomes the next
	// call's posterior buffer. On the error path above d.p is untouched.
	d.scratch = d.p
	d.p = post
	return nil
}

// Accuracy returns the fraction of facts whose MAP label matches truth; it
// is the per-task accuracy metric of the evaluation.
func (d *Dist) Accuracy(truth []bool) (float64, error) {
	if len(truth) != d.m {
		return 0, fmt.Errorf("belief: truth has %d facts, task has %d", len(truth), d.m)
	}
	labels := d.Labels()
	correct := 0
	for f, l := range labels {
		if l == truth[f] {
			correct++
		}
	}
	return float64(correct) / float64(d.m), nil
}

// ConditionalMarginal returns P(f | g = val): the marginal of fact f
// after conditioning the belief on a hypothetical truth value for fact g.
// It quantifies how evidence would propagate through the task's
// correlations without mutating the belief; downstream tools use it to
// preview the impact of a checking answer.
func (d *Dist) ConditionalMarginal(f, g int, val bool) (float64, error) {
	if f < 0 || f >= d.m || g < 0 || g >= d.m {
		return 0, fmt.Errorf("belief: facts (%d, %d) outside task with %d facts", f, g, d.m)
	}
	var joint, mass float64
	for o, p := range d.p {
		if Models(o, g) != val {
			continue
		}
		mass += p
		if Models(o, f) {
			joint += p
		}
	}
	if mass == 0 {
		return 0, fmt.Errorf("belief: conditioning event f%d=%v has zero probability", g, val)
	}
	return joint / mass, nil
}
