package belief

import (
	"math"
	"testing"
	"testing/quick"

	"hcrowd/internal/crowd"
	"hcrowd/internal/mathx"
	"hcrowd/internal/rngutil"
)

// tableI is the worked example of the paper's Table I: three facts with
// observation codes (f1 = bit 0, f2 = bit 1, f3 = bit 2)
// o1=000, o2=001, o3=010, o4=011, o5=100, o6=101, o7=110, o8=111.
var tableI = []float64{0.09, 0.11, 0.10, 0.20, 0.08, 0.09, 0.15, 0.18}

func tableIDist(t *testing.T) *Dist {
	t.Helper()
	d, err := FromJoint(tableI)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func almostEqual(a, b, eps float64) bool {
	return math.Abs(a-b) <= eps*(1+math.Abs(a)+math.Abs(b))
}

func TestTableIMarginals(t *testing.T) {
	d := tableIDist(t)
	// Equation 4 of the paper.
	want := []float64{0.58, 0.63, 0.50}
	for f, w := range want {
		if got := d.Marginal(f); !almostEqual(got, w, 1e-12) {
			t.Errorf("P(f%d) = %v, want %v", f+1, got, w)
		}
	}
	ms := d.Marginals()
	for f := range want {
		if !almostEqual(ms[f], want[f], 1e-12) {
			t.Errorf("Marginals()[%d] = %v, want %v", f, ms[f], want[f])
		}
	}
}

func TestTableINotIndependent(t *testing.T) {
	// The paper stresses Equation 3 fails here: prod P(¬f_i) != P(o1).
	d := tableIDist(t)
	prod := (1 - d.Marginal(0)) * (1 - d.Marginal(1)) * (1 - d.Marginal(2))
	if almostEqual(prod, d.P(0), 1e-6) {
		t.Errorf("facts look independent; prod=%v P(o1)=%v", prod, d.P(0))
	}
}

func TestTableIMAP(t *testing.T) {
	d := tableIDist(t)
	if got := d.MAP(); got != 3 { // o4 = f1,f2 true, f3 false: 0.20
		t.Errorf("MAP = %d, want 3 (o4)", got)
	}
	labels := d.Labels()
	if !labels[0] || !labels[1] || labels[2] {
		t.Errorf("Labels = %v, want [true true false]", labels)
	}
}

func TestNewUniform(t *testing.T) {
	d, err := New(3)
	if err != nil {
		t.Fatal(err)
	}
	if d.NumFacts() != 3 || d.NumObservations() != 8 {
		t.Fatalf("dims: %d facts, %d obs", d.NumFacts(), d.NumObservations())
	}
	if !almostEqual(d.Entropy(), 3*math.Log(2), 1e-12) {
		t.Errorf("uniform entropy = %v, want 3 ln 2", d.Entropy())
	}
	for f := 0; f < 3; f++ {
		if !almostEqual(d.Marginal(f), 0.5, 1e-12) {
			t.Errorf("uniform marginal = %v", d.Marginal(f))
		}
	}
}

func TestNewBounds(t *testing.T) {
	if _, err := New(0); err == nil {
		t.Error("New(0) accepted")
	}
	if _, err := New(MaxFacts + 1); err == nil {
		t.Error("New over MaxFacts accepted")
	}
	if _, err := New(MaxFacts); err != nil {
		t.Skip("MaxFacts allocation refused (memory)")
	}
}

func TestFromJointRejectsBadInput(t *testing.T) {
	cases := [][]float64{
		nil,
		{1},                    // not >= 2
		{0.2, 0.3, 0.5},        // not power of two
		{0.5, -0.5, 0.5, 0.5},  // negative
		{math.NaN(), 0, 0, 1},  // NaN
		{math.Inf(1), 0, 0, 0}, // Inf
		{0, 0, 0, 0},           // zero mass
	}
	for _, c := range cases {
		if _, err := FromJoint(c); err == nil {
			t.Errorf("FromJoint(%v) accepted", c)
		}
	}
}

func TestFromJointNormalizes(t *testing.T) {
	d, err := FromJoint([]float64{1, 1, 2, 4})
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(d.P(3), 0.5, 1e-12) {
		t.Errorf("P(3) = %v, want 0.5", d.P(3))
	}
	if !almostEqual(mathx.Sum(d.Probs()), 1, 1e-12) {
		t.Error("not normalized")
	}
}

func TestFromMarginalsProduct(t *testing.T) {
	d, err := FromMarginals([]float64{0.9, 0.5})
	if err != nil {
		t.Fatal(err)
	}
	// P(o with f0 true, f1 false) = 0.9 * 0.5.
	if !almostEqual(d.P(1), 0.45, 1e-9) {
		t.Errorf("P(01) = %v, want 0.45", d.P(1))
	}
	if !almostEqual(d.Marginal(0), 0.9, 1e-5) {
		t.Errorf("marginal = %v, want ~0.9", d.Marginal(0))
	}
}

func TestFromMarginalsClampsExtremes(t *testing.T) {
	d, err := FromMarginals([]float64{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	// Zero marginal is clamped so every observation keeps positive mass.
	for o := 0; o < d.NumObservations(); o++ {
		if d.P(o) <= 0 {
			t.Errorf("P(%d) = %v, want > 0", o, d.P(o))
		}
	}
	if _, err := FromMarginals([]float64{1.2}); err == nil {
		t.Error("marginal > 1 accepted")
	}
	if _, err := FromMarginals([]float64{math.NaN()}); err == nil {
		t.Error("NaN marginal accepted")
	}
}

func TestModelsAndWithFact(t *testing.T) {
	o := 0b101
	if !Models(o, 0) || Models(o, 1) || !Models(o, 2) {
		t.Errorf("Models wrong for %b", o)
	}
	if got := WithFact(o, 1, true); got != 0b111 {
		t.Errorf("WithFact set = %b", got)
	}
	if got := WithFact(o, 0, false); got != 0b100 {
		t.Errorf("WithFact clear = %b", got)
	}
	if got := WithFact(o, 2, true); got != o {
		t.Errorf("WithFact idempotent set = %b", got)
	}
}

func TestAnswerSetLikelihoodLemma1(t *testing.T) {
	// Worker accuracy 0.9 answering two facts; observation agrees on one.
	w := crowd.Worker{ID: "e", Accuracy: 0.9}
	as := crowd.AnswerSet{Worker: w, Facts: []int{0, 1}, Values: []bool{true, true}}
	o := 0b01 // f0 true (agree), f1 false (disagree)
	want := 0.9 * 0.1
	if got := AnswerSetLikelihood(o, as); !almostEqual(got, want, 1e-12) {
		t.Errorf("likelihood = %v, want %v", got, want)
	}
	// Full agreement and full disagreement.
	if got := AnswerSetLikelihood(0b11, as); !almostEqual(got, 0.81, 1e-12) {
		t.Errorf("likelihood agree = %v", got)
	}
	if got := AnswerSetLikelihood(0b00, as); !almostEqual(got, 0.01, 1e-12) {
		t.Errorf("likelihood disagree = %v", got)
	}
}

func TestAnswerSetProbSingleFactEq10(t *testing.T) {
	// Equation 10: for a single fact, P('Yes') = P(f)·Pr + (1-P(f))·(1-Pr).
	d := tableIDist(t)
	w := crowd.Worker{ID: "e", Accuracy: 0.9}
	as := crowd.AnswerSet{Worker: w, Facts: []int{0}, Values: []bool{true}}
	pf := d.Marginal(0)
	want := pf*0.9 + (1-pf)*0.1
	got, err := d.AnswerSetProb(as)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(got, want, 1e-12) {
		t.Errorf("P(A) = %v, want %v", got, want)
	}
}

func TestAnswerSetProbIsDistribution(t *testing.T) {
	// Sum over all 2^|T| possible answer sets must be 1.
	d := tableIDist(t)
	w := crowd.Worker{ID: "e", Accuracy: 0.93}
	facts := []int{0, 2}
	var total float64
	for bits := 0; bits < 4; bits++ {
		as := crowd.AnswerSet{
			Worker: w,
			Facts:  facts,
			Values: []bool{bits&1 != 0, bits&2 != 0},
		}
		p, err := d.AnswerSetProb(as)
		if err != nil {
			t.Fatal(err)
		}
		total += p
	}
	if !almostEqual(total, 1, 1e-12) {
		t.Errorf("answer-set probabilities sum to %v", total)
	}
}

func TestAnswerFamilyProbIsDistribution(t *testing.T) {
	// Lemma 2: summing P(A_C^T) over every possible family gives 1.
	d := tableIDist(t)
	ce := crowd.Crowd{{ID: "e0", Accuracy: 0.9}, {ID: "e1", Accuracy: 0.95}}
	facts := []int{1}
	var total float64
	for bits := 0; bits < 4; bits++ {
		fam := crowd.AnswerFamily{
			{Worker: ce[0], Facts: facts, Values: []bool{bits&1 != 0}},
			{Worker: ce[1], Facts: facts, Values: []bool{bits&2 != 0}},
		}
		p, err := d.AnswerFamilyProb(fam)
		if err != nil {
			t.Fatal(err)
		}
		total += p
	}
	if !almostEqual(total, 1, 1e-12) {
		t.Errorf("family probabilities sum to %v", total)
	}
}

func TestUpdateBayesByHand(t *testing.T) {
	// Two facts, uniform prior, one expert (0.8) answers f0 = Yes.
	d, _ := New(2)
	w := crowd.Worker{ID: "e", Accuracy: 0.8}
	fam := crowd.AnswerFamily{{Worker: w, Facts: []int{0}, Values: []bool{true}}}
	if err := d.Update(fam); err != nil {
		t.Fatal(err)
	}
	// P(o | A): observations with f0 true get 0.8, others 0.2 (normalized).
	for o := 0; o < 4; o++ {
		want := 0.1
		if Models(o, 0) {
			want = 0.4
		}
		if !almostEqual(d.P(o), want, 1e-12) {
			t.Errorf("P(%b) = %v, want %v", o, d.P(o), want)
		}
	}
	if !almostEqual(d.Marginal(0), 0.8, 1e-12) {
		t.Errorf("posterior marginal = %v, want 0.8", d.Marginal(0))
	}
}

func TestUpdateOracleCollapses(t *testing.T) {
	d := tableIDist(t)
	oracle := crowd.Worker{ID: "o", Accuracy: 1.0}
	fam := crowd.AnswerFamily{{
		Worker: oracle,
		Facts:  []int{0, 1, 2},
		Values: []bool{true, true, false}, // observation o4 = code 3
	}}
	if err := d.Update(fam); err != nil {
		t.Fatal(err)
	}
	if !almostEqual(d.P(3), 1, 1e-12) {
		t.Errorf("P(o4) = %v, want 1", d.P(3))
	}
	if d.Entropy() > 1e-12 {
		t.Errorf("entropy after oracle = %v, want 0", d.Entropy())
	}
}

func TestUpdateZeroEvidence(t *testing.T) {
	// Point-mass belief contradicted by an oracle answer: zero-probability
	// evidence must be reported, not silently renormalized.
	d, err := FromJoint([]float64{0, 1}) // f0 certainly true
	if err != nil {
		t.Fatal(err)
	}
	oracle := crowd.Worker{ID: "o", Accuracy: 1.0}
	fam := crowd.AnswerFamily{{Worker: oracle, Facts: []int{0}, Values: []bool{false}}}
	if err := d.Update(fam); err == nil {
		t.Error("zero-probability evidence accepted")
	}
}

func TestUpdateValidatesFacts(t *testing.T) {
	d, _ := New(2)
	w := crowd.Worker{ID: "e", Accuracy: 0.9}
	fam := crowd.AnswerFamily{{Worker: w, Facts: []int{5}, Values: []bool{true}}}
	if err := d.Update(fam); err == nil {
		t.Error("out-of-range fact accepted")
	}
}

func TestUpdateNeutralWorkerIsNoOp(t *testing.T) {
	// A 0.5-accuracy worker carries no information; belief must not move.
	d := tableIDist(t)
	before := d.Probs()
	w := crowd.Worker{ID: "n", Accuracy: 0.5}
	fam := crowd.AnswerFamily{{Worker: w, Facts: []int{0, 1}, Values: []bool{true, false}}}
	if err := d.Update(fam); err != nil {
		t.Fatal(err)
	}
	if mathx.MaxAbsDiff(before, d.Probs()) > 1e-12 {
		t.Error("neutral worker changed the belief")
	}
}

func TestUpdateCommutesWithSplitFamily(t *testing.T) {
	// Updating with a two-worker family equals sequential updates with each
	// worker (independence given o).
	rng := rngutil.New(11)
	f := func(seed int64) bool {
		r := rngutil.New(seed)
		raw := make([]float64, 8)
		for i := range raw {
			raw[i] = r.Float64() + 1e-3
		}
		d1, err := FromJoint(raw)
		if err != nil {
			return false
		}
		d2 := d1.Clone()
		w1 := crowd.Worker{ID: "a", Accuracy: 0.6 + 0.39*r.Float64()}
		w2 := crowd.Worker{ID: "b", Accuracy: 0.6 + 0.39*r.Float64()}
		facts := []int{0, 2}
		v1 := []bool{r.Intn(2) == 0, r.Intn(2) == 0}
		v2 := []bool{r.Intn(2) == 0, r.Intn(2) == 0}
		famBoth := crowd.AnswerFamily{
			{Worker: w1, Facts: facts, Values: v1},
			{Worker: w2, Facts: facts, Values: v2},
		}
		if err := d1.Update(famBoth); err != nil {
			return false
		}
		if err := d2.Update(crowd.AnswerFamily{{Worker: w1, Facts: facts, Values: v1}}); err != nil {
			return false
		}
		if err := d2.Update(crowd.AnswerFamily{{Worker: w2, Facts: facts, Values: v2}}); err != nil {
			return false
		}
		return mathx.MaxAbsDiff(d1.Probs(), d2.Probs()) < 1e-10
	}
	for i := 0; i < 50; i++ {
		if !f(rng.Int63()) {
			t.Fatalf("sequential and joint updates differ (case %d)", i)
		}
	}
}

func TestUpdatePreservesNormalization(t *testing.T) {
	q := func(seed int64) bool {
		r := rngutil.New(seed)
		raw := make([]float64, 16)
		for i := range raw {
			raw[i] = r.Float64()
		}
		d, err := FromJoint(raw)
		if err != nil {
			return true // zero-mass draw; FromJoint correctly rejected
		}
		w := crowd.Worker{ID: "e", Accuracy: 0.51 + 0.49*r.Float64()}
		fam := crowd.AnswerFamily{{
			Worker: w,
			Facts:  []int{r.Intn(4)},
			Values: []bool{r.Intn(2) == 0},
		}}
		if err := d.Update(fam); err != nil {
			return false
		}
		return almostEqual(mathx.Sum(d.Probs()), 1, 1e-9)
	}
	if err := quick.Check(q, nil); err != nil {
		t.Error(err)
	}
}

func TestAccuracy(t *testing.T) {
	d := tableIDist(t) // MAP labels: [true true false]
	acc, err := d.Accuracy([]bool{true, true, false})
	if err != nil {
		t.Fatal(err)
	}
	if acc != 1 {
		t.Errorf("accuracy = %v, want 1", acc)
	}
	acc, _ = d.Accuracy([]bool{false, true, false})
	if !almostEqual(acc, 2.0/3.0, 1e-12) {
		t.Errorf("accuracy = %v, want 2/3", acc)
	}
	if _, err := d.Accuracy([]bool{true}); err == nil {
		t.Error("truth length mismatch accepted")
	}
}

func TestCloneIndependence(t *testing.T) {
	d := tableIDist(t)
	c := d.Clone()
	w := crowd.Worker{ID: "e", Accuracy: 0.99}
	_ = c.Update(crowd.AnswerFamily{{Worker: w, Facts: []int{0}, Values: []bool{true}}})
	if mathx.MaxAbsDiff(d.Probs(), tableI) > 1e-12 {
		t.Error("updating a clone mutated the original")
	}
}

func TestFactEntropy(t *testing.T) {
	d, _ := New(2) // marginals 0.5
	if got := d.FactEntropy(0); !almostEqual(got, math.Log(2), 1e-12) {
		t.Errorf("FactEntropy = %v, want ln 2", got)
	}
}

func TestMarginalPanicsOutOfRange(t *testing.T) {
	d, _ := New(2)
	defer func() {
		if recover() == nil {
			t.Error("Marginal(5) did not panic")
		}
	}()
	d.Marginal(5)
}

func TestAsymmetricAnswerSetLikelihood(t *testing.T) {
	// Confusion worker: TPR 0.9, TNR 0.6, answering two facts.
	w := crowd.Worker{ID: "a", TPR: 0.9, TNR: 0.6}
	as := crowd.AnswerSet{Worker: w, Facts: []int{0, 1}, Values: []bool{true, true}}
	// o = 0b01: f0 true (answer yes: correct, 0.9), f1 false (answer yes:
	// wrong, 1-TNR = 0.4).
	want := 0.9 * 0.4
	if got := AnswerSetLikelihood(0b01, as); !almostEqual(got, want, 1e-12) {
		t.Errorf("asym likelihood = %v, want %v", got, want)
	}
	// o = 0b10: f0 false (yes: wrong, 0.4), f1 true (yes: correct, 0.9).
	if got := AnswerSetLikelihood(0b10, as); !almostEqual(got, 0.4*0.9, 1e-12) {
		t.Errorf("asym likelihood = %v", got)
	}
}

func TestAsymmetricUpdate(t *testing.T) {
	// A worker who rarely answers Yes incorrectly (high TNR) makes a Yes
	// answer strong evidence; a symmetric worker of equal mean makes it
	// weaker.
	dAsym, _ := New(1)
	dSym, _ := New(1)
	yes := func(w crowd.Worker) crowd.AnswerFamily {
		return crowd.AnswerFamily{{Worker: w, Facts: []int{0}, Values: []bool{true}}}
	}
	if err := dAsym.Update(yes(crowd.Worker{ID: "a", TPR: 0.7, TNR: 0.99})); err != nil {
		t.Fatal(err)
	}
	if err := dSym.Update(yes(crowd.Worker{ID: "s", Accuracy: 0.845})); err != nil {
		t.Fatal(err)
	}
	// Posterior for the asym worker: 0.5*0.7 / (0.5*0.7 + 0.5*0.01) ≈ 0.986.
	want := 0.35 / (0.35 + 0.005)
	if got := dAsym.Marginal(0); !almostEqual(got, want, 1e-9) {
		t.Errorf("asym posterior = %v, want %v", got, want)
	}
	if dAsym.Marginal(0) <= dSym.Marginal(0) {
		t.Errorf("high-TNR Yes (%v) not stronger than symmetric Yes (%v)",
			dAsym.Marginal(0), dSym.Marginal(0))
	}
}

func TestConditionalMarginal(t *testing.T) {
	d := tableIDist(t)
	// P(f1 | f2=true) = (P(o4)+P(o8)) / P(f2) = 0.38/0.63.
	got, err := d.ConditionalMarginal(0, 1, true)
	if err != nil {
		t.Fatal(err)
	}
	want := (0.20 + 0.18) / 0.63
	if !almostEqual(got, want, 1e-12) {
		t.Errorf("P(f1|f2) = %v, want %v", got, want)
	}
	// Conditioning on itself is deterministic.
	if v, _ := d.ConditionalMarginal(2, 2, true); v != 1 {
		t.Errorf("P(f3|f3=true) = %v", v)
	}
	if v, _ := d.ConditionalMarginal(2, 2, false); v != 0 {
		t.Errorf("P(f3|f3=false) = %v", v)
	}
	// Law of total probability: P(f) = P(f|g)P(g) + P(f|¬g)P(¬g).
	pt, _ := d.ConditionalMarginal(0, 2, true)
	pf, _ := d.ConditionalMarginal(0, 2, false)
	pg := d.Marginal(2)
	if !almostEqual(pt*pg+pf*(1-pg), d.Marginal(0), 1e-12) {
		t.Error("total probability law violated")
	}
	if _, err := d.ConditionalMarginal(9, 0, true); err == nil {
		t.Error("out-of-range fact accepted")
	}
	// Zero-probability conditioning event errors.
	point, _ := FromJoint([]float64{0, 1})
	if _, err := point.ConditionalMarginal(0, 0, false); err == nil {
		t.Error("zero-probability event accepted")
	}
}

// updateBranchy is Update's posterior loop as it read before the truth
// bit indexed the factor pair directly: the same hoisted per-answer
// factors and per-answer-set subproducts, with a branch on Models.
func updateBranchy(d *Dist, fam crowd.AnswerFamily) []float64 {
	var facs [][2]float64
	var facts, lens []int
	for _, as := range fam {
		pcT, pcF := as.Worker.PCorrect(true), as.Worker.PCorrect(false)
		for j, f := range as.Facts {
			if as.Values[j] {
				facs = append(facs, [2]float64{1 - pcF, pcT})
			} else {
				facs = append(facs, [2]float64{pcF, 1 - pcT})
			}
			facts = append(facts, f)
		}
		lens = append(lens, len(as.Facts))
	}
	post := make([]float64, len(d.p))
	var sum float64
	for o, po := range d.p {
		if po == 0 {
			continue
		}
		like := 1.0
		u := 0
		for _, n := range lens {
			sub := 1.0
			for j := 0; j < n; j++ {
				tv := 0
				if Models(o, facts[u]) {
					tv = 1
				}
				sub *= facs[u][tv]
				u++
			}
			like *= sub
		}
		v := po * like
		post[o] = v
		sum += v
	}
	inv := 1 / sum
	for o := range post {
		post[o] *= inv
	}
	return post
}

// TestUpdateMatchesBranchyLoop checks the branchless posterior loop
// bitwise against the branching one, for symmetric and asymmetric
// workers answering multi-fact sets that include the top fact.
func TestUpdateMatchesBranchyLoop(t *testing.T) {
	for _, m := range []int{5, 16} {
		r := rngutil.New(int64(m))
		raw := make([]float64, 1<<uint(m))
		for i := range raw {
			raw[i] = r.Float64() + 1e-3
		}
		d, err := FromJoint(raw)
		if err != nil {
			t.Fatal(err)
		}
		workers := []crowd.Worker{
			{ID: "s", Accuracy: 0.8},
			{ID: "a", TPR: 0.9, TNR: 0.7},
			{ID: "e", Accuracy: 0.95},
		}
		for round := 0; round < 4; round++ {
			var fam crowd.AnswerFamily
			facts := []int{r.Intn(m - 1), m - 1}
			for _, w := range workers {
				fam = append(fam, crowd.AnswerSet{Worker: w, Facts: facts, Values: []bool{r.Intn(2) == 0, r.Intn(2) == 0}})
			}
			want := updateBranchy(d, fam)
			if err := d.Update(fam); err != nil {
				t.Fatal(err)
			}
			for o, v := range d.p {
				if math.Float64bits(v) != math.Float64bits(want[o]) {
					t.Fatalf("m=%d round %d: P(%d) = %v, branchy loop %v", m, round, o, v, want[o])
				}
			}
		}
	}
}
