// Package pipeline implements the hierarchical crowdsourcing loop of the
// paper's Algorithms 1 and 3: split the crowd, initialize the belief state
// from the preliminary workers' labels, then repeatedly select a checking
// query set, collect the expert answer family, and apply the Bayesian
// belief update until the checking budget runs out. It also carries the
// §III-D extensions: a per-worker cost model, a multi-tier hierarchy, and
// the Abraham et al. [38] per-fact stopping rule.
package pipeline

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"

	"hcrowd/internal/aggregate"
	"hcrowd/internal/belief"
	"hcrowd/internal/crowd"
	"hcrowd/internal/dataset"
	"hcrowd/internal/rngutil"
	"hcrowd/internal/taskselect"
)

// AnswerSource supplies expert answers for selected checking queries. The
// experiments use Simulated; a live deployment would implement this
// against a crowdsourcing platform.
type AnswerSource interface {
	// Answers collects one answer per expert for each global fact index.
	Answers(experts crowd.Crowd, facts []int) (crowd.AnswerFamily, error)
}

// Simulated draws answers from the ground truth under the accuracy-rate
// error model, which is exactly the paper's offline-evaluation protocol
// ("the repeated task selection and answer collection can be regarded as
// a simulated online crowdsourcing framework").
type Simulated struct {
	Rng   *rand.Rand
	Truth crowd.Truth
}

// Answers implements AnswerSource.
func (s Simulated) Answers(experts crowd.Crowd, facts []int) (crowd.AnswerFamily, error) {
	if s.Rng == nil || s.Truth == nil {
		return nil, errors.New("pipeline: Simulated needs Rng and Truth")
	}
	return crowd.SimulateAnswerFamily(s.Rng, experts, facts, s.Truth), nil
}

// StopRule is the sequential stopping rule of Abraham et al. [38]: a fact
// stops being re-checked once |V_yes - V_no| > C·sqrt(t) − Eps·t, where t
// is the number of expert answers collected for the fact so far.
type StopRule struct {
	C   float64
	Eps float64
}

// Stopped evaluates the rule for a fact with the given vote counts.
func (r StopRule) Stopped(yes, no int) bool {
	t := float64(yes + no)
	if t == 0 {
		return false
	}
	return math.Abs(float64(yes-no)) > r.C*math.Sqrt(t)-r.Eps*t
}

// Config drives one hierarchical crowdsourcing run.
type Config struct {
	// K is the number of checking queries selected per round (Algorithm 2
	// input). Required, >= 1.
	K int
	// Budget B is the total number of expert answers available; each round
	// consumes |T|·|CE| (Algorithm 1 line 7), or the cost-weighted
	// equivalent when Cost is set.
	Budget float64
	// Selector picks the checking query set; defaults to the paper's
	// greedy approximation.
	Selector taskselect.Selector
	// Init aggregates the preliminary answers into per-fact posteriors for
	// belief initialization; defaults to MV (the paper's Equation 15/16
	// vote-share product). The experiments of Figure 6 swap this.
	Init aggregate.Aggregator
	// Source provides the expert answers. Required.
	Source AnswerSource
	// Cost optionally prices one answer from a worker (the §III-D
	// cost-aware extension); nil means unit cost.
	Cost func(w crowd.Worker) float64
	// Stop optionally freezes facts per the stopping rule.
	Stop *StopRule
	// UniformInit forces a uniform belief (ignoring Init and the
	// preliminary answers); used by the NO-HC baseline of Figure 7.
	UniformInit bool
	// PriorCoupling injects the intra-task correlation structure into the
	// initial beliefs as a Markov-chain prior (Definition 6 takes the
	// observations' joint distribution as a given input; Equation 15's
	// plain product form discards it). Zero means no prior;
	// (*dataset.Dataset).EstimateCoupling recovers the value from the
	// preliminary answers.
	PriorCoupling float64
	// Prior, when set, overrides PriorCoupling with an arbitrary
	// structural joint prior per task width — e.g. belief.OneHotPrior for
	// tasks derived from single-label multi-class classification (§II-A).
	Prior func(numFacts int) (*belief.Dist, error)
	// MaxRounds caps the number of rounds as a safety net; 0 means
	// unlimited (the budget is the binding constraint).
	MaxRounds int
	// OnCheckpoint, when set, receives a freshly built warm checkpoint
	// after every completed round: cloned beliefs, cumulative spend, the
	// incremental selector's gain cache and the stopping rule's vote
	// counts. The callback owns the value (persist it, hand it to
	// Resume/ResumeCostAware); it runs synchronously on the loop.
	OnCheckpoint func(c *Checkpoint)
	// Journal, when set, is the durability hook: after every completed
	// round — at the same serialization point OnCheckpoint fires, and
	// just before it — the engine hands the round number and the round's
	// warm checkpoint to CommitRound and ABORTS THE RUN if it errors.
	// OnCheckpoint is advisory (a failed persist loses nothing but a
	// resume point); Journal is the write-ahead commit a crash-recoverable
	// service depends on, so an un-durable round must stop the loop
	// rather than let the in-memory state advance past the log.
	Journal RoundRecorder
	// Metrics, when set, receives one RoundMetrics per completed round.
	// Purely observational: attaching a sink never changes the run's
	// picks, answers, spend or labels.
	Metrics MetricsSink
	// Admit, when set, turns the closed loop into an event-driven round
	// scheduler: the engine polls the source at every round boundary and
	// admits the returned fragments — growing the dataset, beliefs,
	// stop-rule state and selection caches in place — before planning the
	// next round. When the budget runs dry the engine blocks on the
	// source instead of finishing, and only ends once the source reports
	// the stream finished (empty blocking poll).
	Admit AdmissionSource
	// BudgetWindow is the rolling-budget refill of the streaming design:
	// every admitted fragment adds this much to the remaining budget, on
	// top of the fixed Budget. Meaningful only with Admit set; must not
	// be negative.
	BudgetWindow float64
}

// RoundRecorder commits one completed round to durable storage (see
// Config.Journal). round counts engine rounds from 1 within this run;
// ck is the round's warm checkpoint (the same immutable value
// OnCheckpoint receives). A non-nil error aborts the run: the engine
// never advances past a round the journal did not accept.
type RoundRecorder interface {
	CommitRound(round int, ck *Checkpoint) error
}

// RoundRecorderFunc adapts a function to RoundRecorder.
type RoundRecorderFunc func(round int, ck *Checkpoint) error

// CommitRound implements RoundRecorder.
func (f RoundRecorderFunc) CommitRound(round int, ck *Checkpoint) error { return f(round, ck) }

// RoundStats records one checking round for the experiment curves.
type RoundStats struct {
	Round       int
	Picks       []taskselect.Candidate
	BudgetSpent float64 // cumulative
	Quality     float64 // Σ_t Q(F_t) after the round's update
	Accuracy    float64 // fraction of facts whose MAP label is correct
}

// Result is the outcome of a run.
type Result struct {
	Beliefs  []*belief.Dist
	Labels   []bool // final labels, global fact order (Equation 20)
	Rounds   []RoundStats
	Quality  float64
	Accuracy float64
	// InitQuality/InitAccuracy describe the belief right after
	// initialization, before any checking.
	InitQuality  float64
	InitAccuracy float64
	BudgetSpent  float64
	// Overspent is the total spend beyond the authorized budget across
	// this engine run. The plans clamp purchases to the remaining budget,
	// but a source delivering more answers than requested — or a
	// floating-point epsilon in the affordability clamp — can still push a
	// round's charge past what remained; the engine floors the remaining
	// budget at zero and records the excess here instead of letting it
	// silently fund extra rounds.
	Overspent float64
	// TasksAdmitted counts the tasks the run admitted through
	// Config.Admit; 0 for a closed-loop run.
	TasksAdmitted int

	// selCache and stopVotes carry the finished run's warm-resume state
	// into NewCheckpoint; nil when the run used no incremental selector
	// or no stopping rule.
	selCache  *taskselect.SelectionCache
	stopVotes *StopVotes
}

// Run executes Algorithm 3 (or Algorithm 1 when cfg.Selector is
// taskselect.Exact) on the dataset.
func Run(ctx context.Context, ds *dataset.Dataset, cfg Config) (*Result, error) {
	if err := ds.Validate(); err != nil {
		return nil, err
	}
	if cfg.K < 1 {
		return nil, fmt.Errorf("pipeline: K = %d, need >= 1", cfg.K)
	}
	if cfg.Source == nil {
		return nil, errors.New("pipeline: Config.Source is required")
	}
	if cfg.Selector == nil {
		cfg.Selector = defaultSelector()
	}
	if cfg.Init == nil {
		cfg.Init = aggregate.MV{}
	}
	ce, _ := ds.Split()
	if len(ce) == 0 {
		return nil, errors.New("pipeline: no expert workers above theta")
	}
	beliefs, err := initFor(ds, cfg)
	if err != nil {
		return nil, err
	}
	return runUniform(ctx, ds, cfg, ce, beliefs, nil, nil, 0)
}

// runUniform assembles the uniform-pick flavor of the engine; warm and
// votes prime a resumed run's selection cache and stop-rule counts,
// spentBefore its cumulative spend. Run, Resume and RunTiers share it.
func runUniform(ctx context.Context, ds *dataset.Dataset, cfg Config, ce crowd.Crowd, beliefs []*belief.Dist, warm *taskselect.SelectionCache, votes *StopVotes, spentBefore float64) (*Result, error) {
	st, err := newStopState(ds, cfg.Stop, votes)
	if err != nil {
		return nil, err
	}
	// The plan is created here — never stored in cfg — so each run (and
	// each tier, whose crowd differs) starts from its own state.
	return runEngine(ctx, ds, cfg, ce, beliefs, newUniformPlan(cfg, ce, warm), st, spentBefore)
}

// initFor resolves the configured initialization strategy.
func initFor(ds *dataset.Dataset, cfg Config) ([]*belief.Dist, error) {
	if cfg.Prior != nil {
		return InitBeliefsWithPrior(ds, cfg.Init, cfg.UniformInit, cfg.Prior)
	}
	return InitBeliefsCoupled(ds, cfg.Init, cfg.UniformInit, cfg.PriorCoupling)
}

// InitBeliefs builds one belief per task. With uniform == true every task
// starts at the uniform distribution (the NO-HC baseline); otherwise the
// aggregator runs on the preliminary matrix and each task belief is the
// independent product of its facts' posteriors (Equation 15).
func InitBeliefs(ds *dataset.Dataset, init aggregate.Aggregator, uniform bool) ([]*belief.Dist, error) {
	return InitBeliefsCoupled(ds, init, uniform, 0)
}

// InitBeliefsCoupled is InitBeliefs with a Markov-chain structural prior
// of the given coupling blended into every task belief, so the checking
// loop can propagate expert evidence across correlated facts.
func InitBeliefsCoupled(ds *dataset.Dataset, init aggregate.Aggregator, uniform bool, coupling float64) ([]*belief.Dist, error) {
	if coupling == 0 {
		return InitBeliefsWithPrior(ds, init, uniform, nil)
	}
	return InitBeliefsWithPrior(ds, init, uniform, func(m int) (*belief.Dist, error) {
		return belief.MarkovPrior(m, coupling)
	})
}

// InitBeliefsWithPrior is the general initializer: prior(m), when
// non-nil, supplies the structural joint prior for every m-fact task and
// is blended with the aggregated marginals (or used alone when uniform).
func InitBeliefsWithPrior(ds *dataset.Dataset, init aggregate.Aggregator, uniform bool, prior func(int) (*belief.Dist, error)) ([]*belief.Dist, error) {
	if init == nil {
		init = defaultInit()
	}
	beliefs := make([]*belief.Dist, len(ds.Tasks))
	priors := make(map[int]*belief.Dist) // by fact count
	priorFor := func(m int) (*belief.Dist, error) {
		if prior == nil {
			return nil, nil
		}
		if d, ok := priors[m]; ok {
			return d, nil
		}
		d, err := prior(m)
		if err != nil {
			return nil, err
		}
		priors[m] = d
		return d, nil
	}
	if uniform {
		for t, facts := range ds.Tasks {
			prior, err := priorFor(len(facts))
			if err != nil {
				return nil, err
			}
			if prior != nil {
				beliefs[t] = prior.Clone()
				continue
			}
			d, err := belief.New(len(facts))
			if err != nil {
				return nil, err
			}
			beliefs[t] = d
		}
		return beliefs, nil
	}
	res, err := init.Aggregate(ds.Prelim)
	if err != nil {
		return nil, fmt.Errorf("pipeline: init aggregation: %w", err)
	}
	for t, facts := range ds.Tasks {
		marg := make([]float64, len(facts))
		for j, f := range facts {
			marg[j] = res.PTrue[f]
		}
		prior, err := priorFor(len(facts))
		if err != nil {
			return nil, err
		}
		d, err := belief.FromMarginalsWithPrior(marg, prior)
		if err != nil {
			return nil, err
		}
		beliefs[t] = d
	}
	return beliefs, nil
}

// relabelFamily maps a family's global fact indices back to task-local
// ones so the belief update can consume it.
func relabelFamily(fam crowd.AnswerFamily, globals, locals []int) (crowd.AnswerFamily, error) {
	g2l := make(map[int]int, len(globals))
	for i, g := range globals {
		g2l[g] = locals[i]
	}
	out := make(crowd.AnswerFamily, len(fam))
	for i, as := range fam {
		facts := make([]int, len(as.Facts))
		vals := make([]bool, len(as.Facts))
		for j, g := range as.Facts {
			l, ok := g2l[g]
			if !ok {
				return nil, fmt.Errorf("pipeline: answer for unrequested fact %d", g)
			}
			facts[j] = l
			vals[j] = as.Values[j]
		}
		// Local facts of one task preserve ascending order under the
		// global-to-local map, so no re-sort is needed.
		out[i] = crowd.AnswerSet{Worker: as.Worker, Facts: facts, Values: vals}
		if err := out[i].Validate(); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// finalLabels flattens the per-task MAP labels into global fact order
// (Equation 20).
func finalLabels(ds *dataset.Dataset, beliefs []*belief.Dist) []bool {
	out := make([]bool, ds.NumFacts())
	for t, d := range beliefs {
		labels := d.Labels()
		for j, f := range ds.Tasks[t] {
			out[f] = labels[j]
		}
	}
	return out
}

// NewSimulated builds the standard simulated answer source for a dataset.
func NewSimulated(seed int64, ds *dataset.Dataset) Simulated {
	return Simulated{Rng: rngutil.New(seed), Truth: ds.TruthFn()}
}

// defaultSelector and defaultInit centralize the Run/RunTiers defaults.
func defaultSelector() taskselect.Selector { return taskselect.Greedy{} }

func defaultInit() aggregate.Aggregator { return aggregate.MV{} }
