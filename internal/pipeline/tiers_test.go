package pipeline

import (
	"context"
	"encoding/json"
	"math"
	"testing"

	"hcrowd/internal/crowd"
	"hcrowd/internal/dataset"
)

// tierOverSource over-delivers (see overSource) only to panels drawn
// from one tier, identified by its first expert.
type tierOverSource struct {
	inner AnswerSource
	tier  crowd.Crowd
}

func (s tierOverSource) Answers(experts crowd.Crowd, facts []int) (crowd.AnswerFamily, error) {
	if len(experts) > 0 && experts[0].ID == s.tier[0].ID {
		return overSource{inner: s.inner}.Answers(experts, facts)
	}
	return s.inner.Answers(experts, facts)
}

// TestRunTiersCombinesEveryTier is the regression for RunTiers keeping
// only tier 0's counters and warm-resume state: a source over-delivering
// in tier 2 must show up in the combined Overspent (the sum over tiers),
// and the combined result's checkpoint must carry the last tier's stop
// votes and selection cache next to its final beliefs.
func TestRunTiersCombinesEveryTier(t *testing.T) {
	ds := smallDataset(t, 4)
	tiers, _, err := SplitTiers(ds.Crowd, ds.Theta, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(tiers) != 2 {
		t.Fatalf("got %d tiers, want 2", len(tiers))
	}
	tiers[0].Budget = 4 * float64(len(tiers[0].Experts))
	// Exactly one pick fundable: the phantom answer overspends by 1.
	tiers[1].Budget = float64(len(tiers[1].Experts))
	cfg := baseConfig(ds)
	cfg.Source = tierOverSource{inner: cfg.Source, tier: tiers[1].Experts}
	cfg.Stop = &StopRule{C: 1, Eps: 0.1}
	rec := &MetricsRecorder{}
	cfg.Metrics = rec
	var last *Checkpoint
	cfg.OnCheckpoint = func(ck *Checkpoint) { last = ck }
	res, err := RunTiers(context.Background(), ds, cfg, tiers)
	if err != nil {
		t.Fatal(err)
	}
	var perTier float64
	for _, m := range rec.Rounds() {
		perTier += m.Overspent
	}
	if math.Abs(perTier-1) > 1e-9 {
		t.Fatalf("tiers overspent %v in total, want 1 (tier 2's phantom answer)", perTier)
	}
	if res.Overspent != perTier {
		t.Errorf("combined Overspent = %v, sum over tiers %v", res.Overspent, perTier)
	}
	// The last round's checkpoint is tier 2's final state; the combined
	// result's checkpoint must describe the same state.
	got, want := NewCheckpoint(res), last
	if want == nil || want.StopVotes == nil || want.Selection == nil {
		t.Fatal("tier 2 emitted no warm checkpoint")
	}
	for _, part := range []struct {
		name      string
		got, want any
	}{
		{"beliefs", got.Beliefs, want.Beliefs},
		{"stop votes", got.StopVotes, want.StopVotes},
		{"selection cache", got.Selection, want.Selection},
	} {
		if mustJSON(t, part.got) != mustJSON(t, part.want) {
			t.Errorf("combined checkpoint %s differ from the last tier's", part.name)
		}
	}
}

// TestRunTiersCarriesAdmittedTasks is the streaming half: tasks admitted
// in each tier are counted in the combined TasksAdmitted, and a later
// tier continues from the beliefs of every task admitted before it.
func TestRunTiersCarriesAdmittedTasks(t *testing.T) {
	ds := smallDataset(t, 11)
	base := len(ds.Tasks)
	tiers, _, err := SplitTiers(ds.Crowd, ds.Theta, 2, 200)
	if err != nil {
		t.Fatal(err)
	}
	cfg := fig2StyleConfig(t, ds, 50)
	cfg.MaxRounds = 2 // tier 0 polls batches 0-1, tier 1 batches 2-3
	frags := streamFragments(t, ds, 123, 2)
	cfg.Admit = &ScheduleSource{Batches: [][]*dataset.Fragment{
		nil, {frags[0]}, nil, {frags[1]},
	}}
	res, err := RunTiers(context.Background(), ds, cfg, tiers)
	if err != nil {
		t.Fatal(err)
	}
	want := len(frags[0].Tasks) + len(frags[1].Tasks)
	if res.TasksAdmitted != want {
		t.Errorf("combined TasksAdmitted = %d, want %d", res.TasksAdmitted, want)
	}
	if len(ds.Tasks) != base+want || len(res.Beliefs) != len(ds.Tasks) {
		t.Errorf("%d beliefs for %d tasks (%d admitted)", len(res.Beliefs), len(ds.Tasks), len(ds.Tasks)-base)
	}
	for i, d := range res.Beliefs {
		if d.NumFacts() != len(ds.Tasks[i]) {
			t.Fatalf("belief %d has %d facts, task has %d", i, d.NumFacts(), len(ds.Tasks[i]))
		}
	}
}

func mustJSON(t *testing.T, v any) string {
	t.Helper()
	raw, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(raw)
}
