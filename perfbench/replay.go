package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"path/filepath"
	"runtime"
	"time"

	"hcrowd/internal/aggregate"
	"hcrowd/internal/cluster"
	"hcrowd/internal/dataset"
	"hcrowd/internal/journal"
	"hcrowd/internal/obsv"
	"hcrowd/internal/pipeline"
	"hcrowd/internal/server"
)

// replayed is the outcome of replaying every slot's job in process.
type replayed struct {
	labels   [][]bool
	accuracy []float64
}

// replaySlots runs each slot's job through server.Manager and the
// session's Queries/Answer/AdmitTasks calls — the layers under the HTTP
// handlers — with the same answers and admission points as the HTTP run.
// In a traced run it records a span around every call, journals the
// sessions of a journaled spec, and fills in the session-, journal- and
// ring-layer metrics.
func replaySlots(ctx context.Context, e *env, spec servedSpec, plans []*slotPlan, r *report) (*replayed, error) {
	tr := r.spans
	mark := len(tr.Spans())
	opts := server.ManagerOptions{}
	if e.trace && spec.journal {
		opts.JournalDir = filepath.Join(e.runDir, "replay-journal")
	}
	mgr := server.NewManager(opts)
	out := &replayed{labels: make([][]bool, len(plans)), accuracy: make([]float64, len(plans))}
	var evals, rescans, reused, rounds float64
	var ckpt []byte
	for i, p := range plans {
		id := uint64(1<<32 + mark + i)
		sp := tr.Begin(id, -1, "server.create")
		_, s, err := mgr.CreateFromRequest(p.request(fmt.Sprintf("replay-%02d", i)))
		tr.End(sp)
		if err != nil {
			return nil, fmt.Errorf("replay create slot %d: %w", i, err)
		}
		if err := driveSession(ctx, tr, id, spec, p, s); err != nil {
			return nil, fmt.Errorf("replay slot %d: %w", i, err)
		}
		res, err := s.Wait(ctx)
		if err != nil {
			return nil, fmt.Errorf("replay slot %d: %w", i, err)
		}
		out.labels[i] = res.Labels
		out.accuracy[i] = res.Accuracy
		if m := s.Metrics(); m != nil {
			snap := m.Registry().Snapshot()
			evals += counter(snap, "selector_evals_total")
			rescans += counter(snap, "selector_rescans_total")
			reused += counter(snap, "selector_reused_total")
			rounds += counter(snap, "session_rounds_completed_total")
		}
		if ckpt == nil {
			if ckpt, err = json.Marshal(s.Checkpoint()); err != nil {
				return nil, err
			}
		}
	}
	if !e.trace {
		return out, nil
	}
	agg := Aggregate(tr.Spans()[mark:])
	if spec.journal {
		// The durable replay contributes the journaled session calls and
		// the journal and ring probes; the session layer's other numbers
		// come from the in-memory replay.
		r.layer["server.answer_us.journaled"] = agg["server.answer"].MeanSelfUS()
		r.layer["server.admit_us"] = agg["server.admit"].MeanSelfUS()
		if err := probeJournal(tr, filepath.Join(e.runDir, "probe.journal"), plans[0].dsJSON, ckpt, r); err != nil {
			return nil, err
		}
		if err := probeOwner(tr, spec, r); err != nil {
			return nil, err
		}
		return out, nil
	}
	r.layer["server.create_ms"] = agg["server.create"].MeanSelfUS() / 1e3
	r.layer["server.answer_us.memory"] = agg["server.answer"].MeanSelfUS()
	r.layer["server.queries_us"] = agg["server.queries"].MeanSelfUS()
	r.layer["server.round_gap_us"] = agg["server.round_gap"].MeanSelfUS()
	if rounds > 0 {
		r.layer["taskselect.evals_per_round.session"] = evals / rounds
	}
	if reused+rescans > 0 {
		r.layer["taskselect.reuse_ratio"] = reused / (reused + rescans)
	}
	return out, probeInit(tr, plans, r)
}

func counter(snap map[string]obsv.MetricSnapshot, name string) float64 {
	if m, ok := snap[name]; ok && m.Value != nil {
		return *m.Value
	}
	return 0
}

// driveSession plays both experts of one session to the end: answer
// every open query with the plan's policy, admit fragments at the HTTP run's
// points, and wait for the engine between rounds.
func driveSession(ctx context.Context, tr *Tracer, id uint64, spec servedSpec, p *slotPlan, s *server.Session) error {
	var sealed time.Time // when the last round's sealing answer returned
	rounds, next, idle := 0, 0, 0
	for {
		progressed := false
		for ei, ex := range p.experts {
			t0 := time.Now()
			round, facts, ok := s.Queries(ex)
			t1 := time.Now()
			if !ok {
				continue
			}
			tr.Record(id, -1, "server.queries", t0, t1)
			if !sealed.IsZero() {
				tr.Record(id, -1, "server.round_gap", sealed, t1)
				sealed = time.Time{}
			}
			sp := tr.Begin(id, -1, "server.answer")
			err := s.Answer(round, ex, p.answer(ex, round, facts))
			tr.End(sp)
			if err != nil {
				return err
			}
			progressed = true
			if ei == len(p.experts)-1 {
				sealed = time.Now()
			}
			if ei != 0 {
				continue
			}
			rounds++
			if admitDue(spec, rounds, next) {
				sp := tr.Begin(id, -1, "server.admit")
				err := s.AdmitTasks([]*dataset.Fragment{p.frags[next]}, next == spec.frags-1)
				tr.End(sp)
				if err != nil {
					return err
				}
				next++
			}
		}
		if progressed {
			idle = 0
			continue
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		// Between rounds the engine runs on its own goroutine; yield to it
		// and look at the status only now and then, since Status takes
		// the session lock the engine needs.
		if idle++; idle%64 == 0 && s.Status().Done {
			return nil
		}
		runtime.Gosched()
	}
}

// probeInit times the EBCC initialization every session create runs.
func probeInit(tr *Tracer, plans []*slotPlan, r *report) error {
	init, err := aggregate.ByName("EBCC", 1)
	if err != nil {
		return err
	}
	for i, p := range plans {
		ds, err := dataset.Read(bytes.NewReader(p.dsJSON))
		if err != nil {
			return err
		}
		sp := tr.Begin(uint64(2<<32+i), -1, "aggregate.init")
		_, err = pipeline.InitBeliefs(ds, init, false)
		tr.End(sp)
		if err != nil {
			return err
		}
	}
	r.layer["aggregate.init_ms"] = Aggregate(tr.Spans())["aggregate.init"].MeanSelfUS() / 1e3
	return nil
}

// probeJournal times journal.Writer on a scratch file beside the run's
// journals: answer-sized appends each followed by a sync, then
// checkpoint-sized appends, then compactions to {created, checkpoint}.
func probeJournal(tr *Tracer, path string, created, ckpt []byte, r *report) error {
	w, err := journal.Create(path)
	if err != nil {
		return err
	}
	err = exerciseJournal(tr, w, created, ckpt)
	if cerr := w.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("journal probe: %w", err)
	}
	agg := Aggregate(tr.Spans())
	r.layer["journal.append_us"] = agg["journal.append"].MeanSelfUS()
	r.layer["journal.sync_us"] = agg["journal.sync"].MeanSelfUS()
	r.layer["journal.reset_ms"] = agg["journal.reset"].MeanSelfUS() / 1e3
	return nil
}

func exerciseJournal(tr *Tracer, w *journal.Writer, created, ckpt []byte) error {
	answer := []byte(`{"round":17,"worker":"e0","values":[true]}`)
	id := uint64(3 << 32)
	step := func(name string, f func() error) error {
		sp := tr.Begin(id, -1, name)
		err := f()
		tr.End(sp)
		return err
	}
	for i := 0; i < 200; i++ {
		payload := answer
		if i%10 == 9 {
			payload = ckpt
		}
		if err := step("journal.append", func() error { return w.Append(journal.Record{Type: 2, Payload: payload}) }); err != nil {
			return err
		}
		if err := step("journal.sync", w.Sync); err != nil {
			return err
		}
	}
	recs := []journal.Record{{Type: 1, Payload: created}, {Type: 3, Payload: ckpt}}
	for i := 0; i < 20; i++ {
		if err := step("journal.reset", func() error { return w.Reset(recs) }); err != nil {
			return err
		}
	}
	return nil
}

// probeOwner times cluster.Ring.Owner over session names on a two-member
// ring.
func probeOwner(tr *Tracer, spec servedSpec, r *report) error {
	ring, err := cluster.New([]string{"127.0.0.1:1", "127.0.0.1:2"}, cluster.DefaultVNodes)
	if err != nil {
		return err
	}
	const n = 20000
	names := make([]string, 256)
	for i := range names {
		names[i] = fmt.Sprintf("%s-s%02d-w%d", spec.name, i%servedSessions, i)
	}
	owners := 0
	sp := tr.Begin(uint64(4<<32), -1, "cluster.owner")
	for i := 0; i < n; i++ {
		if ring.Owner(names[i%len(names)]) == "127.0.0.1:1" {
			owners++
		}
	}
	tr.End(sp)
	if owners == 0 || owners == n {
		r.gate("ring owner probe: every name on one member")
	}
	r.layer["cluster.owner_ns"] = Aggregate(tr.Spans())["cluster.owner"].MeanSelfUS() * 1e3 / n
	return nil
}
