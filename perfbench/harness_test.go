package main

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"sync/atomic"
	"testing"
	"time"
)

func TestTailPercentileNeedsTenBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{n: 5, ok: false}, // not even the median has 10 above it
		{n: 20, want: 50, ok: true},
		{n: 39, want: 50, ok: true}, // p75 rank 30 leaves 9
		{n: 40, want: 75, ok: true}, // p75 rank 30 leaves 10
		{n: 100, want: 90, ok: true},
		{n: 199, want: 90, ok: true}, // p95 rank 190 leaves 9
		{n: 200, want: 95, ok: true},
		{n: 1000, want: 99, ok: true},
		{n: 9999, want: 99, ok: true}, // p99.9 rank 9990 leaves 9
		{n: 10000, want: 99.9, ok: true},
	} {
		got, ok := tailPercentile(tc.n)
		if ok != tc.ok || got != tc.want {
			t.Errorf("tailPercentile(%d) = p%g, %v; want p%g, %v", tc.n, got, ok, tc.want, tc.ok)
		}
	}
}

func TestBlockRatesAndMeanPct(t *testing.T) {
	// Five completions at 0.1 s, 0.3 s, 0.4 s, 0.8 s and 0.9 s: blocks
	// of two take 0.3 s and 0.5 s; the fifth is a partial block.
	var ends []time.Duration
	for _, ms := range []int{100, 300, 400, 800, 900} {
		ends = append(ends, time.Duration(ms)*time.Millisecond)
	}
	got := blockRates(ends, 2)
	want := []float64{2 / 0.3, 2 / 0.5}
	if len(got) != len(want) {
		t.Fatalf("blockRates = %v, want %v", got, want)
	}
	for i := range want {
		if d := got[i] - want[i]; d > 1e-9 || d < -1e-9 {
			t.Errorf("block %d rate = %v, want %v", i, got[i], want[i])
		}
	}
	groups := []samples{{1, 2, 3, 4}, {10, 20, 30, 40}}
	if got := meanPct(groups, 50); got != (2+20)/2.0 {
		t.Errorf("meanPct p50 = %v, want 11 (mean of the groups' nearest-rank medians)", got)
	}
}

func TestNamedPercentileGate(t *testing.T) {
	s := make(samples, 99)
	for i := range s {
		s[i] = float64(i + 1)
	}
	r := &report{}
	if got := s.tail(r, "x", 90); got != 90 {
		t.Errorf("p90 of 1..99 = %v, want 90 (nearest rank)", got)
	}
	if len(r.gates) != 1 {
		t.Fatalf("99 samples leave 9 beyond p90: want one gate, got %v", r.gates)
	}
	s = append(s, 100)
	r = &report{}
	s.tail(r, "x", 90)
	if len(r.gates) != 0 {
		t.Errorf("100 samples leave 10 beyond p90: want no gate, got %v", r.gates)
	}
	r = &report{traced: true}
	s[:5].tail(r, "x", 99)
	if len(r.gates) != 0 {
		t.Errorf("traced runs report no tails and gate none, got %v", r.gates)
	}
}

func TestSpanSelfTime(t *testing.T) {
	spans := []Span{
		{Trace: 1, ID: 0, Parent: -1, Name: "round", Start: 0, End: 100},
		{Trace: 1, ID: 1, Parent: 0, Name: "select", Start: 10, End: 40},
		{Trace: 1, ID: 2, Parent: 0, Name: "update", Start: 50, End: 70},
		{Trace: 1, ID: 3, Parent: 1, Name: "kernel", Start: 15, End: 35},
		{Trace: 2, ID: 4, Parent: -1, Name: "round", Start: 200, End: 260},
		{Trace: 2, ID: 5, Parent: 4, Name: "select", Start: 210, End: -1}, // never closed
	}
	agg := Aggregate(spans)
	check := func(name string, count int, total, self time.Duration) {
		t.Helper()
		st := agg[name]
		if st == nil || st.Count != count || st.Total != total || st.Self != self {
			t.Errorf("%s = %+v, want count %d total %v self %v", name, st, count, total, self)
		}
	}
	check("round", 2, 160, 100-30-20+60) // the open child does not count
	check("select", 1, 30, 30-20)
	check("update", 1, 20, 20)
	check("kernel", 1, 20, 20)
	if got := agg["round"].MeanSelfUS(); got != 0.055 {
		t.Errorf("mean self of round = %vus, want 0.055", got)
	}
	var nilTracer *Tracer
	if id := nilTracer.Begin(1, -1, "x"); id != -1 {
		t.Errorf("untraced Begin = %d, want -1", id)
	}
	nilTracer.End(-1)
}

func TestTracerNests(t *testing.T) {
	tr := newTracer()
	root := tr.Begin(7, -1, "outer")
	inner := tr.Begin(7, root, "inner")
	time.Sleep(time.Millisecond)
	tr.End(inner)
	tr.End(root)
	agg := Aggregate(tr.Spans())
	if agg["outer"].Total < agg["inner"].Total || agg["outer"].Self >= agg["outer"].Total {
		t.Errorf("outer %+v should enclose inner %+v", agg["outer"], agg["inner"])
	}
}

func TestFailedFracAccounting(t *testing.T) {
	var o ops
	for _, c := range []struct {
		code int
		err  error
		want outcome
	}{
		{200, nil, opOK},
		{201, nil, opOK},
		{202, nil, opOK},
		{204, nil, opBenign},
		{409, nil, opBenign},
		{410, nil, opBenign},
		{307, nil, opFailed}, // a redirect the client did not follow
		{400, nil, opFailed},
		{404, nil, opFailed},
		{500, nil, opFailed},
		{503, nil, opFailed},
		{0, errors.New("connection refused"), opFailed},
		{202, errors.New("body read"), opFailed},
	} {
		if got := classify(c.code, c.err); got != c.want {
			t.Errorf("classify(%d, %v) = %v, want %v", c.code, c.err, got, c.want)
		}
		o.note(classify(c.code, c.err))
	}
	o.noteErr(nil)
	o.noteErr(errors.New("run failed"))
	if a, f := o.attempted.Load(), o.failed.Load(); a != 15 || f != 8 {
		t.Errorf("attempted %d failed %d, want 15 and 8", a, f)
	}
	if got := o.failedFrac(); got != 8.0/15 {
		t.Errorf("failed_frac = %v, want 8/15", got)
	}
}

func TestCheckRedirectCounting(t *testing.T) {
	owner := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			t.Errorf("redirect changed the method to %s", r.Method)
		}
		w.WriteHeader(http.StatusAccepted)
	}))
	defer owner.Close()
	other := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Redirect(w, r, owner.URL+r.URL.Path, http.StatusTemporaryRedirect)
	}))
	defer other.Close()

	var o ops
	var ids atomic.Uint64
	c := newLoadClient(&o, &ids)
	direct := c.do(context.Background(), "answers", http.MethodPost, owner.URL+"/answers", []byte(`{}`))
	redirected := c.do(context.Background(), "answers", http.MethodPost, other.URL+"/answers", []byte(`{}`))
	if direct.code != http.StatusAccepted || direct.redirected {
		t.Errorf("direct call: code %d redirected %v", direct.code, direct.redirected)
	}
	if redirected.code != http.StatusAccepted || !redirected.redirected {
		t.Errorf("redirected call: code %d redirected %v", redirected.code, redirected.redirected)
	}
	if n := c.redirects.Load(); n != 1 {
		t.Errorf("redirects counted = %d, want 1", n)
	}
	if o.attempted.Load() != 2 || o.failed.Load() != 0 {
		t.Errorf("attempted %d failed %d, want 2 and 0", o.attempted.Load(), o.failed.Load())
	}

	loop := httptest.NewServer(nil)
	loop.Config.Handler = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Redirect(w, r, loop.URL+r.URL.Path, http.StatusTemporaryRedirect)
	})
	defer loop.Close()
	if cl := c.do(context.Background(), "answers", http.MethodPost, loop.URL+"/answers", []byte(`{}`)); cl.err == nil {
		t.Errorf("a redirect loop should fail, got code %d", cl.code)
	}
	if o.failed.Load() != 1 || c.redirects.Load() != 10 {
		t.Errorf("after the loop: failed %d redirects %d, want 1 and 10", o.failed.Load(), c.redirects.Load())
	}
}

func TestAdmissionPoints(t *testing.T) {
	var at []int
	next := 0
	for rounds := 1; rounds <= 200; rounds++ {
		if admitDue(clusterSpec, rounds, next) {
			at = append(at, rounds)
			next++
		}
	}
	if len(at) != clusterSpec.frags || at[0] != clusterSpec.admitEvery {
		t.Fatalf("admissions after rounds %v", at)
	}
	// Every admission must land while base budget remains, or the engine
	// would park waiting for it before the client sends it.
	baseRounds := clusterSpec.picks * clusterSpec.baseTasks
	if last := at[len(at)-1]; last >= baseRounds {
		t.Errorf("last admission after round %d, base budget lasts %d rounds", last, baseRounds)
	}
	if admitDue(serveSpec, serveSpec.admitEvery, 0) {
		t.Error("serve admits nothing")
	}
}

// TestTablesMatchBenchmarkJSON pins the metric tables to the benchmark
// description at the repository root.
func TestTablesMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	cmp := func(what string, got []struct{ Name, Unit, Better string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d, the harness %d", what, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit || got[i].Better != want[i].better {
				t.Errorf("%s[%d]: BENCHMARK.json %+v, harness %+v", what, i, got[i], want[i])
			}
		}
	}
	cmp("end_to_end", b.EndToEnd, endToEnd)
	cmp("per_layer", b.PerLayer, perLayer)
	for _, w := range b.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %q has no implementation", w.Name)
		}
	}
}
