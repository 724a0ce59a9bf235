package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime/debug"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"hcrowd/internal/cluster"
	"hcrowd/internal/dataset"
	"hcrowd/internal/rngutil"
	"hcrowd/internal/server"
)

// The served workloads drive real hcserve processes built from the tree
// with a closed loop: servedClients clients, each owning a fixed share
// of servedSessions session slots and sending its next request only
// after the previous one completed. A slot runs one job, wave after
// wave: when its session is done the client checks the labels, deletes
// the session and — while the timed window is open — creates the next
// wave of the same job.
const (
	servedSessions = 16
	servedClients  = 2
	fragTasks      = 2
)

// servedSpec is what distinguishes serve from cluster.
type servedSpec struct {
	name      string
	replicas  int
	journal   bool
	baseTasks int
	// picks is the session budget in picks per task: every pick is
	// answered by every expert.
	picks int
	// frags fragments of fragTasks tasks are admitted per session, one
	// after every admitEvery answered rounds.
	frags, admitEvery int
}

var (
	serveSpec   = servedSpec{name: "serve", replicas: 1, baseTasks: 60, picks: 70}
	clusterSpec = servedSpec{name: "cluster", replicas: 2, journal: true, baseTasks: 40, picks: 15, frags: 10, admitEvery: 3}
)

func runServe(ctx context.Context, e *env) (*report, error)   { return runServed(ctx, e, serveSpec) }
func runCluster(ctx context.Context, e *env) (*report, error) { return runServed(ctx, e, clusterSpec) }

// slotPlan is the job one session slot runs in every wave.
type slotPlan struct {
	slot    int
	experts []string
	truth   []bool // every fact's ground truth, admitted facts included
	dsJSON  []byte // the base dataset document
	cfg     server.SessionConfig
	frags   []*dataset.Fragment
	admits  [][]byte // POST /tasks bodies, one per fragment
}

// request is the POST /v1/sessions payload for this slot under name.
func (p *slotPlan) request(name string) server.CreateSessionRequest {
	return server.CreateSessionRequest{Name: name, Dataset: p.dsJSON, Config: p.cfg}
}

func makePlans(seed int64, spec servedSpec) ([]*slotPlan, error) {
	plans := make([]*slotPlan, servedSessions)
	for i := range plans {
		cfg := dataset.DefaultSentiConfig()
		cfg.NumTasks = spec.baseTasks
		ds, err := dataset.SentiLike(rngutil.New(derive(seed, spec.name+"/ds", i)), cfg)
		if err != nil {
			return nil, err
		}
		var buf bytes.Buffer
		if err := ds.Write(&buf); err != nil {
			return nil, err
		}
		ce, _ := ds.Split()
		p := &slotPlan{slot: i, truth: slices.Clone(ds.Truth), dsJSON: buf.Bytes()}
		for _, w := range ce {
			p.experts = append(p.experts, w.ID)
		}
		perPick := float64(len(ce))
		p.cfg = server.SessionConfig{K: 1, Budget: float64(spec.picks) * perPick * float64(spec.baseTasks)}
		if spec.frags > 0 {
			p.cfg.BudgetWindow = float64(spec.picks) * perPick * fragTasks
		}
		frng := rngutil.New(derive(seed, spec.name+"/frags", i))
		for f := 0; f < spec.frags; f++ {
			fr, err := dataset.SentiFragment(frng, ds, dataset.DefaultSentiConfig(), fragTasks)
			if err != nil {
				return nil, err
			}
			body, err := json.Marshal(server.AdmitTasksRequest{Fragments: []*dataset.Fragment{fr}, Final: f == spec.frags-1})
			if err != nil {
				return nil, err
			}
			p.frags = append(p.frags, fr)
			p.admits = append(p.admits, body)
			p.truth = append(p.truth, fr.Truth...)
		}
		plans[i] = p
	}
	return plans, nil
}

// answer is the experts' index-only policy: an expert tells the truth
// about fact f except when a hash of (worker, round, f) lands in the
// tenth it gets wrong. Nothing it reads depends on timing, so the labels
// are fixed by the seed however the requests interleave.
func (p *slotPlan) answer(worker string, round int, facts []int) []bool {
	values := make([]bool, len(facts))
	for i, f := range facts {
		h := fnv.New32a()
		fmt.Fprintf(h, "%s/%d/%d", worker, round, f)
		values[i] = p.truth[f] != (h.Sum32()%10 == 0)
	}
	return values
}

// admitDue reports whether the first expert's ack of answered round
// rounds is followed by the next admission.
func admitDue(spec servedSpec, rounds, next int) bool {
	return next < spec.frags && rounds == spec.admitEvery*(next+1)
}

// replica is one hcserve child process.
type replica struct {
	addr string
	cmd  *exec.Cmd
	log  *tailBuffer
	done chan struct{}
}

// tailBuffer keeps the last 8 KiB written to it (a child's stderr).
type tailBuffer struct {
	mu sync.Mutex
	b  []byte
}

func (t *tailBuffer) Write(p []byte) (int, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.b = append(t.b, p...)
	if len(t.b) > 8192 {
		t.b = append([]byte(nil), t.b[len(t.b)-8192:]...)
	}
	return len(p), nil
}

func (t *tailBuffer) String() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return string(t.b)
}

func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer ln.Close()
	return ln.Addr().String(), nil
}

// startReplicas boots the spec's hcserve processes under dir and waits
// until each answers; on failure it stops the ones it started.
func startReplicas(ctx context.Context, e *env, spec servedSpec, dir string, seedDS []byte) (rs []*replica, err error) {
	addrs := make([]string, spec.replicas)
	for i := range addrs {
		if addrs[i], err = freeAddr(); err != nil {
			return nil, err
		}
	}
	defer func() {
		if err != nil {
			stopReplicas(rs)
			rs = nil
		}
	}()
	for i, a := range addrs {
		args := []string{"-addr", a, "-max-running", "0", "-drain-timeout", "2s"}
		if spec.replicas > 1 {
			jd := filepath.Join(dir, fmt.Sprintf("journal%d", i))
			args = append(args, "-self", a, "-peers", strings.Join(addrs, ","), "-journal-dir", jd)
		} else {
			// A single server needs a default session; a budget below one
			// pick makes it finish at once.
			in := filepath.Join(dir, "default.json")
			if err := os.WriteFile(in, seedDS, 0o644); err != nil {
				return rs, err
			}
			args = append(args, "-in", in, "-budget", "1")
		}
		r := &replica{addr: a, log: &tailBuffer{}, done: make(chan struct{})}
		r.cmd = exec.Command(filepath.Join(e.binDir, "hcserve"), args...)
		r.cmd.Stdout = io.Discard
		r.cmd.Stderr = r.log
		r.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
		if err := r.cmd.Start(); err != nil {
			return rs, err
		}
		go func() { _ = r.cmd.Wait(); close(r.done) }()
		rs = append(rs, r)
	}
	for _, r := range rs {
		if err := waitReady(ctx, r); err != nil {
			return rs, err
		}
	}
	return rs, nil
}

func waitReady(ctx context.Context, r *replica) error {
	c := &http.Client{Timeout: time.Second}
	deadline := time.Now().Add(20 * time.Second)
	for time.Now().Before(deadline) {
		select {
		case <-r.done:
			return fmt.Errorf("hcserve %s exited during start-up: %s", r.addr, r.log)
		case <-ctx.Done():
			return ctx.Err()
		default:
		}
		if resp, err := c.Get("http://" + r.addr + "/v1/sessions"); err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	return fmt.Errorf("hcserve %s not ready: %s", r.addr, r.log)
}

// stopReplicas sends SIGTERM (a graceful drain), escalates to SIGKILL
// after 10 s, and waits until every process has exited.
func stopReplicas(rs []*replica) {
	for _, r := range rs {
		_ = r.cmd.Process.Signal(syscall.SIGTERM)
	}
	for _, r := range rs {
		select {
		case <-r.done:
		case <-time.After(10 * time.Second):
			_ = r.cmd.Process.Kill()
			<-r.done
		}
	}
}

// redirectFlag marks a request context whose request followed a
// redirect.
type redirectFlag struct{}

// countRedirects is a CheckRedirect hook that counts every redirect
// followed and flags the request's context.
func countRedirects(n *atomic.Int64) func(*http.Request, []*http.Request) error {
	return func(req *http.Request, via []*http.Request) error {
		if len(via) >= 10 {
			return errors.New("stopped after 10 redirects")
		}
		n.Add(1)
		if f, ok := req.Context().Value(redirectFlag{}).(*atomic.Bool); ok {
			f.Store(true)
		}
		return nil
	}
}

// call is one finished request.
type call struct {
	kind       string
	code       int
	body       []byte
	start, end time.Time
	redirected bool
	err        error
}

// loadClient is one closed-loop client.
type loadClient struct {
	hc        *http.Client
	redirects atomic.Int64
	ops       *ops
	failures  []string
	nextID    *atomic.Uint64
	tr        *Tracer // set for the traced phase
	stats     *phaseStats
}

func newLoadClient(o *ops, ids *atomic.Uint64) *loadClient {
	c := &loadClient{ops: o, nextID: ids}
	c.hc = &http.Client{
		Transport: &http.Transport{MaxIdleConnsPerHost: 8, IdleConnTimeout: time.Minute, DisableCompression: true},
		Timeout:   30 * time.Second,
		// The hook also stops the client from following a redirect to a
		// different method: a 307 keeps method and body.
		CheckRedirect: countRedirects(&c.redirects),
	}
	return c
}

func (c *loadClient) do(ctx context.Context, kind, method, url string, body []byte) call {
	var flag atomic.Bool
	ctx = context.WithValue(ctx, redirectFlag{}, &flag)
	cl := call{kind: kind, start: time.Now()}
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, rd)
	if err == nil {
		if body != nil {
			req.Header.Set("Content-Type", "application/json")
		}
		var resp *http.Response
		if resp, err = c.hc.Do(req); err == nil {
			cl.code = resp.StatusCode
			cl.body, err = io.ReadAll(resp.Body)
			resp.Body.Close()
		}
	}
	cl.end = time.Now()
	cl.err = err
	cl.redirected = flag.Load()
	if c.ops.note(classify(cl.code, err)) && len(c.failures) < 5 {
		c.failures = append(c.failures, fmt.Sprintf("%s %s: code %d err %v body %.200s", method, url, cl.code, err, cl.body))
	}
	if c.stats != nil {
		c.stats.record(cl)
	}
	if c.tr != nil {
		c.tr.Record(c.nextID.Add(1), -1, "http."+kind, cl.start, cl.end)
	}
	return cl
}

// phaseStats collects one phase's client-side samples.
type phaseStats struct {
	mu         sync.Mutex
	from, to   time.Time
	ack        samples
	ackDirect  samples
	ackRedir   samples
	queries    samples
	status     samples
	tasks      samples
	requests   int
	redirected int
	// sliceAcks[i] are the ack latencies of the window's i-th second.
	sliceAcks []samples
}

// slicedRate is the median over the window's whole seconds of the acks
// completed in each: a steady-state rate that a few seconds of host
// interference do not move.
func (p *phaseStats) slicedRate() float64 {
	var rates samples
	for i, a := range p.sliceAcks {
		if p.from.Add(time.Duration(i+1) * time.Second).After(p.to) {
			break // the last, partial second
		}
		rates = append(rates, float64(len(a)))
	}
	if len(rates) == 0 {
		return float64(len(p.ack)) / p.to.Sub(p.from).Seconds()
	}
	return rates.pct(50)
}

func (p *phaseStats) record(cl call) {
	if cl.start.Before(p.from) || !cl.end.Before(p.to) {
		return
	}
	d := cl.end.Sub(cl.start)
	p.mu.Lock()
	defer p.mu.Unlock()
	p.requests++
	if cl.redirected {
		p.redirected++
	}
	switch {
	case cl.kind == "answers" && cl.code == http.StatusAccepted:
		p.ack.add(d)
		i := int(cl.end.Sub(p.from) / time.Second)
		for len(p.sliceAcks) <= i {
			p.sliceAcks = append(p.sliceAcks, nil)
		}
		p.sliceAcks[i].add(d)
		if cl.redirected {
			p.ackRedir.add(d)
		} else {
			p.ackDirect.add(d)
		}
	case cl.kind == "queries":
		p.queries.add(d)
	case cl.kind == "status":
		p.status.add(d)
	case cl.kind == "tasks":
		p.tasks.add(d)
	}
}

// slot is a client's running session for one slot plan.
type slot struct {
	plan     *slotPlan
	wave     int
	name     string
	owner    string // replica address the session's requests go to
	rounds   int    // rounds the first expert answered in this session
	nextFrag int
	finished bool
	created  time.Time
}

// servedRun is the shared state of one served workload run.
type servedRun struct {
	spec     servedSpec
	replicas []*replica
	ring     *cluster.Ring
	r        *report
	prefix   string
	// labels[slot] are the labels of the slot's first finished wave;
	// every later wave must match them.
	mu     sync.Mutex
	labels [][]bool
	waves  int
}

// target picks the replica a session's requests are sent to: the ring
// owner, except for the quarter of the slots that go through a
// non-owner and take a 307.
func (s *servedRun) target(name string, slotIdx int) string {
	if s.ring == nil {
		return s.replicas[0].addr
	}
	owner := s.ring.Owner(name)
	if slotIdx%4 != 3 {
		return owner
	}
	for _, r := range s.replicas {
		if r.addr != owner {
			return r.addr
		}
	}
	return owner
}

func (s *servedRun) create(ctx context.Context, c *loadClient, sl *slot) error {
	sl.name = fmt.Sprintf("%s%02d-w%d", s.prefix, sl.plan.slot, sl.wave)
	sl.owner = s.target(sl.name, sl.plan.slot)
	sl.rounds, sl.nextFrag, sl.created = 0, 0, time.Now()
	body, err := json.Marshal(sl.plan.request(sl.name))
	if err != nil {
		return err
	}
	cl := c.do(ctx, "create", http.MethodPost, "http://"+sl.owner+"/v1/sessions", body)
	if cl.code != http.StatusCreated {
		return fmt.Errorf("create %s: code %d err %v: %.200s", sl.name, cl.code, cl.err, cl.body)
	}
	return nil
}

// step visits one slot once: each expert answers the open round if
// there is one; with nothing open the client polls the status, and a
// finished session is verified, deleted and replaced by the next wave
// while the window will still cover at least half of one; that bounds
// the untimed drain after the window.
func (s *servedRun) step(ctx context.Context, c *loadClient, sl *slot, closeAt time.Time) error {
	base := "http://" + sl.owner + "/v1/sessions/" + sl.name
	acks := 0
	for ei, ex := range sl.plan.experts {
		q := c.do(ctx, "queries", http.MethodGet, base+"/queries?worker="+ex, nil)
		if q.code != http.StatusOK {
			continue
		}
		var qr server.Query
		if err := json.Unmarshal(q.body, &qr); err != nil {
			return fmt.Errorf("queries %s: %w", sl.name, err)
		}
		body, _ := json.Marshal(map[string]any{"round": qr.Round, "worker": ex, "values": sl.plan.answer(ex, qr.Round, qr.Facts)})
		a := c.do(ctx, "answers", http.MethodPost, base+"/answers", body)
		if a.code != http.StatusAccepted {
			continue
		}
		acks++
		if ei != 0 {
			continue
		}
		sl.rounds++
		// Admissions go out after the first expert's ack and before the
		// second expert's sealing answer, so the engine folds them in at
		// the same round boundary every time.
		if admitDue(s.spec, sl.rounds, sl.nextFrag) {
			t := c.do(ctx, "tasks", http.MethodPost, base+"/tasks", sl.plan.admits[sl.nextFrag])
			if t.code != http.StatusAccepted {
				return fmt.Errorf("admit %s #%d: code %d err %v: %.200s", sl.name, sl.nextFrag, t.code, t.err, t.body)
			}
			sl.nextFrag++
		}
	}
	if acks > 0 {
		return nil
	}
	st := c.do(ctx, "status", http.MethodGet, base+"/status", nil)
	var status server.Status
	if st.code != http.StatusOK || json.Unmarshal(st.body, &status) != nil || !status.Done {
		return nil
	}
	if status.Error != "" {
		return fmt.Errorf("session %s failed: %s", sl.name, status.Error)
	}
	lb := c.do(ctx, "labels", http.MethodGet, base+"/labels", nil)
	var labels struct {
		Labels []bool `json:"labels"`
	}
	if lb.code != http.StatusOK || json.Unmarshal(lb.body, &labels) != nil {
		return fmt.Errorf("labels %s: code %d err %v", sl.name, lb.code, lb.err)
	}
	s.checkLabels(sl, labels.Labels)
	c.do(ctx, "delete", http.MethodDelete, "http://"+sl.owner+"/v1/sessions/"+sl.name, nil)
	if time.Until(closeAt) < time.Since(sl.created)/2 {
		sl.finished = true
		return nil
	}
	sl.wave++
	return s.create(ctx, c, sl)
}

// waitOpen polls a new session's status until its first round is open.
func (s *servedRun) waitOpen(ctx context.Context, c *loadClient, sl *slot) error {
	url := "http://" + sl.owner + "/v1/sessions/" + sl.name + "/status"
	for ctx.Err() == nil {
		st := c.do(ctx, "status", http.MethodGet, url, nil)
		var status server.Status
		if st.code != http.StatusOK || json.Unmarshal(st.body, &status) != nil {
			return fmt.Errorf("status %s: code %d err %v", sl.name, st.code, st.err)
		}
		if status.OpenRound > 0 || status.Done {
			return nil
		}
		time.Sleep(time.Millisecond)
	}
	return ctx.Err()
}

func (s *servedRun) checkLabels(sl *slot, labels []bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.waves++
	if len(labels) != len(sl.plan.truth) {
		s.r.gate("%s: session %s labels cover %d of %d facts", s.spec.name, sl.name, len(labels), len(sl.plan.truth))
		return
	}
	if s.labels[sl.plan.slot] == nil {
		s.labels[sl.plan.slot] = labels
	} else if boolsDigest(labels) != boolsDigest(s.labels[sl.plan.slot]) {
		s.r.gate("%s: session %s labels differ from slot %d's first wave", s.spec.name, sl.name, sl.plan.slot)
	}
}

// drive runs every client's closed loop until close, then lets each
// client finish its live sessions without starting new ones.
func (s *servedRun) drive(ctx context.Context, clients []*loadClient, slots [][]*slot, phases []*phaseStats, closeAt time.Time) error {
	errs := make(chan error, len(clients))
	var wg sync.WaitGroup
	for ci, c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				now := time.Now()
				// A traced run alternates: sweeps starting in an even second
				// of the window are traced, the others not.
				c.stats, c.tr = phases[0], nil
				if len(phases) > 1 && int(now.Sub(phases[0].from)/time.Second)%2 == 1 {
					c.stats = phases[1]
				} else if len(phases) > 1 {
					c.tr = s.r.spans
				}
				live := 0
				for _, sl := range slots[ci] {
					if sl.finished {
						continue
					}
					live++
					if err := s.step(ctx, c, sl, closeAt); err != nil {
						errs <- err
						return
					}
				}
				if live == 0 {
					errs <- nil
					return
				}
				if ctx.Err() != nil {
					errs <- ctx.Err()
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

func runServed(ctx context.Context, e *env, spec servedSpec) (*report, error) {
	// This process is the load generator, not the system under test:
	// fewer of its GC cycles leave more of the shared CPUs to the
	// servers and fewer pauses in the client-side latencies.
	defer debug.SetGCPercent(debug.SetGCPercent(400))
	r := newReport(e)
	plans, err := makePlans(e.seed, spec)
	if err != nil {
		return nil, err
	}
	s := &servedRun{spec: spec, r: r, labels: make([][]bool, len(plans))}
	var ids atomic.Uint64
	clients := make([]*loadClient, servedClients)
	for i := range clients {
		clients[i] = newLoadClient(&r.ops, &ids)
	}
	defer func() {
		if s.replicas != nil {
			stopReplicas(s.replicas)
		}
	}()

	// Set-up — boot the replicas and create every slot's first wave — is
	// repeated and timed; the last repetition's servers run the workload.
	var setups samples
	var slots [][]*slot
	for rep := 0; rep < 3; rep++ {
		if s.replicas != nil {
			stopReplicas(s.replicas)
			s.replicas = nil
		}
		dir := filepath.Join(e.runDir, fmt.Sprintf("setup%d", rep))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
		t := time.Now()
		if s.replicas, err = startReplicas(ctx, e, spec, dir, plans[0].dsJSON); err != nil {
			return nil, err
		}
		if spec.replicas > 1 {
			addrs := make([]string, len(s.replicas))
			for i, rp := range s.replicas {
				addrs[i] = rp.addr
			}
			if s.ring, err = cluster.New(addrs, cluster.DefaultVNodes); err != nil {
				return nil, err
			}
		}
		s.prefix = fmt.Sprintf("r%d-s", rep)
		slots = make([][]*slot, servedClients)
		for i, p := range plans {
			sl := &slot{plan: p}
			if err := s.create(ctx, clients[i%servedClients], sl); err != nil {
				return nil, fmt.Errorf("%w; server log: %s", err, s.replicas[0].log)
			}
			slots[i%servedClients] = append(slots[i%servedClients], sl)
		}
		// A session initializes its beliefs (EBCC) after the create
		// returns; set-up ends once every first round is open.
		for ci, cs := range slots {
			for _, sl := range cs {
				if err := s.waitOpen(ctx, clients[ci], sl); err != nil {
					return nil, err
				}
			}
		}
		setups.add(time.Since(t))
	}
	r.e2e["setup_s"] = setups.pct(50) / 1e3

	// The timed window. A traced run collects the traced seconds in
	// phases[0] and the untraced ones in phases[1], so both see the same
	// stretch of the run.
	start := time.Now()
	end := start.Add(time.Duration(e.seconds * float64(time.Second)))
	phases := []*phaseStats{{from: start, to: end}}
	if e.trace {
		phases = append(phases, &phaseStats{from: start, to: end})
		r.spans = newTracer()
	}
	// The process counters are read at the window's edges.
	probe := newProcProbe(s.replicas)
	edges := make(chan [2]procSample, 1)
	go func() {
		from := probe.sampleAt(start)
		edges <- [2]procSample{from, probe.sampleAt(end)}
	}()
	err = s.drive(ctx, clients, slots, phases, end)
	edge := <-edges
	if err != nil {
		for _, c := range clients {
			r.extraLog = append(r.extraLog, c.failures...)
		}
		return nil, fmt.Errorf("%s: %w; server log: %s", spec.name, err, s.replicas[0].log)
	}
	var rss float64
	for _, rp := range s.replicas {
		rss += procHWMMB(rp.cmd.Process.Pid)
	}
	stopReplicas(s.replicas)
	s.replicas = nil
	for _, c := range clients {
		r.extraLog = append(r.extraLog, c.failures...)
	}

	// Every slot's labels must equal an in-process replay of the same job
	// through the session layer, with no HTTP in between.
	rep, err := replaySlots(ctx, e, spec, plans, r)
	if err != nil {
		return nil, err
	}
	if e.trace && !spec.journal {
		// serve's traced run also replays four of the cluster workload's
		// streaming jobs through a journaled manager, so that a listed
		// workload measures the journaled session calls, the journal
		// writer and the ring.
		durable, err := makePlans(e.seed, clusterSpec)
		if err != nil {
			return nil, err
		}
		d, err := replaySlots(ctx, e, clusterSpec, durable[:4], r)
		if err != nil {
			return nil, err
		}
		for i, l := range d.labels {
			if len(l) != len(durable[i].truth) {
				r.gate("durable replay %d: labels cover %d of %d facts", i, len(l), len(durable[i].truth))
			}
		}
	}
	var dg digest
	var acc float64
	for i, p := range plans {
		if s.labels[i] == nil {
			r.gate("%s: slot %d never finished a session", spec.name, i)
		} else if boolsDigest(s.labels[i]) != boolsDigest(rep.labels[i]) {
			r.gate("%s: slot %d HTTP labels differ from the in-process replay", spec.name, i)
		}
		if len(rep.labels[i]) != len(p.truth) {
			r.gate("%s: slot %d replay labels cover %d of %d facts", spec.name, i, len(rep.labels[i]), len(p.truth))
		}
		dg.bools(rep.labels[i])
		acc += rep.accuracy[i]
	}
	checkPin(r, spec.name, e.seed, dg.String())

	ph := phases[len(phases)-1] // the untraced window
	window := ph.to.Sub(ph.from).Seconds()
	r.e2e["primary_ms"] = ph.ack.pct(50)
	r.e2e["primary_ms_tail"] = ph.ack.tail(r, "acks", 90)
	r.e2e["secondary_ms"] = ph.queries.pct(50)
	r.e2e["secondary_ms_tail"] = ph.queries.tail(r, "query polls", 90)
	r.e2e["throughput_per_s"] = ph.slicedRate()
	r.e2e["label_accuracy"] = acc / float64(len(plans))
	r.e2e["peak_rss_mb"] = rss
	r.extraLog = append(r.extraLog, ph.ack.summary("ack_ms"), ph.queries.summary("queries_ms"),
		fmt.Sprintf("answers_per_s %.1f over %.2fs; %d session waves verified; label digest %s",
			float64(len(ph.ack))/window, window, s.waves, dg.String()))
	var sl []string
	for _, a := range ph.sliceAcks {
		sl = append(sl, fmt.Sprintf("%d/%.3f", len(a), a.pct(50)))
	}
	r.extraLog = append(r.extraLog, "per-second acks/p50: "+strings.Join(sl, " "))

	if e.trace {
		tp := phases[0]
		acks := float64(len(tp.ack))
		r.layer["server.http.queries_us"] = tp.queries.pct(50) * 1e3
		r.layer["server.http.status_us"] = tp.status.pct(50) * 1e3
		r.layer["server.http.tasks_us"] = tp.tasks.pct(50) * 1e3
		r.layer["server.http.requests_per_ack"] = float64(tp.requests) / acks
		answerUS := r.layer["server.answer_us.memory"]
		if spec.journal {
			answerUS = r.layer["server.answer_us.journaled"]
		}
		r.layer["server.http.ack_overhead_us"] = tp.ack.pct(50)*1e3 - answerUS
		r.layer["trace.overhead_pct"] = (tp.ack.pct(50)/ph.ack.pct(50) - 1) * 100
		// The process counters cover the whole window, traced and
		// untraced seconds alike.
		d := edge[1].sub(edge[0])
		all := float64(len(tp.ack) + len(ph.ack))
		r.layer["proc.server_cpu_ms_per_kack"] = float64(d.serverCPU) / 1e6 / all * 1000
		r.layer["proc.loadgen_cpu_share"] = float64(d.selfCPU) / float64(d.wall)
		if spec.journal {
			r.layer["journal.write_bytes_per_ack"] = float64(d.writeBytes) / all
		}
		if spec.replicas > 1 {
			r.layer["cluster.redirect_share"] = float64(tp.redirected) / float64(tp.requests)
			r.layer["cluster.redirected_ack_us"] = tp.ackRedir.pct(50) * 1e3
			r.layer["cluster.direct_ack_us"] = tp.ackDirect.pct(50) * 1e3
		}
	}
	return r, nil
}

// procSample is a point-in-time reading of the processes' counters.
type procSample struct {
	wall       time.Duration
	selfCPU    time.Duration
	serverCPU  time.Duration
	writeBytes int64
}

func (a procSample) sub(b procSample) procSample {
	return procSample{a.wall - b.wall, a.selfCPU - b.selfCPU, a.serverCPU - b.serverCPU, a.writeBytes - b.writeBytes}
}

type procProbe struct {
	epoch time.Time
	pids  []int
}

func newProcProbe(rs []*replica) *procProbe {
	p := &procProbe{epoch: time.Now()}
	for _, r := range rs {
		p.pids = append(p.pids, r.cmd.Process.Pid)
	}
	return p
}

func (p *procProbe) sample() procSample {
	s := procSample{wall: time.Since(p.epoch), selfCPU: cpuTime()}
	for _, pid := range p.pids {
		s.serverCPU += procCPU(pid)
		s.writeBytes += procWriteBytes(pid)
	}
	return s
}

// sampleAt samples at t, or now when t has passed.
func (p *procProbe) sampleAt(t time.Time) procSample {
	time.Sleep(time.Until(t))
	return p.sample()
}
