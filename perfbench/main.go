// Command perfbench is the repository benchmark: it runs one named
// workload against the hcrowd packages (batch, wide) or against real
// hcserve processes built from the tree (serve, cluster), checks the
// outputs, and prints one JSON result line.
//
//	perfbench --workload batch --seed 1 --seconds 15 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics of
// BENCHMARK.json; with --trace 1 it carries the per-layer metrics, taken
// from spans recorded around calls into each layer, plus the tracing
// overhead. See README.md for what each workload drives and bypasses.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// metric is one named number of a result, with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// env is what a workload run is given.
type env struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// binDir holds the hcserve binary; runDir is this run's scratch
	// directory (journals, dataset files), on the checkout's disk.
	binDir string
	runDir string
}

// report is what a workload run returns.
type report struct {
	traced   bool
	ops      ops
	e2e      map[string]float64 // by end-to-end metric name
	layer    map[string]float64 // by per-layer metric name
	gates    []string           // failed correctness gates
	spans    *Tracer            // the traced run's spans, written out at the end
	extraLog []string           // workload-specific human lines
}

func newReport(e *env) *report {
	return &report{traced: e.trace, e2e: map[string]float64{}, layer: map[string]float64{}}
}

// gate records a failed correctness check.
func (r *report) gate(format string, args ...any) {
	r.gates = append(r.gates, fmt.Sprintf(format, args...))
}

// buildDir, relative to the repository root the benchmark runs from,
// holds the binaries run.sh builds, each run's scratch directory
// (journals, dataset files) and the traced runs' spans.
const buildDir = ".bench_build"

type workloadFunc func(ctx context.Context, e *env) (*report, error)

var workloads = map[string]workloadFunc{
	"batch":   runBatch,
	"wide":    runWide,
	"serve":   runServe,
	"cluster": runCluster,
}

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name    = fs.String("workload", "", "workload: batch, wide, serve or cluster")
		seed    = fs.Int64("seed", defaultSeed, "workload seed; every input is generated from it")
		seconds = fs.Float64("seconds", 15, "length of the timed window")
		trace   = fs.Int("trace", 0, "1 = traced run reporting the per-layer metrics")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	wf, ok := workloads[*name]
	if !ok {
		return fmt.Errorf("unknown workload %q", *name)
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		return errors.New("need --seconds > 0 and --trace 0|1")
	}
	runDir := filepath.Join(buildDir, "run", fmt.Sprintf("%s-%d-%d", *name, *seed, os.Getpid()))
	if err := os.MkdirAll(runDir, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(runDir)
	bin, err := filepath.Abs(filepath.Join(buildDir, "bin"))
	if err != nil {
		return err
	}
	e := &env{workload: *name, seed: *seed, seconds: *seconds, trace: *trace == 1,
		binDir: bin, runDir: runDir}

	hdr := header(e)
	fmt.Fprintf(stdout, "# header %s\n", mustJSON(hdr))

	// A run never needs more than the window plus set-up, drain and
	// replay; the deadline turns a wedged server into an error instead of
	// a hung benchmark.
	ctx, cancel := context.WithTimeout(context.Background(), time.Duration(*seconds*float64(time.Second))+120*time.Second)
	defer cancel()
	rep, err := wf(ctx, e)
	if err != nil {
		return err
	}
	if rep.spans != nil {
		if err := rep.spans.WriteFile(filepath.Join(buildDir, "traces", fmt.Sprintf("%s-seed%d.jsonl", *name, *seed))); err != nil {
			return err
		}
	}
	res := result{
		Correct:   len(rep.gates) == 0,
		Attempted: rep.ops.attempted.Load(),
		Failed:    rep.ops.failed.Load(),
		Metrics:   map[string]metric{},
	}
	if res.Attempted < 1 {
		res.Correct = false
		rep.gate("no operation attempted")
	}
	table, values := endToEnd, rep.e2e
	if e.trace {
		table, values = perLayer, rep.layer
		values["harness.failed_frac"] = rep.ops.failedFrac()
	}
	for _, m := range table {
		v, ok := values[m.name]
		if !ok && !e.trace {
			res.Correct = false
			rep.gate("end-to-end metric %s not measured", m.name)
		}
		res.Metrics[m.name] = metric{Value: v, Unit: m.unit}
	}
	for _, l := range rep.extraLog {
		fmt.Fprintln(stdout, "#", l)
	}
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(stdout, "# %-40s %14.6g %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	for _, g := range rep.gates {
		fmt.Fprintln(stdout, "# GATE FAILED:", g)
	}
	fmt.Fprintf(stdout, "%s\n", mustJSON(res))
	return nil
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return b
}
