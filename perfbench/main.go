// Command perfbench is the repository's benchmark: one seeded workload per
// run, driven only through the library's public entry points (cncount.Count
// and the graph/core calls it composes, and the resident service's HTTP
// handler), with every output checked for correctness. Every workload runs
// the same two phases on its own graph profile, so each reports every
// metric: all-edge counting, then a resident service taking reads beside
// update batches.
//
//	bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// With --trace 0 the last stdout line carries the end-to-end metrics; with
// --trace 1 it carries the per-layer metrics, timed from outside each module,
// and the run writes its spans to .bench_build/spans-<workload>-seed<n>.json.
// The line before it is the run manifest. See README.md for the workloads,
// the metrics and which layer should move which end-to-end number.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"
)

// commit is the source revision, set at build time by run.sh.
var commit = "unknown"

// workDir holds everything a run writes (WAL temp dirs, span files),
// relative to the checkout root the benchmark runs from.
const workDir = ".bench_build"

// config is one run's resolved settings.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// scale multiplies each workload's profile scale; 1 in every real run,
	// smaller in the self-tests.
	scale float64
	// dir receives temp WAL directories and the span file.
	dir string
	// log receives progress and failure diagnostics.
	log io.Writer
}

func (c config) window() time.Duration { return time.Duration(c.seconds * float64(time.Second)) }

// workload is one graph profile put through both phases.
type workload struct {
	count countWorkload
	serve serveWorkload
}

// skew and flat have the same average degree (≈29) and differ in degree
// skew: WI puts ~2/3 of its intersections on hub edges, FR has none. Work
// aimed at skew should move skew and leave flat. Each service graph has
// ≈233 k directed edges, so a batch costs about the same on both.
var workloads = map[string]workload{
	"skew": {count: countWorkload{profile: "WI", scale: 1.0}, serve: serveWorkload{profile: "WI", scale: 0.2}},
	"flat": {count: countWorkload{profile: "FR", scale: 1.0}, serve: serveWorkload{profile: "FR", scale: 0.065}},
}

// countShare is the part of the window the counting phase gets; the
// serving phase gets the rest.
const countShare = 0.5

// phase is what a phase hands back for the metrics both phases feed.
type phase struct {
	setup    float64 // median set-up, seconds
	heapMiB  float64 // the program's peak live heap in the phase
	overhead float64 // traced run: traced over untraced time, minus 1
}

// runWorkload runs the counting phase and then the serving phase, each
// for its share of the window.
func runWorkload(c config, r *run, w workload) error {
	var sp *spans
	if c.trace {
		sp = newSpans()
	}
	pc := c
	pc.seconds = c.seconds * countShare
	cp, err := runCount(pc, r, sp, w.count)
	if err != nil {
		return err
	}
	pc.seconds = c.seconds - pc.seconds
	sv, err := runServe(pc, r, sp, w.serve)
	if err != nil {
		return err
	}
	if c.trace {
		fmt.Fprintf(c.log, "perfbench: trace overhead: counting %.3f, serving %.3f\n", cp.overhead, sv.overhead)
		r.set("trace.overhead_ratio", "ratio", max(cp.overhead, sv.overhead))
		return writeSpans(c, sp)
	}
	r.set("setup_s", "s", cp.setup+sv.setup)
	r.set("heap_live_mb", "MiB", cp.heapMiB+sv.heapMiB)
	return nil
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last stdout line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// run accumulates one run's operations, correctness failures and metrics.
// Safe for concurrent use.
type run struct {
	mu        sync.Mutex
	attempted int64
	failed    int64
	metrics   map[string]metric
	log       io.Writer
}

func newRun(log io.Writer) *run { return &run{metrics: map[string]metric{}, log: log} }

// op records one attempted operation; a non-nil err marks it failed.
func (r *run) op(err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted++
	if err != nil {
		r.failed++
		if r.failed <= 20 {
			fmt.Fprintf(r.log, "perfbench: FAILED: %v\n", err)
		}
	}
}

func (r *run) set(name, unit string, v float64) {
	r.mu.Lock()
	r.metrics[name] = metric{Value: v, Unit: unit}
	r.mu.Unlock()
}

func (r *run) result() result {
	r.mu.Lock()
	defer r.mu.Unlock()
	return result{Correct: r.failed == 0 && r.attempted > 0, Attempted: r.attempted, Failed: r.failed, Metrics: r.metrics}
}

// execute runs one workload and returns its result.
func execute(c config) (result, error) {
	w, ok := workloads[c.workload]
	if !ok {
		return result{}, fmt.Errorf("unknown workload %q (have %s)", c.workload, strings.Join(workloadNames(), ", "))
	}
	r := newRun(c.log)
	if err := runWorkload(c, r, w); err != nil {
		return result{}, err
	}
	return r.result(), nil
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func main() {
	var c config
	var trace int
	flag.StringVar(&c.workload, "workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	flag.Int64Var(&c.seed, "seed", 1, "seed for the generated graph, request stream and update batches")
	flag.Float64Var(&c.seconds, "seconds", 20, "length of the measured window in seconds")
	flag.IntVar(&trace, "trace", 0, "0 = end-to-end metrics, 1 = per-layer metrics and a span file")
	flag.Parse()
	if flag.NArg() > 0 || (trace != 0 && trace != 1) || c.seconds <= 0 {
		flag.Usage()
		os.Exit(2)
	}
	c.trace, c.scale, c.dir, c.log = trace == 1, 1, workDir, os.Stderr
	if err := os.MkdirAll(c.dir, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}

	man := newManifest(c)
	if b, err := json.Marshal(map[string]any{"manifest": man}); err == nil {
		fmt.Println(string(b))
	}
	res, err := execute(c)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(b))
	if !res.Correct {
		os.Exit(1)
	}
}

// manifest records what produced a result.
type manifest struct {
	Workload   string  `json:"workload"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Trace      bool    `json:"trace"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	// Commit is "unknown" when built outside a git checkout.
	Commit string `json:"commit"`
}

func newManifest(c config) manifest {
	return manifest{
		Workload:   c.workload,
		Seed:       c.seed,
		Seconds:    c.seconds,
		Trace:      c.trace,
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     commit,
	}
}

// errFailed marks a correctness check that did not hold.
var errFailed = errors.New("check failed")

func failf(format string, args ...any) error {
	return fmt.Errorf("%w: %s", errFailed, fmt.Sprintf(format, args...))
}

func (c config) spanPath() string {
	return filepath.Join(c.dir, fmt.Sprintf("spans-%s-seed%d.json", c.workload, c.seed))
}
