// Command benchrun is the continuous benchmark harness: it runs a fixed
// matrix of generated graphs × counting algorithms × worker counts,
// records ns/edge, speedup-vs-1-worker, scheduler imbalance and kernel
// counters, and writes a schema-versioned BENCH_<label>.json report
// (internal/benchfmt). In -baseline mode it instead diffs two reports and
// exits non-zero when any matrix cell slowed past the threshold.
//
// Usage:
//
//	benchrun -label local                        # run matrix, write BENCH_local.json
//	benchrun -profiles WI,LJ -scale 0.2 -workers 1,2,4 -reps 3
//	benchrun -algos mps,bmp,adaptive -passes 3   # interleave 3 full-matrix passes
//	benchrun -baseline BENCH_main.json -input BENCH_pr.json -threshold 0.10
//	benchrun -baseline BENCH_main.json           # run matrix, diff against base
//	benchrun -http 127.0.0.1:8080                # watch the live matrix at /dashboard
//	benchrun -logfmt json 2>run.jsonl            # machine-tailable heartbeat events
//	benchrun -ingest -label ingest               # streaming-ingest matrix: updates/sec
//	benchrun -ingest -fsync off -batches 500     # ingest without durability, longer stream
//
// benchrun exits 0 only when the whole run succeeded and, in -baseline
// mode, no regression exceeded the threshold.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"log/slog"
	"os"
	"os/signal"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"cncount"
	"cncount/internal/benchfmt"
	"cncount/internal/logx"
	"cncount/internal/metrics"
	"cncount/internal/obs"
)

// appConfig mirrors the flag set so the whole run is testable without
// touching globals or os.Exit.
type appConfig struct {
	label     string
	out       string
	profiles  string
	scale     float64
	algos     string
	workers   string
	reps      int
	passes    int
	baseline  string
	input     string
	threshold float64
	httpAddr  string
	// ingest switches the harness to the streaming-ingest matrix:
	// batches × batchOps edge mutations per cell through the WAL (under
	// the fsync policy) and the batched incremental repair.
	ingest   bool
	batches  int
	batchOps int
	fsync    string
	// timeout bounds the whole invocation; cellTimeout bounds each cell
	// attempt (a cell gets two attempts before it is recorded as failed).
	timeout     time.Duration
	cellTimeout time.Duration
	logFormat   string
	// logger receives the structured heartbeat events (cell started /
	// finished, retries, plane lifecycle). run() defaults a nil logger to
	// stderr in cfg.logFormat, so test call sites need not set it.
	logger *slog.Logger
	// countFn abstracts the counting call so tests can inject faults into
	// individual cell attempts (e.g. a chaos-driven failure on the first
	// attempt to exercise the retry path). nil means cncount.Count.
	countFn func(g *cncount.Graph, opts cncount.Options) (*cncount.Result, error)
}

// count dispatches to the injected counting function, if any.
func (cfg appConfig) count(g *cncount.Graph, opts cncount.Options) (*cncount.Result, error) {
	if cfg.countFn != nil {
		return cfg.countFn(g, opts)
	}
	return cncount.Count(g, opts)
}

// resolvedConfig records the harness knobs that shape the measurement,
// for the report manifest (and hence for -baseline comparability checks).
func (cfg appConfig) resolvedConfig() map[string]string {
	m := map[string]string{
		"harness":  "benchrun",
		"label":    cfg.label,
		"profiles": cfg.profiles,
		"scale":    strconv.FormatFloat(cfg.scale, 'g', -1, 64),
		"algos":    cfg.algos,
		"workers":  cfg.workers,
		"reps":     strconv.Itoa(cfg.reps),
		"passes":   strconv.Itoa(max(cfg.passes, 1)),
	}
	if cfg.ingest {
		m["mode"] = "ingest"
		m["batches"] = strconv.Itoa(cfg.batches)
		m["batchops"] = strconv.Itoa(cfg.batchOps)
		m["fsync"] = cfg.fsync
	}
	return m
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("benchrun: ")

	var cfg appConfig
	flag.StringVar(&cfg.label, "label", "local", "report label (names the default output file)")
	flag.StringVar(&cfg.out, "out", "", `output path (default "BENCH_<label>.json"; "-" = stdout)`)
	flag.StringVar(&cfg.profiles, "profiles", "WI,OR", "comma-separated dataset profiles to run")
	flag.Float64Var(&cfg.scale, "scale", 0.2, "profile scale for every graph in the matrix")
	flag.StringVar(&cfg.algos, "algos", "mps,bmp", "comma-separated algorithms (m, mps, bmp, bmprf, adaptive)")
	flag.StringVar(&cfg.workers, "workers", "1,2,4", "comma-separated worker counts")
	flag.IntVar(&cfg.reps, "reps", 3, "repetitions per cell (best is reported)")
	flag.IntVar(&cfg.passes, "passes", 1, "full-matrix passes; each cell reports its best across passes x reps, interleaving cells across time so slow machine drift cannot bias one algorithm")
	flag.StringVar(&cfg.baseline, "baseline", "", "diff mode: baseline BENCH_*.json to compare against")
	flag.StringVar(&cfg.input, "input", "", "diff mode: head BENCH_*.json (empty = run the matrix)")
	flag.Float64Var(&cfg.threshold, "threshold", 0.10, "relative ns/edge slowdown that fails the diff")
	flag.StringVar(&cfg.httpAddr, "http", "", "serve the observability plane (/metrics, /progress, ...) on this address while the matrix runs")
	flag.BoolVar(&cfg.ingest, "ingest", false, "run the streaming-ingest matrix (the serve.Ingester write path: WAL append, batched repair, CSR rebuild, epoch swap) instead of the counting matrix; reports updates/sec")
	flag.IntVar(&cfg.batches, "batches", 200, "ingest mode: update batches per cell")
	flag.IntVar(&cfg.batchOps, "batchops", 64, "ingest mode: edge mutations per batch")
	flag.StringVar(&cfg.fsync, "fsync", "batch", "ingest mode: WAL fsync policy (batch, interval, off)")
	flag.DurationVar(&cfg.timeout, "timeout", 0, "abort the whole run after this long (0 = no limit)")
	flag.DurationVar(&cfg.cellTimeout, "celltimeout", 0, "time limit per cell attempt; a cell is retried once, then recorded as failed (0 = no limit)")
	flag.StringVar(&cfg.logFormat, "logfmt", "text", "log output format: "+logx.Formats)
	flag.Parse()

	// SIGINT/SIGTERM cancel the matrix cooperatively: the current cell's
	// counting run stops at the next task boundary, the partially filled
	// report is still written, and the exit code is non-zero.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if err := run(ctx, cfg, os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// liveObs is the optional observability hookup shared across matrix
// cells when -http is set: one Progress spanning every cell's parallel
// region, and the collector of the rep currently running so /metrics
// scrapes always see live tallies. A nil *liveObs disables both.
type liveObs struct {
	prog *cncount.Progress
	mc   atomic.Pointer[cncount.Metrics]
}

func (l *liveObs) progress() *cncount.Progress {
	if l == nil {
		return nil
	}
	return l.prog
}

func (l *liveObs) snapshot() metrics.Snapshot {
	if mc := l.mc.Load(); mc != nil {
		return mc.Snapshot()
	}
	return metrics.Snapshot{}
}

// run executes one harness invocation. Every failure — a bad flag, a
// cell recorded as failed, an aborted matrix, an output write error, or a
// past-threshold regression in -baseline mode — is returned so main can
// exit non-zero. A matrix aborted by -timeout or a signal still writes
// whatever cells it completed before returning the abort error.
func run(ctx context.Context, cfg appConfig, stdout io.Writer) error {
	logger := cfg.logger
	if logger == nil {
		var err error
		if logger, err = logx.New(os.Stderr, cfg.logFormat, "benchrun"); err != nil {
			return err
		}
	}
	out := &errWriter{w: stdout}
	manifest := cncount.NewManifest(cfg.resolvedConfig())

	if cfg.timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, cfg.timeout)
		defer cancel()
	}
	// A run-scoped cancel guarantees ctx.Done() fires by the time run
	// returns, bounding the plane's drain watcher below.
	ctx, cancelRun := context.WithCancel(ctx)
	defer cancelRun()

	var live *liveObs
	if cfg.httpAddr != "" {
		live = &liveObs{prog: cncount.NewProgress()}
		// The flight recorder spans every matrix cell: /timeseries.json and
		// /dashboard show the whole run's series, with region turnover at
		// each cell boundary.
		rec := obs.NewRecorder(obs.RecorderOptions{Progress: live.prog})
		rec.Start()
		defer rec.Stop()
		plane := obs.New(obs.Options{
			Snapshot: live.snapshot,
			Progress: live.prog,
			Recorder: rec,
			Manifest: &manifest,
			Logf:     logx.Printf(logger),
		})
		addr, err := plane.Start(cfg.httpAddr)
		if err != nil {
			return fmt.Errorf("observability plane: %w", err)
		}
		logger.Info("observability plane listening on http://"+addr.String()+"/", "addr", addr.String())
		// Flip /healthz to "draining" the moment the run is canceled, so
		// pollers see the shutdown before the listener goes away. The
		// watcher always exits: cancelRun fires when run returns.
		go func() {
			<-ctx.Done()
			plane.BeginDrain()
		}()
		defer func() {
			if err := plane.Close(); err != nil {
				logger.Error("observability plane shutdown failed", "err", err)
			}
		}()
	}

	if cfg.baseline != "" {
		if err := runDiff(ctx, cfg, out, manifest, live, logger); err != nil {
			return err
		}
		return out.err
	}

	var report *benchfmt.Report
	var runErr error
	if cfg.ingest {
		report, runErr = runIngest(ctx, cfg, out, manifest, logger)
	} else {
		report, runErr = runMatrix(ctx, cfg, out, manifest, live, logger)
	}
	if report == nil {
		return runErr
	}
	path := cfg.out
	if path == "" {
		path = "BENCH_" + cfg.label + ".json"
	}
	if path == "-" {
		if err := report.Write(out); err != nil {
			return err
		}
	} else {
		if err := benchfmt.WriteFile(path, report); err != nil {
			return fmt.Errorf("writing report: %w", err)
		}
		fmt.Fprintf(out, "wrote %s (%d results)\n", path, len(report.Results))
	}
	if runErr != nil {
		return runErr
	}
	if n := countFailed(report); n > 0 {
		return fmt.Errorf("%d of %d cells failed", n, len(report.Results))
	}
	return out.err
}

// countFailed tallies cells recorded as failed in a report.
func countFailed(r *benchfmt.Report) int {
	n := 0
	for _, res := range r.Results {
		if res.Failed {
			n++
		}
	}
	return n
}

// runDiff loads base and head (running the matrix when no -input file is
// given), prints the comparison, and fails on regressions. Manifest
// divergence between the reports is warned about but never fails the
// diff: comparing across revisions is the point of -baseline, comparing
// across machines or toolchains usually is not.
func runDiff(ctx context.Context, cfg appConfig, out *errWriter, manifest cncount.Manifest, live *liveObs, logger *slog.Logger) error {
	base, err := benchfmt.LoadFile(cfg.baseline)
	if err != nil {
		return fmt.Errorf("baseline: %w", err)
	}
	var head *benchfmt.Report
	if cfg.input != "" {
		head, err = benchfmt.LoadFile(cfg.input)
		if err != nil {
			return fmt.Errorf("input: %w", err)
		}
	} else {
		head, err = runMatrix(ctx, cfg, out, manifest, live, logger)
		if err != nil {
			return err
		}
	}

	for _, w := range benchfmt.ManifestWarnings(base, head) {
		fmt.Fprintf(out, "warning: %s\n", w)
	}
	d := benchfmt.Diff(base, head, cfg.threshold)
	fmt.Fprintf(out, "diff %s (base) vs %s (head), threshold +%.0f%%\n",
		base.Label, head.Label, 100*cfg.threshold)
	for _, delta := range d.Deltas {
		status := "ok"
		if delta.Regressed {
			status = "REGRESSED"
		}
		fmt.Fprintf(out, "  %-16s %8.2f -> %8.2f ns/edge  (%+6.1f%%)  %s\n",
			delta.Key, delta.BaseNsPerEdge, delta.HeadNsPerEdge,
			100*(delta.Ratio-1), status)
	}
	for _, k := range d.MissingInHead {
		fmt.Fprintf(out, "  %-16s missing in head  REGRESSED\n", k)
	}
	for _, k := range d.FailedInHead {
		fmt.Fprintf(out, "  %-16s failed in head  REGRESSED\n", k)
	}
	for _, k := range d.MissingInBase {
		fmt.Fprintf(out, "  %-16s new in head\n", k)
	}
	if d.Regressions > 0 {
		return fmt.Errorf("%d of %d cells regressed past +%.0f%%",
			d.Regressions, len(base.Results), 100*cfg.threshold)
	}
	fmt.Fprintf(out, "no regressions across %d cells\n", len(d.Deltas))
	return nil
}

// cellKey identifies one matrix cell when merging results across passes.
type cellKey struct {
	profile string
	algo    int // index into the algo list, not the enum
	workers int
}

// runMatrix executes the benchmark matrix and assembles the report.
// Graphs are generated and degree-reordered once per profile; each cell
// runs cfg.reps times and keeps the best elapsed time, as the paper's
// methodology (and benchmarking practice generally) prescribes for
// noise-prone wall-clock measurements.
//
// With -passes > 1 the whole matrix repeats and every cell keeps its
// best result across passes. A single sequential sweep measures each
// cell in a different slice of wall-clock time, so slow machine drift
// (a backup job, thermal throttling) lands on whichever algorithm was
// running then and skews the comparison; interleaved passes give every
// cell a shot at every time slice, so the per-cell minimum converges on
// the machine's quiet-state number for all algorithms alike.
func runMatrix(ctx context.Context, cfg appConfig, out *errWriter, manifest cncount.Manifest, live *liveObs, logger *slog.Logger) (*benchfmt.Report, error) {
	profiles, err := splitList(cfg.profiles)
	if err != nil {
		return nil, err
	}
	algoNames, err := splitList(cfg.algos)
	if err != nil {
		return nil, err
	}
	algos := make([]cncount.Algorithm, len(algoNames))
	for i, name := range algoNames {
		if algos[i], err = parseAlgo(name); err != nil {
			return nil, err
		}
	}
	workers, err := splitInts(cfg.workers)
	if err != nil {
		return nil, err
	}
	if cfg.reps < 1 {
		return nil, fmt.Errorf("reps %d < 1", cfg.reps)
	}
	// The zero value means "not set": configs built in code (tests) skip
	// the flag default, and a matrix always runs at least one pass.
	passes := cfg.passes
	if passes < 1 {
		passes = 1
	}

	report := &benchfmt.Report{
		Schema:     benchfmt.Schema,
		Label:      cfg.label,
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Manifest:   &manifest,
	}
	// Generate and reorder every profile's graph up front, once: each
	// cell measures counting on the same degree-descending graph, not
	// the preprocessing, and later passes reuse the graphs.
	graphs := make([]*cncount.Graph, len(profiles))
	for i, profile := range profiles {
		g, err := cncount.GenerateProfile(profile, cfg.scale)
		if err != nil {
			return nil, err
		}
		graphs[i], _ = cncount.ReorderByDegree(g)
	}

	best := make(map[cellKey]*benchfmt.Result)
	// emit flushes the merged per-cell bests into the report in the
	// deterministic (profile, algo, workers) order regardless of how
	// many passes ran or where an abort struck, computing speedups from
	// the merged results so SpeedupVs1 compares best against best.
	emit := func() {
		for _, profile := range profiles {
			for ai := range algos {
				var one int64
				if r, ok := best[cellKey{profile, ai, 1}]; ok && !r.Failed {
					one = r.ElapsedNanos
				}
				for _, w := range workers {
					res, ok := best[cellKey{profile, ai, w}]
					if !ok {
						continue
					}
					if res.Failed {
						fmt.Fprintf(out, "%-4s %-6s w%-2d  FAILED: %s\n", profile, res.Algo, w, res.Error)
						report.Results = append(report.Results, *res)
						continue
					}
					if one > 0 && res.ElapsedNanos > 0 {
						res.SpeedupVs1 = float64(one) / float64(res.ElapsedNanos)
					}
					report.Results = append(report.Results, *res)
					fmt.Fprintf(out, "%-4s %-6s w%-2d  %9.2f ns/edge  speedup %.2fx  imbalance %.2f  steals %d\n",
						profile, res.Algo, w, res.NsPerEdge, res.SpeedupVs1, res.ImbalanceRatio, res.Steals)
				}
			}
		}
		report.CreatedUnix = time.Now().Unix()
	}

	for pass := 1; pass <= passes; pass++ {
		for pi, profile := range profiles {
			rg := graphs[pi]
			for ai, algo := range algos {
				for _, w := range workers {
					if err := ctx.Err(); err != nil {
						// The invocation itself was canceled (signal or
						// -timeout): stop scheduling cells, hand back what
						// completed so run can still write the partial report.
						emit()
						return report, fmt.Errorf("matrix aborted before cell %s/%s/w%d: %w", profile, algo, w, err)
					}
					// Heartbeat events go to the structured log (stderr by
					// default), not the report stream: a long matrix stays
					// watchable without polluting `-out -` JSON on stdout.
					cell := fmt.Sprintf("%s/%s/w%d", profile, algo, w)
					cellLog := logger.With("cell", cell)
					if passes > 1 {
						cellLog = cellLog.With("pass", pass, "passes", passes)
					}
					cellLog.Info("cell started", "reps", cfg.reps)
					cellStart := time.Now()
					res, err := runCellAttempts(ctx, cfg, rg, profile, algo, w, live, cellLog)
					if err != nil {
						emit()
						return report, fmt.Errorf("matrix aborted at cell %s/%s/w%d: %w", profile, algo, w, err)
					}
					res.Graph = profile
					res.Scale = cfg.scale
					key := cellKey{profile, ai, w}
					if res.Failed {
						// The cell failed both attempts for a reason of its
						// own (not a dying parent context): record it and move
						// on — one broken cell must not hide the rest of the
						// matrix, and a success in any other pass displaces
						// the failure.
						if _, ok := best[key]; !ok {
							best[key] = res
						}
						continue
					}
					cellLog.Info("cell finished",
						"elapsed", time.Since(cellStart).Round(time.Millisecond),
						"ns_per_edge", res.NsPerEdge)
					if old, ok := best[key]; !ok || old.Failed || res.ElapsedNanos < old.ElapsedNanos {
						best[key] = res
					}
				}
			}
		}
	}
	emit()
	return report, nil
}

// runCellAttempts gives a cell two chances before recording it as failed.
// A transient fault (one bad rep, one per-cell timeout) costs a retry; a
// second failure comes back as a Result with Failed set so the matrix
// continues. Only a dying parent context — the whole invocation canceled
// or timed out — returns an error, which aborts the matrix.
func runCellAttempts(ctx context.Context, cfg appConfig, rg *cncount.Graph, profile string, algo cncount.Algorithm, workers int, live *liveObs, cellLog *slog.Logger) (*benchfmt.Result, error) {
	var lastErr error
	for attempt := 0; attempt < 2; attempt++ {
		cellCtx, cancel := ctx, context.CancelFunc(func() {})
		if cfg.cellTimeout > 0 {
			cellCtx, cancel = context.WithTimeout(ctx, cfg.cellTimeout)
		}
		res, err := runCell(cellCtx, cfg, rg, algo, workers, live)
		cancel()
		if err == nil {
			return res, nil
		}
		if ctx.Err() != nil {
			return nil, err
		}
		lastErr = err
		if attempt == 0 {
			cellLog.Warn("cell attempt 1 failed; retrying once", "err", err)
		}
	}
	cellLog.Error("cell failed after retry", "err", lastErr)
	return &benchfmt.Result{
		Algo:    algo.String(),
		Workers: workers,
		Edges:   rg.NumEdges(),
		Reps:    cfg.reps,
		Failed:  true,
		Error:   lastErr.Error(),
	}, nil
}

// runCell measures one matrix cell: reps counting runs on the already
// reordered graph, keeping the best rep's numbers.
//
// Single-sample-set invariant: every measurement field of the returned
// Result (elapsed, counters, attribution, scheduler imbalance and
// quantiles) comes from ONE rep of ONE attempt — the surviving best.
// Each rep builds a complete candidate Result from its own metrics
// snapshot and the best is swapped wholesale; fields are never assigned
// piecemeal onto an accumulator. The old accumulator let a faster rep
// overwrite elapsed/counters while stale scheduler or attribution rows
// from an earlier (possibly later-failed-and-retried) rep survived in
// the cell, so a report mixed two attempts' sample sets. Pinned by
// TestRetrySurvivingAttemptOnlySampleSet.
func runCell(ctx context.Context, cfg appConfig, rg *cncount.Graph, algo cncount.Algorithm, workers int, live *liveObs) (*benchfmt.Result, error) {
	var best *benchfmt.Result
	for rep := 0; rep < cfg.reps; rep++ {
		mc := cncount.NewMetrics()
		if live != nil {
			live.mc.Store(mc)
		}
		r, err := cfg.count(rg, cncount.Options{
			Algorithm: algo,
			Threads:   workers,
			Reorder:   false, // measured graph is pre-reordered
			Metrics:   mc,
			Progress:  live.progress(),
			Context:   ctx,
		})
		if err != nil {
			// The whole attempt is discarded, completed reps included: the
			// caller either retries (a fresh runCell, fresh sample sets) or
			// records the cell as failed with zero measurement fields.
			return nil, err
		}
		snap := mc.Snapshot()
		cand := &benchfmt.Result{
			Algo:         algo.String(),
			Workers:      workers,
			Edges:        rg.NumEdges(),
			Reps:         cfg.reps,
			ElapsedNanos: r.Elapsed.Nanoseconds(),
			Counters:     snap.Counters,
			Attribution:  snap.Attribution,
		}
		if len(snap.Sched) > 0 {
			sc := snap.Sched[0]
			cand.ImbalanceRatio = sc.Imbalance.Ratio
			cand.MaxBusyNanos = sc.Imbalance.MaxBusyNanos
			cand.MeanBusyNanos = sc.Imbalance.MeanBusyNanos
			cand.TaskP50Nanos = sc.TaskNanos.P50Nanos
			cand.TaskP95Nanos = sc.TaskNanos.P95Nanos
			cand.TaskP99Nanos = sc.TaskNanos.P99Nanos
			cand.Steals = sc.Steals
			cand.StealNanos = sc.StealNanos
		}
		if best == nil || cand.ElapsedNanos < best.ElapsedNanos {
			best = cand
		}
	}
	if best.Edges > 0 {
		best.NsPerEdge = float64(best.ElapsedNanos) / float64(best.Edges)
	}
	return best, nil
}

func splitList(s string) ([]string, error) {
	var out []string
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part != "" {
			out = append(out, part)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty list %q", s)
	}
	return out, nil
}

func splitInts(s string) ([]int, error) {
	parts, err := splitList(s)
	if err != nil {
		return nil, err
	}
	out := make([]int, len(parts))
	for i, p := range parts {
		n, err := strconv.Atoi(p)
		if err != nil || n < 1 {
			return nil, fmt.Errorf("bad worker count %q", p)
		}
		out[i] = n
	}
	return out, nil
}

func parseAlgo(s string) (cncount.Algorithm, error) {
	switch strings.ToLower(s) {
	case "m", "merge":
		return cncount.AlgoM, nil
	case "mps":
		return cncount.AlgoMPS, nil
	case "bmp":
		return cncount.AlgoBMP, nil
	case "bmprf", "bmp-rf", "rf":
		return cncount.AlgoBMPRF, nil
	case "adaptive", "adapt":
		return cncount.AlgoAdaptive, nil
	default:
		return 0, fmt.Errorf("unknown algorithm %q: valid names are m, mps, bmp, bmprf, adaptive", s)
	}
}

// errWriter latches the first write error so every ignored fmt.Fprintf
// result still surfaces as a non-zero exit at the end of the run.
type errWriter struct {
	w   io.Writer
	err error
}

func (w *errWriter) Write(p []byte) (int, error) {
	if w.err != nil {
		return 0, w.err
	}
	n, err := w.w.Write(p)
	if err != nil {
		w.err = err
	}
	return n, err
}
