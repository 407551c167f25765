// Package metrics is the runtime observability layer: named phase timings,
// monotonic counters, fixed-bucket duration histograms, and per-worker
// scheduler tallies with an imbalance summary, all encodable as one JSON
// snapshot.
//
// The design goal is that measurement never perturbs what it measures:
//
//   - A nil *Collector is the disabled collector. Every method is nil-safe
//     and reduces to a single always-taken branch, so instrumented code
//     calls straight through without guarding call sites and the disabled
//     hot path stays branch-predictable (see BenchmarkCountMetricsGuard).
//   - Hot-path recording never allocates: histogram observation is one
//     atomic add into a fixed bucket array, and scheduler workers write
//     plain (non-atomic) fields of a worker-owned tally slot padded to a
//     cache line so adjacent workers never share one.
//   - Everything coarse (phase timings, named counters, snapshot assembly)
//     goes through a mutex; those paths run once per phase, not per edge.
//
// Phase names are dotted paths ("core.count", "graph.parse") so a snapshot
// reads as a breakdown of the paper's Algorithm 3: context setup, the
// dynamically scheduled counting loop, and the reductions around it.
package metrics

import (
	"encoding/json"
	"io"
	"sync"
	"time"
	"unsafe"
)

// Collector accumulates phase timings, counters and scheduler snapshots.
// A nil *Collector is valid and records nothing; construct with New to
// enable collection.
type Collector struct {
	mu          sync.Mutex
	phases      []PhaseSample
	counters    map[string]uint64
	sched       []SchedSnapshot
	attribution []KernelAttr
	manifest    *Manifest
}

// New returns an enabled collector.
func New() *Collector {
	return &Collector{counters: make(map[string]uint64)}
}

// Enabled reports whether the collector records anything.
func (c *Collector) Enabled() bool { return c != nil }

// noopStop is returned by StartPhase on the disabled collector so the
// caller's deferred/explicit stop costs one static call.
var noopStop = func() {}

// StartPhase starts timing a named phase and returns the function that
// stops it. Phases may repeat (one sample is appended per Start/stop pair)
// and may overlap; samples keep insertion order.
func (c *Collector) StartPhase(name string) (stop func()) {
	if c == nil {
		return noopStop
	}
	start := time.Now()
	return func() { c.RecordPhase(name, time.Since(start)) }
}

// RecordPhase appends an already-measured phase duration.
func (c *Collector) RecordPhase(name string, d time.Duration) {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.phases = append(c.phases, PhaseSample{Name: name, Nanos: d.Nanoseconds(), Seconds: d.Seconds()})
	c.mu.Unlock()
}

// SetManifest attaches the build/environment manifest to every snapshot
// the collector produces. Nil-safe like every recording method.
func (c *Collector) SetManifest(m Manifest) {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.manifest = &m
	c.mu.Unlock()
}

// Add increments the named counter by n.
func (c *Collector) Add(name string, n uint64) {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.counters[name] += n
	c.mu.Unlock()
}

// Snapshot returns a copy of everything recorded so far, safe to encode
// while collection continues. On the disabled collector it returns the
// zero Snapshot.
func (c *Collector) Snapshot() Snapshot {
	if c == nil {
		return Snapshot{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	s := Snapshot{
		Phases:      append([]PhaseSample(nil), c.phases...),
		Sched:       append([]SchedSnapshot(nil), c.sched...),
		Attribution: append([]KernelAttr(nil), c.attribution...),
	}
	if c.manifest != nil {
		m := *c.manifest
		s.Manifest = &m
	}
	if len(c.counters) > 0 {
		s.Counters = make(map[string]uint64, len(c.counters))
		for k, v := range c.counters {
			s.Counters[k] = v
		}
	}
	return s
}

// WriteJSON writes the snapshot as a single JSON object followed by a
// newline.
func (c *Collector) WriteJSON(w io.Writer) error {
	b, err := json.Marshal(c.Snapshot())
	if err != nil {
		return err
	}
	b = append(b, '\n')
	_, err = w.Write(b)
	return err
}

// Snapshot is the JSON-encodable view of a Collector.
type Snapshot struct {
	// Phases lists phase duration samples in the order they finished.
	Phases []PhaseSample `json:"phases"`
	// Counters holds the named monotonic counters.
	Counters map[string]uint64 `json:"counters,omitempty"`
	// Sched holds one entry per committed scheduler recorder.
	Sched []SchedSnapshot `json:"sched,omitempty"`
	// Attribution holds per-(kernel × degree-bucket) call counts and
	// sampled timings recorded by core's kernel call sites.
	Attribution []KernelAttr `json:"attribution,omitempty"`
	// Manifest describes the build and environment that produced the
	// snapshot, when the collector had one attached (SetManifest).
	Manifest *Manifest `json:"manifest,omitempty"`
}

// Phase returns the total nanoseconds recorded under name (a phase may
// have several samples) and whether any sample exists.
func (s Snapshot) Phase(name string) (totalNanos int64, ok bool) {
	for _, p := range s.Phases {
		if p.Name == name {
			totalNanos += p.Nanos
			ok = true
		}
	}
	return totalNanos, ok
}

// PhaseSample is one timed phase.
type PhaseSample struct {
	Name    string  `json:"name"`
	Nanos   int64   `json:"nanos"`
	Seconds float64 `json:"seconds"`
}

// WorkerTally is one scheduler worker's running totals. Each worker owns
// exactly one tally and writes it without atomics; readers wait for the
// scheduler join before snapshotting.
type WorkerTally struct {
	// TasksClaimed is the number of chunks the worker claimed.
	TasksClaimed uint64 `json:"tasks_claimed"`
	// UnitsProcessed is the total iteration-space units across those
	// chunks (edge offsets, vertices, ...).
	UnitsProcessed uint64 `json:"units_processed"`
	// BusyNanos is the wall time the worker spent inside the loop body.
	BusyNanos uint64 `json:"busy_nanos"`
	// WaitNanos is the wall time the worker spent between tasks — from
	// seeking the next task (submit) to entering its body (start): queue
	// claim overhead plus contention. Per worker, wait + busy never
	// exceeds the parallel region's wall time.
	WaitNanos uint64 `json:"wait_nanos"`
	// Steals is how many ranges the worker took from other workers'
	// deques after draining its own (work-stealing schedulers only).
	Steals uint64 `json:"steals,omitempty"`
	// StealNanos is the wall time the worker spent hunting victims across
	// its successful steals; it is a subset of WaitNanos.
	StealNanos uint64 `json:"steal_nanos,omitempty"`
}

// tallyLine is the alignment unit for per-worker tally slots: two 64-byte
// cache lines, covering the adjacent-line prefetcher on x86.
const tallyLine = 128

// paddedTally pads each worker's slot to a multiple of tallyLine so
// concurrent per-task writes from adjacent workers never contend on one
// line. The pad is derived from the struct size, so adding a WorkerTally
// field cannot silently reintroduce false sharing; the alignment claim is
// pinned by TestPaddedTallyAlignment.
type paddedTally struct {
	WorkerTally
	_ [(tallyLine - unsafe.Sizeof(WorkerTally{})%tallyLine) % tallyLine]byte
}

// SchedRecorder collects per-worker tallies and a task-duration histogram
// for one scheduler invocation. A nil recorder records nothing; obtain one
// from Collector.SchedRecorder and pass it to sched.Run as Obs.Rec, then
// Commit it after the join.
type SchedRecorder struct {
	c       *Collector
	scope   string
	tallies []paddedTally
	hist    Histogram
}

// SchedRecorder returns a recorder for `workers` workers under the given
// scope name, or nil when the collector is disabled.
func (c *Collector) SchedRecorder(scope string, workers int) *SchedRecorder {
	if c == nil {
		return nil
	}
	return &SchedRecorder{c: c, scope: scope, tallies: make([]paddedTally, workers)}
}

// Tally returns worker w's tally slot, or nil on the nil recorder. Workers
// fetch their slot once and then update it with plain stores.
func (r *SchedRecorder) Tally(w int) *WorkerTally {
	if r == nil {
		return nil
	}
	return &r.tallies[w].WorkerTally
}

// ObserveTask records one task's duration in the shared histogram (one
// atomic add).
func (r *SchedRecorder) ObserveTask(d time.Duration) {
	if r == nil {
		return
	}
	r.hist.Observe(d)
}

// Commit computes the imbalance summary and appends the snapshot to the
// owning collector. Call it after the scheduler join; committing a nil
// recorder is a no-op.
func (r *SchedRecorder) Commit() {
	if r == nil {
		return
	}
	snap := SchedSnapshot{
		Scope:     r.scope,
		Workers:   make([]WorkerTally, len(r.tallies)),
		TaskNanos: r.hist.Snapshot(),
	}
	var sum, waitSum uint64
	for i := range r.tallies {
		t := r.tallies[i].WorkerTally
		snap.Workers[i] = t
		sum += t.BusyNanos
		waitSum += t.WaitNanos
		snap.Steals += t.Steals
		snap.StealNanos += t.StealNanos
		if t.BusyNanos > snap.Imbalance.MaxBusyNanos {
			snap.Imbalance.MaxBusyNanos = t.BusyNanos
		}
		if t.WaitNanos > snap.Imbalance.MaxWaitNanos {
			snap.Imbalance.MaxWaitNanos = t.WaitNanos
		}
	}
	if n := uint64(len(r.tallies)); n > 0 {
		snap.Imbalance.MeanBusyNanos = sum / n
		snap.Imbalance.MeanWaitNanos = waitSum / n
	}
	if snap.Imbalance.MeanBusyNanos > 0 {
		snap.Imbalance.Ratio = float64(snap.Imbalance.MaxBusyNanos) / float64(snap.Imbalance.MeanBusyNanos)
	}
	r.c.mu.Lock()
	r.c.sched = append(r.c.sched, snap)
	r.c.mu.Unlock()
}

// SchedSnapshot is the committed view of one scheduler invocation.
type SchedSnapshot struct {
	Scope     string            `json:"scope"`
	Workers   []WorkerTally     `json:"workers"`
	Imbalance Imbalance         `json:"imbalance"`
	TaskNanos HistogramSnapshot `json:"task_nanos"`
	// Steals and StealNanos aggregate the per-worker steal tallies: how
	// many ranges moved between deques and how long the hunts took. Zero
	// for balanced runs.
	Steals     uint64 `json:"steals,omitempty"`
	StealNanos uint64 `json:"steal_nanos,omitempty"`
}

// Imbalance summarizes worker busy-time skew: Ratio is max/mean busy time,
// 1.0 for a perfectly balanced schedule and 0 when nothing ran. It is the
// straggler diagnostic behind the paper's load-balance claims for
// fixed-size dynamic chunking. The wait fields summarize queue-wait time
// (submit→start per task, summed per worker): mean wait far below mean
// busy confirms the paper's negligible-queue-maintenance claim.
type Imbalance struct {
	MaxBusyNanos  uint64  `json:"max_busy_nanos"`
	MeanBusyNanos uint64  `json:"mean_busy_nanos"`
	Ratio         float64 `json:"ratio"`
	MaxWaitNanos  uint64  `json:"max_wait_nanos"`
	MeanWaitNanos uint64  `json:"mean_wait_nanos"`
}
