// Package sched provides the task-level parallel skeleton of the paper's
// Algorithm 3: the iteration space is split into |T|-unit tasks executed
// by worker goroutines, reproducing OpenMP's `parallel for
// schedule(dynamic, |T|)` — load balance from small tasks, negligible
// queue-maintenance cost from chunking — and its thread-local state (each
// worker owns a context that persists across the tasks it runs, which is
// what makes the stashed-source-vertex and thread-local bitmap
// amortizations work).
//
// Run is implemented as a work-stealing scheduler rather than the
// shared-cursor claim loop the OpenMP clause suggests: a single atomic
// cursor puts every task claim of every worker on one contended cache
// line. Instead, each worker owns a deque of contiguous index ranges
// seeded by a locality-aware static partition of [0, n) — worker w's
// deque initially holds the w-th contiguous slab, so the tasks it pops
// cover adjacent CSR regions and its SrcFinder/bitmap context stays warm.
// Workers pop |T|-sized tasks from the bottom (low end) of their own
// deque, and when empty steal from the top (high end) of the victim with
// the largest remaining chunk, halving stolen ranges adaptively down to
// |T| so tail tasks shrink as the run drains. The result is the same
// |T|-granular task stream with the same worker-local-context guarantees,
// minus the shared claim line and minus the cold-start of processing a
// stranger's CSR region.
package sched

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"cncount/internal/metrics"
	"cncount/internal/trace"
)

// DefaultTaskSize is the default number of units |T| per scheduled task.
// The paper groups "a fixed number of neighbor set intersections" per
// task; 2048 edge offsets keeps scheduling overhead negligible while
// preserving load balance on skewed graphs (see BenchmarkAblationTaskSize).
const DefaultTaskSize = 2048

// Workers normalizes a requested worker count: values < 1 mean
// runtime.GOMAXPROCS(0).
func Workers(requested int) int {
	if requested < 1 {
		return runtime.GOMAXPROCS(0)
	}
	return requested
}

// PanicError carries a worker goroutine's panic across the join to the
// caller's goroutine. The original panic value survives in Value with its
// dynamic type intact (a runtime.Error or sentinel stays inspectable with
// errors.Is/As through Unwrap), and Stack holds the panicking worker's
// stack trace, which the re-panic on the caller's goroutine would
// otherwise lose.
type PanicError struct {
	// Value is the original value passed to panic in the worker.
	Value any
	// Stack is the panicking worker goroutine's stack trace.
	Stack []byte
}

// Error formats the original panic value.
func (e *PanicError) Error() string {
	return fmt.Sprintf("sched: worker panicked: %v", e.Value)
}

// Unwrap exposes the original value to errors.Is/As when it was an error.
func (e *PanicError) Unwrap() error {
	if err, ok := e.Value.(error); ok {
		return err
	}
	return nil
}

// panicBox captures the first worker panic; rethrow re-panics it on the
// caller's goroutine wrapped in *PanicError. capture must run in the
// deferred context of the worker (before its wg.Done), so the write to err
// is ordered before the caller's wg.Wait returns.
type panicBox struct {
	once sync.Once
	err  *PanicError
}

func (b *panicBox) capture() {
	if r := recover(); r != nil {
		stack := make([]byte, 64<<10)
		stack = stack[:runtime.Stack(stack, false)]
		b.once.Do(func() { b.err = &PanicError{Value: r, Stack: stack} })
	}
}

func (b *panicBox) rethrow() {
	if b.err != nil {
		panic(b.err)
	}
}

// Obs bundles the per-region observers and controls Run threads into its
// workers: a metrics recorder (tallies + task histogram), a tracer (one
// span per task on the worker's timeline row), the span name to emit, and
// the cancellation context. The zero Obs observes nothing, can never be
// canceled, and keeps the uninstrumented loop.
type Obs struct {
	// Ctx, when non-nil, cooperatively cancels the region: workers check
	// it at task-pop and steal boundaries (via one shared atomic flag, so
	// the hot path never selects on a channel), stop claiming, and join;
	// Run then returns a *CancelError carrying the unprocessed-unit
	// count. A nil Ctx (or one that can never be canceled) costs one nil
	// check per task.
	Ctx context.Context
	// Rec receives per-worker tallies and the task-duration histogram;
	// nil records nothing.
	Rec *metrics.SchedRecorder
	// Trace receives one complete span per task named Scope, preceded by
	// a Scope+".wait" span covering the submit→start queue wait, and one
	// Scope+".steal" span per successful steal; nil records nothing.
	Trace *trace.Tracer
	// Scope names the trace spans (e.g. "core.count.BMP"); empty means
	// "task".
	Scope string
	// Prog receives live progress: remaining units and per-worker
	// heartbeats, updated once per completed task. nil records nothing.
	Prog *Progress
}

// workerObs is one worker's observation state: its tally slot, its trace
// ring, and the resolved span names. The zero value observes nothing.
type workerObs struct {
	tally     *metrics.WorkerTally
	rec       *metrics.SchedRecorder
	ring      *trace.Ring
	prog      *Progress
	worker    int
	span      string
	waitSpan  string
	stealSpan string
}

// worker resolves the observer for worker w (registering its trace ring),
// returning an inactive workerObs when nothing is enabled.
func (o Obs) worker(w int) workerObs {
	wo := workerObs{rec: o.Rec, tally: o.Rec.Tally(w), prog: o.Prog, worker: w}
	if o.Trace.Enabled() {
		wo.ring = o.Trace.WorkerRing(w)
		wo.span = o.Scope
		if wo.span == "" {
			wo.span = "task"
		}
		wo.waitSpan = wo.span + ".wait"
		wo.stealSpan = wo.span + ".steal"
	}
	return wo
}

// active reports whether per-task timestamps need to be taken at all.
func (wo *workerObs) active() bool {
	return wo.tally != nil || wo.ring != nil || wo.prog != nil
}

// lifetime opens the worker's region-lifetime span (Scope+".worker"),
// closed when the worker exits the region. Run emits it so every sched
// worker contributes at least one span to its timeline row even when a
// short range is fully consumed before a late-starting worker runs
// anything. Returns a no-op when tracing is disabled.
func (wo *workerObs) lifetime() func() {
	if wo.ring == nil {
		return func() {}
	}
	name := wo.span + ".worker"
	start := time.Now()
	return func() { wo.ring.Complete(name, start, time.Since(start)) }
}

// record logs one executed task: claimAt is when the worker started seeking
// the task (submit), start when its body began, d the body duration.
func (wo *workerObs) record(claimAt, start time.Time, d time.Duration, units int64) {
	wait := start.Sub(claimAt)
	if wo.tally != nil {
		wo.tally.TasksClaimed++
		wo.tally.UnitsProcessed += uint64(units)
		wo.tally.BusyNanos += uint64(d)
		wo.tally.WaitNanos += uint64(wait)
		wo.rec.ObserveTask(d)
	}
	if wo.ring != nil {
		wo.ring.Complete(wo.waitSpan, claimAt, wait)
		wo.ring.Complete(wo.span, start, d)
	}
	wo.prog.TaskDone(wo.worker, units, d, wait)
}

// recordSteal logs one successful steal: start is when the worker began
// hunting for a victim, d how long the hunt took.
func (wo *workerObs) recordSteal(start time.Time, d time.Duration) {
	if wo.tally != nil {
		wo.tally.Steals++
		wo.tally.StealNanos += uint64(d)
	}
	if wo.ring != nil {
		wo.ring.Complete(wo.stealSpan, start, d)
	}
	wo.prog.StealDone(wo.worker, d)
}

// span is one contiguous half-open index range [lo, hi).
type span struct{ lo, hi int64 }

// deque is one worker's range deque. The owner pops |T|-sized tasks from
// the bottom (spans[0], the low end); thieves remove or halve the top
// (spans[len-1], the high end). A mutex guards the tiny critical sections:
// the owner's lock is uncontended except while a thief is probing it, and
// both paths run once per task (≥ |T| units), never per unit — so unlike
// the shared cursor this line is worker-private in the steady state.
type deque struct {
	mu    sync.Mutex
	spans []span
	_     [64]byte // keep adjacent deques off one cache line
}

// popBottom removes up to taskSize units from the low end. Owner-only.
func (d *deque) popBottom(taskSize int64) (lo, hi int64, ok bool) {
	d.mu.Lock()
	if len(d.spans) == 0 {
		d.mu.Unlock()
		return 0, 0, false
	}
	s := d.spans[0]
	if s.hi-s.lo <= taskSize {
		d.spans = d.spans[1:]
		d.mu.Unlock()
		return s.lo, s.hi, true
	}
	d.spans[0].lo = s.lo + taskSize
	d.mu.Unlock()
	return s.lo, s.lo + taskSize, true
}

// push appends a range. Used by a thief to bank a stolen range in its own
// (empty) deque, where it becomes stealable again.
func (d *deque) push(lo, hi int64) {
	d.mu.Lock()
	d.spans = append(d.spans, span{lo, hi})
	d.mu.Unlock()
}

// topSize returns the size of the top (steal-end) chunk, 0 when empty.
func (d *deque) topSize() int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	if len(d.spans) == 0 {
		return 0
	}
	s := d.spans[len(d.spans)-1]
	return s.hi - s.lo
}

// stealTop removes work from the high end: the whole top chunk when it is
// already small, otherwise its upper half — the adaptive split that makes
// tail tasks shrink toward taskSize as the run drains.
func (d *deque) stealTop(taskSize int64) (lo, hi int64, ok bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	n := len(d.spans)
	if n == 0 {
		return 0, 0, false
	}
	s := d.spans[n-1]
	if s.hi-s.lo <= 2*taskSize {
		d.spans = d.spans[:n-1]
		return s.lo, s.hi, true
	}
	mid := s.lo + (s.hi-s.lo)/2
	d.spans[n-1].hi = mid
	return mid, s.hi, true
}

// wsRun is one work-stealing parallel region.
type wsRun struct {
	deques   []deque
	taskSize int64
	workers  int
	// cancel is the region's cooperative-cancellation flag; nil when the
	// region has no cancelable context. Workers poll it at task-pop and
	// steal boundaries and exit without claiming further work once set,
	// leaving unclaimed ranges in the deques (remaining > 0 records how
	// much was abandoned).
	cancel *canceler
	// remaining counts units not yet handed to a body call. It only hits 0
	// when every index is owned by a running (or finished) task, so idle
	// thieves spin on steals — not exit — while ranges are in flight
	// between a victim's deque and a thief's.
	remaining atomic.Int64
}

// newWSRun seeds the deques with the locality-aware static partition:
// worker w's deque holds the w-th contiguous slab of [0, n).
func newWSRun(n int64, taskSize int64, workers int) *wsRun {
	s := &wsRun{deques: make([]deque, workers), taskSize: taskSize, workers: workers}
	s.remaining.Store(n)
	per := n / int64(workers)
	rem := n % int64(workers)
	lo := int64(0)
	for w := 0; w < workers; w++ {
		hi := lo + per
		if int64(w) < rem {
			hi++
		}
		if hi > lo {
			s.deques[w].spans = append(s.deques[w].spans, span{lo, hi})
		}
		lo = hi
	}
	return s
}

// steal moves work from the victim with the largest top chunk into worker
// self's deque. It returns false only when no unclaimed work remains
// anywhere (the region is draining its final in-flight tasks).
func (s *wsRun) steal(self int) bool {
	for {
		if s.remaining.Load() <= 0 || s.cancel.canceled() {
			return false
		}
		best, bestSize := -1, int64(0)
		for i := 1; i < s.workers; i++ {
			v := (self + i) % s.workers
			if sz := s.deques[v].topSize(); sz > bestSize {
				best, bestSize = v, sz
			}
		}
		if best >= 0 {
			if lo, hi, ok := s.deques[best].stealTop(s.taskSize); ok {
				s.deques[self].push(lo, hi)
				return true
			}
		}
		// Everything visible is claimed or in flight; yield and re-check.
		runtime.Gosched()
	}
}

// runWorker is one worker's claim loop: drain the own deque bottom-first,
// steal when it runs dry, exit when no unclaimed work remains.
func (s *wsRun) runWorker(worker int, wo workerObs, body func(worker int, lo, hi int64)) {
	d := &s.deques[worker]
	active := wo.active()
	var claimAt time.Time
	if active {
		claimAt = time.Now()
	}
	for {
		if s.cancel.canceled() {
			return
		}
		lo, hi, ok := d.popBottom(s.taskSize)
		if !ok {
			var stealAt time.Time
			if active {
				stealAt = time.Now()
			}
			if !s.steal(worker) {
				return
			}
			if active {
				wo.recordSteal(stealAt, time.Since(stealAt))
			}
			continue
		}
		s.remaining.Add(lo - hi)
		if active {
			start := time.Now()
			body(worker, lo, hi)
			wo.record(claimAt, start, time.Since(start), hi-lo)
			claimAt = time.Now()
		} else {
			body(worker, lo, hi)
		}
	}
}

// Run runs body over the half-open range [0, n) split into tasks of at
// most taskSize units (< 1 means DefaultTaskSize) executed by `workers`
// goroutines (< 1 means GOMAXPROCS) under the work-stealing scheduler.
// body(worker, lo, hi) processes [lo, hi); the worker index is stable for
// the lifetime of the call, so worker-indexed state is goroutine-local.
// Workers start on a contiguous slab of the range (ascending order,
// adjacent CSR regions) and steal from the fullest victim when their slab
// drains; a taskSize of at least ⌈n/workers⌉ makes each slab one task,
// OpenMP's static schedule.
//
// obs observes the region: metrics tallies (tasks, units, busy and
// queue-wait time, steals) and the task-duration histogram, one trace
// span per task with its queue-wait split plus one per successful steal,
// and live progress. The zero Obs observes nothing and keeps the
// uninstrumented loop.
//
// A panic in any worker is captured and re-panicked in the caller's
// goroutine after all workers stop, wrapped in *PanicError; the surviving
// workers finish the remaining range first (a dead worker's deque is
// drained by thieves, so no index is lost).
//
// The returned error is nil unless the region was canceled through
// Obs.Ctx: a canceled region drains cleanly — every worker stops at its
// next task boundary, in-flight tasks run to completion, all workers
// join — and a *CancelError reporting the unprocessed units is returned.
func Run(n int64, taskSize, workers int, obs Obs, body func(worker int, lo, hi int64)) error {
	if n <= 0 {
		return nil
	}
	if taskSize < 1 {
		taskSize = DefaultTaskSize
	}
	workers = Workers(workers)
	if workers == 1 {
		return runSequential(n, int64(taskSize), obs, body)
	}
	if obs.Ctx != nil {
		if err := obs.Ctx.Err(); err != nil {
			return cancelErr(obs.Ctx, obs.Scope, n, n)
		}
	}
	obs.Prog.Begin(obs.Scope, n, workers)
	defer obs.Prog.End()

	run := newWSRun(n, int64(taskSize), workers)
	run.cancel = startCanceler(obs.Ctx)
	defer run.cancel.finish()
	var wg sync.WaitGroup
	var box panicBox
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			defer box.capture()
			wo := obs.worker(worker)
			if wo.active() {
				defer wo.lifetime()()
			}
			run.runWorker(worker, wo, body)
		}(w)
	}
	wg.Wait()
	box.rethrow()
	if remaining := run.remaining.Load(); run.cancel.canceled() && remaining > 0 {
		return cancelErr(obs.Ctx, obs.Scope, remaining, n)
	}
	return nil
}

// runSequential is the workers == 1 fast path: with no cancelable
// context, one body call covers the whole range on the caller's goroutine
// (so a panic propagates unwrapped, exactly as a plain loop would). With
// a cancelable Obs.Ctx the range is walked in chunks of `chunk` units and
// the context polled between chunks, giving the sequential path the same
// task-boundary cancellation granularity as the parallel path.
func runSequential(n, chunk int64, obs Obs, body func(worker int, lo, hi int64)) error {
	cancellable := obs.Ctx != nil && obs.Ctx.Done() != nil
	wo := obs.worker(0)
	if !wo.active() && !cancellable {
		body(0, 0, n)
		return nil
	}
	if !cancellable || chunk <= 0 {
		chunk = n
	}
	obs.Prog.Begin(obs.Scope, n, 1)
	defer obs.Prog.End()
	for lo := int64(0); lo < n; lo += chunk {
		if cancellable && obs.Ctx.Err() != nil {
			return cancelErr(obs.Ctx, obs.Scope, n-lo, n)
		}
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		if wo.active() {
			claimAt := time.Now()
			start := time.Now()
			body(0, lo, hi)
			wo.record(claimAt, start, time.Since(start), hi-lo)
		} else {
			body(0, lo, hi)
		}
	}
	return nil
}
