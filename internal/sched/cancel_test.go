package sched

import (
	"context"
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// waitGoroutines polls until the goroutine count falls back to at most
// want, failing the test when it does not: a canceled region must join
// every worker and its context watcher.
func waitGoroutines(t *testing.T, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= want {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("goroutines leaked: %d alive, want <= %d", runtime.NumGoroutine(), want)
}

// TestDynamicNilContextCompletes pins the no-context contract: regions with
// no Ctx or an uncancelable one run the full range and return nil.
func TestDynamicNilContextCompletes(t *testing.T) {
	const n = 10_000
	var done atomic.Int64
	if err := Run(n, 64, 4, Obs{}, func(_ int, lo, hi int64) { done.Add(hi - lo) }); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if done.Load() != n {
		t.Fatalf("processed %d units, want %d", done.Load(), n)
	}
	done.Store(0)
	if err := Run(n, 64, 4, Obs{Ctx: context.Background()}, func(_ int, lo, hi int64) { done.Add(hi - lo) }); err != nil {
		t.Fatalf("Run(Background): %v", err)
	}
	if done.Load() != n {
		t.Fatalf("processed %d units, want %d", done.Load(), n)
	}
}

// TestDynamicPreCanceledContext pins the fast path: a context canceled
// before the region starts returns a full-range CancelError without
// running any body.
func TestDynamicPreCanceledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var calls atomic.Int64
	err := Run(1000, 64, 4, Obs{Ctx: ctx, Scope: "test"}, func(_ int, lo, hi int64) { calls.Add(1) })
	var ce *CancelError
	if !errors.As(err, &ce) {
		t.Fatalf("err = %v, want *CancelError", err)
	}
	if ce.RemainingUnits != 1000 || ce.TotalUnits != 1000 || ce.Scope != "test" {
		t.Errorf("CancelError = %+v, want full range under scope test", ce)
	}
	if !errors.Is(err, ErrCanceled) || !errors.Is(err, context.Canceled) {
		t.Errorf("err %v not errors.Is ErrCanceled/context.Canceled", err)
	}
	if errors.Is(err, ErrDeadline) {
		t.Errorf("err %v must not match ErrDeadline", err)
	}
	if calls.Load() != 0 {
		t.Errorf("body ran %d times on a pre-canceled region", calls.Load())
	}
}

// TestDynamicCanceledMidRun cancels from inside the first task: workers
// must stop at their next pop boundary, join, and report the untouched
// remainder; every unit is processed at most once and in-flight tasks run
// to completion.
func TestDynamicCanceledMidRun(t *testing.T) {
	const n, taskSize, workers = 1 << 16, 128, 4
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	seen := make([]atomic.Int32, n)
	var done atomic.Int64
	err := Run(n, taskSize, workers, Obs{Ctx: ctx, Scope: "mid"}, func(_ int, lo, hi int64) {
		cancel() // first task (of any worker) pulls the plug
		for i := lo; i < hi; i++ {
			seen[i].Add(1)
		}
		done.Add(hi - lo)
		// Keep each task slow enough that the context watcher flips the
		// stop flag long before the range could drain.
		time.Sleep(200 * time.Microsecond)
	})
	var ce *CancelError
	if !errors.As(err, &ce) {
		t.Fatalf("err = %v, want *CancelError", err)
	}
	if ce.TotalUnits != n || ce.RemainingUnits <= 0 || ce.RemainingUnits >= n {
		t.Errorf("CancelError units = %d/%d, want partial progress", ce.RemainingUnits, ce.TotalUnits)
	}
	if got := done.Load(); got != n-ce.RemainingUnits {
		t.Errorf("processed %d units, CancelError says %d", got, n-ce.RemainingUnits)
	}
	for i := range seen {
		if c := seen[i].Load(); c > 1 {
			t.Fatalf("unit %d processed %d times", i, c)
		}
	}
	waitGoroutines(t, before)
}

// TestDynamicDeadlineExceeded pins the ErrDeadline classification and the
// context.DeadlineExceeded chain.
func TestDynamicDeadlineExceeded(t *testing.T) {
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	err := Run(1000, 64, 4, Obs{Ctx: ctx}, func(_ int, _, _ int64) {})
	if !errors.Is(err, ErrDeadline) || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want ErrDeadline/context.DeadlineExceeded", err)
	}
	if errors.Is(err, ErrCanceled) {
		t.Errorf("deadline err %v must not match ErrCanceled", err)
	}
}

// TestSequentialCanceledMidRun: the workers==1 path chunks the range when
// a cancelable context is attached and stops between chunks.
func TestSequentialCanceledMidRun(t *testing.T) {
	const n = 10_000
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var done int64
	err := Run(n, 100, 1, Obs{Ctx: ctx}, func(_ int, lo, hi int64) {
		cancel()
		done += hi - lo
	})
	var ce *CancelError
	if !errors.As(err, &ce) {
		t.Fatalf("err = %v, want *CancelError", err)
	}
	if done != n-ce.RemainingUnits || done >= n {
		t.Errorf("done = %d, remaining = %d of %d", done, ce.RemainingUnits, ce.TotalUnits)
	}
}

// TestStaticCanceled: a pre-canceled region of one slab per worker skips
// every slab.
func TestStaticCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var calls atomic.Int64
	err := Run(1000, 250, 4, Obs{Ctx: ctx}, func(_ int, _, _ int64) { calls.Add(1) })
	var ce *CancelError
	if !errors.As(err, &ce) {
		t.Fatalf("err = %v, want *CancelError", err)
	}
	if ce.RemainingUnits != 1000 {
		t.Errorf("remaining = %d, want 1000", ce.RemainingUnits)
	}
	if calls.Load() != 0 {
		t.Errorf("body ran %d times on a pre-canceled static region", calls.Load())
	}
}

// TestCanceledRunKeepsObservers: a canceled observed region still commits
// coherent progress (remaining never negative, End called) so the obs
// plane serves a sane final state.
func TestCanceledRunKeepsObservers(t *testing.T) {
	const n = 1 << 16
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	prog := NewProgress()
	err := Run(n, 128, 4, Obs{Ctx: ctx, Prog: prog, Scope: "obs"}, func(_ int, lo, hi int64) {
		cancel()
		time.Sleep(200 * time.Microsecond)
	})
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	s := prog.Sample()
	if s.Active {
		t.Errorf("progress still active after canceled region end")
	}
	if s.RemainingUnits < 0 || s.RemainingUnits > s.TotalUnits {
		t.Errorf("incoherent progress sample %+v", s)
	}
}

// TestCancelErrorMessage pins the operator-facing rendering.
func TestCancelErrorMessage(t *testing.T) {
	e := &CancelError{Scope: "core.count.BMP", Cause: context.Canceled, RemainingUnits: 3, TotalUnits: 10}
	want := "sched: core.count.BMP canceled with 3 of 10 units unprocessed"
	if e.Error() != want {
		t.Errorf("Error() = %q, want %q", e.Error(), want)
	}
	d := &CancelError{Cause: context.DeadlineExceeded, RemainingUnits: 1, TotalUnits: 2}
	if got := d.Error(); got != "sched: run deadline exceeded with 1 of 2 units unprocessed" {
		t.Errorf("Error() = %q", got)
	}
}
