package chaos

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"cncount/internal/graph"
	"cncount/internal/obs"
	"cncount/internal/sched"
)

// waitGoroutines fails the test when the goroutine count does not settle
// back to at most want: every chaos scenario must join everything it
// started, faults or not.
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

// TestInjectorDeterministic: equal plans realize identical schedules,
// different seeds realize different ones (for any useful plan size).
func TestInjectorDeterministic(t *testing.T) {
	plan := Plan{Seed: 42, Steps: 1000, Panics: 3, Delays: 5, Stalls: 2}
	a, b := New(plan).Schedule(), New(plan).Schedule()
	if len(a) != 10 {
		t.Fatalf("schedule has %d faults, want 10", len(a))
	}
	if fmt.Sprint(a) != fmt.Sprint(b) {
		t.Errorf("same plan, different schedules:\n%v\n%v", a, b)
	}
	plan.Seed = 43
	if fmt.Sprint(New(plan).Schedule()) == fmt.Sprint(a) {
		t.Errorf("seed change did not move the schedule")
	}
}

// TestInjectorClampsToHorizon: more faults than steps clamps instead of
// spinning forever looking for distinct indices.
func TestInjectorClampsToHorizon(t *testing.T) {
	in := New(Plan{Seed: 1, Steps: 4, Panics: 100})
	if got := len(in.Schedule()); got != 4 {
		t.Errorf("clamped schedule has %d faults, want 4", got)
	}
}

// TestNilInjector: the nil injector is fully inert.
func TestNilInjector(t *testing.T) {
	var in *Injector
	in.Step()
	if in.Schedule() != nil || in.Steps() != 0 {
		t.Error("nil injector not empty")
	}
	body := func(int, int64, int64) {}
	if in.WrapBody(body) == nil {
		t.Error("nil WrapBody returned nil")
	}
	r := bytes.NewReader([]byte("xy"))
	if in.Reader(r) != bytes.NewReader(nil) && in.Reader(r) == nil {
		t.Error("nil Reader returned nil")
	}
}

// TestPanicDrain: k injected panics surface as one *sched.PanicError
// carrying ErrInjected, the surviving workers drain the dead workers'
// deques, and at most k tasks' worth of units go unprocessed.
func TestPanicDrain(t *testing.T) {
	const n, taskSize, workers, panics = 1 << 15, 64, 4, 2
	before := runtime.NumGoroutine()
	in := New(Plan{Seed: 7, Steps: n / taskSize, Panics: panics})
	var done atomic.Int64
	body := in.WrapBody(func(_ int, lo, hi int64) { done.Add(hi - lo) })

	func() {
		defer func() {
			r := recover()
			if r == nil {
				t.Fatal("injected panics did not surface")
			}
			pe, ok := r.(*sched.PanicError)
			if !ok {
				t.Fatalf("recovered %T, want *sched.PanicError", r)
			}
			if !errors.Is(pe, ErrInjected) {
				t.Errorf("panic value %v is not ErrInjected", pe.Value)
			}
		}()
		sched.Run(n, taskSize, workers, sched.Obs{}, body)
	}()

	// A panic fires before its task's body work, so each of the k panics
	// loses at most one task; everything else must have been drained.
	if got := done.Load(); got < n-panics*taskSize {
		t.Errorf("drained %d of %d units; more than %d tasks lost", got, n, panics)
	}
	waitGoroutines(t, before)
}

// TestCancellationUnderChaos: a run salted with delays still honors
// cooperative cancellation — typed error, partial accounting, all
// goroutines join.
func TestCancellationUnderChaos(t *testing.T) {
	const n, taskSize, workers = 1 << 16, 64, 4
	before := runtime.NumGoroutine()
	in := New(Plan{Seed: 11, Steps: n / taskSize, Delays: 200, DelayFor: 100 * time.Microsecond})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var fired atomic.Bool
	body := in.WrapBody(func(_ int, _, _ int64) {
		if fired.CompareAndSwap(false, true) {
			cancel()
		}
	})
	err := sched.Run(n, taskSize, workers, sched.Obs{Ctx: ctx, Scope: "chaos"}, body)
	var ce *sched.CancelError
	if !errors.As(err, &ce) {
		t.Fatalf("err = %v, want *CancelError", err)
	}
	if ce.RemainingUnits <= 0 || ce.RemainingUnits >= n {
		t.Errorf("remaining = %d of %d, want partial", ce.RemainingUnits, ce.TotalUnits)
	}
	waitGoroutines(t, before)
}

// TestWatchdogAbortsStalledRun wires the full abort loop: a chaos stall
// freezes heartbeats, the watchdog detects it and cancels the run's
// context, and the run comes back with a typed cancellation instead of
// hanging.
func TestWatchdogAbortsStalledRun(t *testing.T) {
	const n, taskSize, workers = 1 << 20, 64, 4
	before := runtime.NumGoroutine()
	in := New(Plan{Seed: 3, Steps: 16, Stalls: 4, StallFor: 250 * time.Millisecond})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	prog := sched.NewProgress()
	stalled := make(chan obs.StallReport, 1)
	wd := obs.StartWatchdog(obs.WatchdogOptions{
		Progress:   prog,
		StallAfter: 50 * time.Millisecond,
		Poll:       5 * time.Millisecond,
		OnStall: func(r obs.StallReport) {
			select {
			case stalled <- r:
			default:
			}
			cancel()
		},
	})
	defer wd.Stop()

	start := time.Now()
	err := sched.Run(n, taskSize, workers, sched.Obs{Ctx: ctx, Prog: prog, Scope: "stall"},
		in.WrapBody(func(_ int, _, _ int64) {}))
	if !errors.Is(err, sched.ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled (watchdog abort)", err)
	}
	wd.Stop() // join the watchdog before the leak check; deferred Stop is idempotent
	select {
	case r := <-stalled:
		if r.Scope != "stall" {
			t.Errorf("stall report scope = %q", r.Scope)
		}
	default:
		t.Error("run canceled but no stall report delivered")
	}
	// The run must end promptly once the stalled bodies return — not
	// grind through the remaining million units.
	if e := time.Since(start); e > 5*time.Second {
		t.Errorf("aborted run took %v", e)
	}
	waitGoroutines(t, before)
}

// TestLoaderReadFault: an injected read error surfaces from the binary
// loader as a wrapped error, never a panic or a truncated graph.
func TestLoaderReadFault(t *testing.T) {
	g, err := graph.FromEdges(4, []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 3}, {U: 0, V: 2}})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := graph.WriteBinary(&buf, g); err != nil {
		t.Fatal(err)
	}
	// First, sanity: the uninjected stream round-trips, and the injector
	// counts how many Reads the loader actually issues.
	clean := New(Plan{Seed: 5})
	if _, err := graph.ReadBinary(clean.Reader(bytes.NewReader(buf.Bytes()))); err != nil {
		t.Fatalf("clean stream failed: %v", err)
	}
	totalReads := clean.reads.Load()
	if totalReads < 1 {
		t.Fatalf("loader issued %d reads", totalReads)
	}
	// Then fail each of those reads in turn.
	for fail := int64(0); fail < totalReads; fail++ {
		in := New(Plan{Seed: 5})
		in.readErrs[fail] = true // pin the failing read deterministically
		_, err := graph.ReadBinary(in.Reader(bytes.NewReader(buf.Bytes())))
		if err == nil {
			t.Fatalf("read fault at %d/%d produced no error", fail, totalReads)
		}
		if !errors.Is(err, ErrInjectedRead) {
			t.Errorf("read fault at %d: err = %v, want wrapped ErrInjectedRead", fail, err)
		}
	}
}

// TestSeededStress is the chaossmoke workload: across several seeds, mix
// panics, delays, stalls, and mid-run cancellation, and assert every
// combination terminates with a sane outcome and no leaked goroutines.
func TestSeededStress(t *testing.T) {
	const n, taskSize, workers = 1 << 14, 32, 4
	before := runtime.NumGoroutine()
	for seed := int64(0); seed < 6; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			in := New(Plan{
				Seed:     seed,
				Steps:    n / taskSize,
				Panics:   int(seed % 3), // 0,1,2 panics
				Delays:   20,
				Stalls:   int(seed % 2), // sometimes a stall
				DelayFor: 50 * time.Microsecond,
				StallFor: 10 * time.Millisecond,
			})
			ctx, cancel := context.WithTimeout(context.Background(), 25*time.Millisecond)
			defer cancel()
			var done atomic.Int64
			body := in.WrapBody(func(_ int, lo, hi int64) { done.Add(hi - lo) })

			var err error
			panicked := func() (p bool) {
				defer func() {
					if r := recover(); r != nil {
						p = true
						pe, ok := r.(*sched.PanicError)
						if !ok || !errors.Is(pe, ErrInjected) {
							t.Errorf("unexpected panic %v", r)
						}
					}
				}()
				err = sched.Run(n, taskSize, workers, sched.Obs{Ctx: ctx, Scope: "stress"}, body)
				return false
			}()

			switch {
			case panicked:
				// Injected crash surfaced typed; fine.
			case err == nil:
				if done.Load() != n {
					t.Errorf("clean run processed %d of %d units", done.Load(), n)
				}
			default:
				var ce *sched.CancelError
				if !errors.As(err, &ce) {
					t.Errorf("err = %v, want *CancelError", err)
				} else if !errors.Is(err, sched.ErrDeadline) {
					t.Errorf("timeout run err = %v, want ErrDeadline", err)
				}
			}
		})
	}
	waitGoroutines(t, before)
}
