package sched

import (
	"errors"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"testing/quick"

	"cncount/internal/metrics"
)

func TestDynamicCoversRangeExactlyOnce(t *testing.T) {
	f := func(seed int64) bool {
		n := int64(1 + seed%1000)
		if n < 0 {
			n = -n + 1
		}
		taskSize := int(1 + (seed/7)%97)
		if taskSize < 1 {
			taskSize = 1
		}
		hits := make([]int32, n)
		Run(n, taskSize, 4, Obs{}, func(_ int, lo, hi int64) {
			for i := lo; i < hi; i++ {
				atomic.AddInt32(&hits[i], 1)
			}
		})
		for _, h := range hits {
			if h != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestDynamicZeroAndNegative(t *testing.T) {
	called := false
	Run(0, 10, 4, Obs{}, func(_ int, _, _ int64) { called = true })
	Run(-5, 10, 4, Obs{}, func(_ int, _, _ int64) { called = true })
	if called {
		t.Error("body called for empty range")
	}
}

func TestDynamicSequentialPath(t *testing.T) {
	// workers == 1 must make exactly one call covering the whole range.
	var calls int
	var total int64
	Run(1000, 10, 1, Obs{}, func(worker int, lo, hi int64) {
		calls++
		total += hi - lo
		if worker != 0 {
			t.Errorf("worker = %d, want 0", worker)
		}
	})
	if calls != 1 || total != 1000 {
		t.Errorf("calls = %d total = %d, want 1 and 1000", calls, total)
	}
}

func TestDynamicWorkerIndexStable(t *testing.T) {
	workers := 4
	seen := make([]int32, workers)
	Run(10000, 16, workers, Obs{}, func(worker int, lo, hi int64) {
		if worker < 0 || worker >= workers {
			t.Errorf("worker index %d out of range", worker)
		}
		atomic.AddInt32(&seen[worker], 1)
	})
}

func TestDynamicDefaultTaskSize(t *testing.T) {
	// Every executed task is at most DefaultTaskSize units; the exact task
	// count depends on the slab partition and stealing, but it can never
	// fall below ceil(n / DefaultTaskSize).
	n := int64(DefaultTaskSize) * 3
	var chunks, units atomic.Int64
	Run(n, 0, 2, Obs{}, func(_ int, lo, hi int64) {
		chunks.Add(1)
		units.Add(hi - lo)
		if hi-lo > int64(DefaultTaskSize) {
			t.Errorf("chunk size %d exceeds default %d", hi-lo, DefaultTaskSize)
		}
	})
	if units.Load() != n {
		t.Errorf("units = %d, want %d", units.Load(), n)
	}
	if chunks.Load() < 3 {
		t.Errorf("chunks = %d, want >= 3", chunks.Load())
	}
}

func TestDynamicPanicPropagates(t *testing.T) {
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("panic did not propagate")
		}
		pe, ok := r.(*PanicError)
		if !ok {
			t.Fatalf("panic value %T, want *PanicError", r)
		}
		if !strings.Contains(pe.Error(), "boom") {
			t.Errorf("panic error %q does not mention cause", pe.Error())
		}
	}()
	Run(100, 10, 4, Obs{}, func(_ int, lo, _ int64) {
		if lo == 0 {
			panic("boom")
		}
	})
}

// errSentinel is a typed sentinel used to assert that worker panics
// round-trip with their original dynamic type and identity.
var errSentinel = errors.New("sentinel failure")

func TestPanicValueRoundTrips(t *testing.T) {
	schedulers := map[string]func(body func(int, int64, int64)){
		"dynamic": func(body func(int, int64, int64)) { Run(100, 10, 4, Obs{}, body) },
		"static":  func(body func(int, int64, int64)) { Run(100, 25, 4, Obs{}, body) },
	}
	for name, run := range schedulers {
		t.Run(name, func(t *testing.T) {
			defer func() {
				r := recover()
				if r == nil {
					t.Fatal("panic did not propagate")
				}
				pe, ok := r.(*PanicError)
				if !ok {
					t.Fatalf("panic value %T, want *PanicError", r)
				}
				if pe.Value != errSentinel {
					t.Errorf("original value lost: got %#v, want errSentinel", pe.Value)
				}
				if !errors.Is(pe, errSentinel) {
					t.Error("errors.Is cannot see the sentinel through the wrapper")
				}
				if !strings.Contains(string(pe.Stack), "sched") {
					t.Errorf("stack trace missing or foreign:\n%s", pe.Stack)
				}
			}()
			run(func(_ int, lo, _ int64) {
				if lo == 0 {
					panic(errSentinel)
				}
			})
		})
	}
}

func TestPanicRuntimeErrorPreserved(t *testing.T) {
	defer func() {
		pe, ok := recover().(*PanicError)
		if !ok {
			t.Fatal("want *PanicError")
		}
		var rte runtime.Error
		if !errors.As(pe, &rte) {
			t.Errorf("runtime.Error type lost: Value is %T", pe.Value)
		}
	}()
	var s []int
	Run(100, 10, 4, Obs{}, func(_ int, lo, _ int64) {
		if lo == 0 {
			_ = s[5] // index out of range -> runtime.Error
		}
	})
}

// TestRunRecordsTallies checks an Obs{Rec} region tallies every unit and
// every task into the recorder.
func TestRunRecordsTallies(t *testing.T) {
	const n, taskSize, workers = 1000, 64, 4
	c := metrics.New()
	rec := c.SchedRecorder("test", workers)
	Run(n, taskSize, workers, Obs{Rec: rec}, func(_ int, lo, hi int64) {
		for i := lo; i < hi; i++ {
			_ = i
		}
	})
	rec.Commit()

	s := c.Snapshot()
	if len(s.Sched) != 1 {
		t.Fatalf("sched snapshots = %d, want 1", len(s.Sched))
	}
	sc := s.Sched[0]
	if len(sc.Workers) != workers {
		t.Fatalf("worker tallies = %d, want %d", len(sc.Workers), workers)
	}
	var tasks, units uint64
	for _, w := range sc.Workers {
		tasks += w.TasksClaimed
		units += w.UnitsProcessed
	}
	// Stealing can split ranges beyond the minimal task count, but never
	// below it (every task is at most taskSize units).
	minTasks := uint64((n + taskSize - 1) / taskSize)
	if tasks < minTasks {
		t.Errorf("tasks claimed = %d, want >= %d", tasks, minTasks)
	}
	if units != n {
		t.Errorf("units processed = %d, want %d", units, n)
	}
	if sc.TaskNanos.Count != tasks {
		t.Errorf("task histogram count = %d, want %d", sc.TaskNanos.Count, tasks)
	}
}

func TestRecordedSequentialPath(t *testing.T) {
	c := metrics.New()
	rec := c.SchedRecorder("seq", 1)
	Run(500, 0, 1, Obs{Rec: rec}, func(_ int, lo, hi int64) {})
	rec.Commit()
	w := c.Snapshot().Sched[0].Workers[0]
	if w.TasksClaimed != 1 || w.UnitsProcessed != 500 {
		t.Errorf("sequential tally = %+v", w)
	}
}

// TestRecordedSlabPerWorker runs the former static schedule on the one
// runtime: with taskSize ⌈n/workers⌉ each worker's slab is one task, so
// the region tallies exactly one task per worker slab.
func TestRecordedSlabPerWorker(t *testing.T) {
	const n, workers = 1000, 4
	c := metrics.New()
	rec := c.SchedRecorder("static", workers)
	Run(n, (n+workers-1)/workers, workers, Obs{Rec: rec}, func(_ int, lo, hi int64) {})
	rec.Commit()
	sc := c.Snapshot().Sched[0]
	var tasks, units uint64
	for _, w := range sc.Workers {
		tasks += w.TasksClaimed
		units += w.UnitsProcessed
	}
	if tasks != workers {
		t.Errorf("tasks = %d, want %d (one per slab)", tasks, workers)
	}
	if units != n {
		t.Errorf("units = %d, want %d", units, n)
	}
}

// TestStaticCoversRange covers the call shape of Run's uniform O(|E|) and
// O(|V|) loops: the default task size at any worker count, including more
// workers than units.
func TestStaticCoversRange(t *testing.T) {
	for _, n := range []int64{1, 7, 100, 1001} {
		for _, workers := range []int{1, 3, 8, 2000} {
			hits := make([]int32, n)
			Run(n, 0, workers, Obs{}, func(_ int, lo, hi int64) {
				for i := lo; i < hi; i++ {
					atomic.AddInt32(&hits[i], 1)
				}
			})
			for i, h := range hits {
				if h != 1 {
					t.Fatalf("n=%d workers=%d: index %d hit %d times", n, workers, i, h)
				}
			}
		}
	}
}

// TestStaticPanicPropagates panics inside a one-slab-per-worker region.
func TestStaticPanicPropagates(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("panic did not propagate")
		}
	}()
	Run(100, 25, 4, Obs{}, func(_ int, _, _ int64) { panic("boom") })
}

func TestWorkers(t *testing.T) {
	if got := Workers(0); got != runtime.GOMAXPROCS(0) {
		t.Errorf("Workers(0) = %d, want GOMAXPROCS", got)
	}
	if got := Workers(-3); got != runtime.GOMAXPROCS(0) {
		t.Errorf("Workers(-3) = %d, want GOMAXPROCS", got)
	}
	if got := Workers(5); got != 5 {
		t.Errorf("Workers(5) = %d", got)
	}
}
