package sched

import (
	"bytes"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cncount/internal/metrics"
	"cncount/internal/trace"
)

// TestStealLocalitySeeding pins the locality guarantee of the static slab
// partition: every worker's first task starts at the bottom of its own
// contiguous slab, so its SrcFinder/bitmap context warms up on adjacent
// CSR regions rather than wherever a shared cursor happened to point.
func TestStealLocalitySeeding(t *testing.T) {
	const n, taskSize, workers = 10_000, 64, 4
	firstLo := make([]int64, workers)
	for w := range firstLo {
		firstLo[w] = -1
	}
	var mu sync.Mutex
	Run(n, taskSize, workers, Obs{}, func(worker int, lo, hi int64) {
		mu.Lock()
		if firstLo[worker] == -1 {
			firstLo[worker] = lo
		}
		mu.Unlock()
	})
	per, rem := int64(n/workers), int64(n%workers)
	slabLo := int64(0)
	for w := 0; w < workers; w++ {
		slabHi := slabLo + per
		if int64(w) < rem {
			slabHi++
		}
		// A worker that ran at least one task must have started on its own
		// slab bottom; a starved worker (everything stolen before it was
		// scheduled) records -1, which is legal.
		if firstLo[w] != -1 && firstLo[w] != slabLo {
			// The slab may already have been half-stolen, but the owner pops
			// bottom-first, so its first task still begins inside the slab.
			if firstLo[w] < slabLo || firstLo[w] >= slabHi {
				t.Errorf("worker %d first task lo = %d, want inside its slab [%d, %d)",
					w, firstLo[w], slabLo, slabHi)
			}
		}
		slabLo = slabHi
	}
}

// TestStealStressExactlyOnce hammers the work-stealing scheduler with
// randomized body durations across worker/taskSize combinations and
// verifies every index executes exactly once. Run with -race this is the
// scheduler's data-race gate.
func TestStealStressExactlyOnce(t *testing.T) {
	for _, tc := range []struct {
		n        int64
		taskSize int
		workers  int
	}{
		{1, 1, 8},
		{100, 7, 3},
		{5_000, 16, 8},
		{20_000, 128, 5},
		{999, 1000, 4}, // single chunk smaller than a task
		{3, 0, 8},      // more workers than units, default task size
		{10, 1, 16},    // more workers than units, unit tasks
		{1000, 250, 4}, // taskSize = ⌈n/workers⌉: one task per slab
		{1001, 500, 3}, // taskSize > ⌈n/workers⌉
	} {
		hits := make([]int32, tc.n)
		var calls atomic.Int64
		Run(tc.n, tc.taskSize, tc.workers, Obs{}, func(worker int, lo, hi int64) {
			calls.Add(1)
			// Deterministic pseudo-random skew: some tasks are much slower,
			// forcing the fast workers to drain and steal.
			if lo%17 == 0 {
				time.Sleep(50 * time.Microsecond)
			}
			for i := lo; i < hi; i++ {
				atomic.AddInt32(&hits[i], 1)
			}
		})
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("n=%d taskSize=%d workers=%d: index %d hit %d times",
					tc.n, tc.taskSize, tc.workers, i, h)
			}
		}
		// A task at least as large as a slab makes every body call one
		// whole seeded slab: thieves take a small top chunk whole, so
		// nothing is ever split.
		taskSize := int64(tc.taskSize)
		if taskSize < 1 {
			taskSize = DefaultTaskSize
		}
		workers := int64(tc.workers)
		if slab := (tc.n + workers - 1) / workers; taskSize >= slab {
			if want := min(tc.n, workers); calls.Load() != want {
				t.Errorf("n=%d taskSize=%d workers=%d: %d body calls, want one per slab (%d)",
					tc.n, tc.taskSize, tc.workers, calls.Load(), want)
			}
		}
	}
}

// TestStealSkewForcesSteals makes one worker's slab pathologically slow and
// checks that (a) the other workers steal from it, (b) the steals are
// tallied, and (c) the range is still covered exactly once.
func TestStealSkewForcesSteals(t *testing.T) {
	const n, taskSize, workers = 4_000, 32, 4
	c := metrics.New()
	rec := c.SchedRecorder("steal", workers)
	hits := make([]int32, n)
	Run(n, taskSize, workers, Obs{Rec: rec}, func(worker int, lo, hi int64) {
		if lo < n/workers {
			// Worker 0's slab: every task costs ~1ms, so the other three
			// workers drain their slabs and come stealing.
			time.Sleep(time.Millisecond)
		}
		for i := lo; i < hi; i++ {
			atomic.AddInt32(&hits[i], 1)
		}
	})
	rec.Commit()
	for i, h := range hits {
		if h != 1 {
			t.Fatalf("index %d hit %d times", i, h)
		}
	}
	sc := c.Snapshot().Sched[0]
	if sc.Steals == 0 {
		t.Error("no steals recorded despite a 1000x-skewed slab")
	}
	var units uint64
	for w, tally := range sc.Workers {
		units += tally.UnitsProcessed
		if tally.StealNanos > tally.WaitNanos {
			t.Errorf("worker %d steal time %d exceeds wait time %d",
				w, tally.StealNanos, tally.WaitNanos)
		}
	}
	if units != n {
		t.Errorf("units = %d, want %d", units, n)
	}
	if sc.StealNanos == 0 && sc.Steals > 0 {
		t.Log("steals recorded with zero hunt time (clock resolution); acceptable")
	}
}

// TestStealSpansEmitted checks an observed Run emits ".steal" spans on
// the thieves' timeline rows when steals happen.
func TestStealSpansEmitted(t *testing.T) {
	const n, taskSize, workers = 2_000, 16, 4
	c := metrics.New()
	tr := trace.New()
	rec := c.SchedRecorder("steal", workers)
	obs := Obs{Rec: rec, Trace: tr, Scope: "test.steal"}
	Run(n, taskSize, workers, obs, func(worker int, lo, hi int64) {
		if lo < n/workers {
			time.Sleep(500 * time.Microsecond)
		}
	})
	rec.Commit()
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	_, names, err := trace.SpanCount(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	steals := c.Snapshot().Sched[0].Steals
	if steals > 0 && names["test.steal.steal"] == 0 {
		t.Errorf("%d steals tallied but no test.steal.steal spans in %v", steals, names)
	}
	if uint64(names["test.steal.steal"]) != steals {
		t.Errorf("steal spans = %d, steal tallies = %d", names["test.steal.steal"], steals)
	}
}

// TestStealPanicMidRun panics inside a task while other workers are busy
// and stealing; the panic must surface as *PanicError and the scheduler
// must still join (no worker hangs waiting on the dead worker's deque —
// thieves drain it).
func TestStealPanicMidRun(t *testing.T) {
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("panic did not propagate")
		}
		pe, ok := r.(*PanicError)
		if !ok {
			t.Fatalf("panic value %T, want *PanicError", r)
		}
		if !strings.Contains(pe.Error(), "mid-steal boom") {
			t.Errorf("panic error %q does not mention cause", pe.Error())
		}
	}()
	const n, taskSize, workers = 8_000, 32, 4
	var executed atomic.Int64
	Run(n, taskSize, workers, Obs{}, func(worker int, lo, hi int64) {
		executed.Add(hi - lo)
		if lo < n/workers {
			time.Sleep(200 * time.Microsecond) // worker 0's slab crawls -> steals happen
		}
		// Panic from the middle of the range: by then the slow slab has
		// been partly stolen, so the panicking goroutine is likely running
		// stolen work (and regardless, the join must not deadlock).
		if lo == n/2 {
			panic("mid-steal boom")
		}
	})
}
