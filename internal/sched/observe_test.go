package sched

import (
	"bytes"
	"sync/atomic"
	"testing"
	"time"

	"cncount/internal/metrics"
	"cncount/internal/trace"
)

// TestQueueWaitPlusRunWithinWall pins the queue-wait accounting contract:
// for every worker, wait + busy time never exceeds the parallel region's
// wall time, and a region with real work records non-zero busy time.
func TestQueueWaitPlusRunWithinWall(t *testing.T) {
	const n, workers = 1 << 14, 4
	mc := metrics.New()
	rec := mc.SchedRecorder("test", workers)
	var units atomic.Int64
	start := time.Now()
	Run(n, 64, workers, Obs{Rec: rec}, func(_ int, lo, hi int64) {
		for i := lo; i < hi; i++ {
			units.Add(1)
		}
	})
	wall := time.Since(start)
	rec.Commit()

	snap := mc.Snapshot()
	if len(snap.Sched) != 1 {
		t.Fatalf("sched snapshots = %d, want 1", len(snap.Sched))
	}
	sc := snap.Sched[0]
	if len(sc.Workers) != workers {
		t.Fatalf("workers = %d, want %d", len(sc.Workers), workers)
	}
	var anyBusy bool
	for w, tally := range sc.Workers {
		if tally.WaitNanos+tally.BusyNanos > uint64(wall) {
			t.Errorf("worker %d: wait %d + busy %d exceeds wall %d",
				w, tally.WaitNanos, tally.BusyNanos, uint64(wall))
		}
		if tally.BusyNanos > 0 {
			anyBusy = true
		}
	}
	if !anyBusy {
		t.Error("no worker recorded busy time")
	}
	if sc.Imbalance.MaxWaitNanos < sc.Imbalance.MeanWaitNanos {
		t.Errorf("max wait %d < mean wait %d", sc.Imbalance.MaxWaitNanos, sc.Imbalance.MeanWaitNanos)
	}
}

// TestObservedEmitsSpansPerWorker checks the trace side of Obs: every
// worker's row gets at least one task span (plus its wait split) under the
// configured scope, and the serialized trace passes schema validation.
func TestObservedEmitsSpansPerWorker(t *testing.T) {
	const n, workers = 1 << 12, 3
	tr := trace.New()
	Run(n, 128, workers, Obs{Trace: tr, Scope: "test.dyn"}, func(_ int, lo, hi int64) {
		time.Sleep(time.Microsecond) // keep every worker claiming tasks
	})

	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if err := trace.Validate(buf.Bytes()); err != nil {
		t.Fatalf("sched trace fails schema validation: %v", err)
	}
	perTid, names, err := trace.SpanCount(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	for w := 0; w < workers; w++ {
		if perTid[w+1] == 0 {
			t.Errorf("worker %d row (tid %d) has no spans", w, w+1)
		}
	}
	if names["test.dyn"] == 0 || names["test.dyn.wait"] == 0 {
		t.Errorf("scoped run/wait spans missing: %v", names)
	}
	if names["test.dyn"] != names["test.dyn.wait"] {
		t.Errorf("run spans %d != wait spans %d", names["test.dyn"], names["test.dyn.wait"])
	}
}

// TestObservedStarvedWorkerStillTraced pins the worker-lifetime span
// guarantee: with a single task and many workers, dynamic claiming starves
// all but one worker of tasks, yet every worker row must still carry at
// least one span (its Scope+".worker" lifetime).
func TestObservedStarvedWorkerStillTraced(t *testing.T) {
	const workers = 4
	tr := trace.New()
	Run(1, 1, workers, Obs{Trace: tr, Scope: "test.starve"}, func(_ int, lo, hi int64) {})

	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if err := trace.Validate(buf.Bytes()); err != nil {
		t.Fatalf("starved trace fails schema validation: %v", err)
	}
	perTid, names, err := trace.SpanCount(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	for w := 0; w < workers; w++ {
		if perTid[w+1] == 0 {
			t.Errorf("starved worker %d row (tid %d) has no spans: %v", w, w+1, perTid)
		}
	}
	if names["test.starve.worker"] != workers {
		t.Errorf("lifetime spans = %d, want %d: %v", names["test.starve.worker"], workers, names)
	}
	if names["test.starve"] != 1 {
		t.Errorf("task spans = %d, want 1 (single task): %v", names["test.starve"], names)
	}
}

// TestObservedSequentialAndStatic covers the workers == 1 fast path and
// a one-slab-per-worker region (taskSize ⌈n/workers⌉, nothing to steal):
// both must tally waits and emit spans.
func TestObservedSequentialAndStatic(t *testing.T) {
	for _, tc := range []struct {
		name string
		run  func(obs Obs)
	}{
		{"sequential", func(obs Obs) {
			Run(100, 10, 1, obs, func(_ int, lo, hi int64) {})
		}},
		{"static", func(obs Obs) {
			Run(100, 50, 2, obs, func(_ int, lo, hi int64) {})
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			mc := metrics.New()
			rec := mc.SchedRecorder(tc.name, 2)
			tr := trace.New()
			tc.run(Obs{Rec: rec, Trace: tr})
			rec.Commit()
			snap := mc.Snapshot()
			var total uint64
			for _, w := range snap.Sched[0].Workers {
				total += w.UnitsProcessed
			}
			if total != 100 {
				t.Errorf("units = %d, want 100", total)
			}
			var buf bytes.Buffer
			if err := tr.WriteJSON(&buf); err != nil {
				t.Fatal(err)
			}
			if err := trace.Validate(buf.Bytes()); err != nil {
				t.Errorf("trace invalid: %v", err)
			}
			_, names, err := trace.SpanCount(buf.Bytes())
			if err != nil {
				t.Fatal(err)
			}
			if names["task"] == 0 {
				t.Errorf("no default-scoped task spans: %v", names)
			}
		})
	}
}
