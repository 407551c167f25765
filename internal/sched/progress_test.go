package sched

import (
	"sync"
	"testing"
	"time"
)

// TestProgressNilSafe pins the disabled-source contract: every method on
// a nil *Progress is a no-op and Sample returns the zero sample.
func TestProgressNilSafe(t *testing.T) {
	var p *Progress
	p.Begin("x", 10, 2)
	p.TaskDone(0, 5, 0, 0)
	p.StealDone(0, 0)
	p.End()
	s := p.Sample()
	if s.Active || s.Runs != 0 || s.TotalUnits != 0 || s.BeatAgeNanos != nil {
		t.Errorf("nil sample = %+v, want zero", s)
	}
}

// TestProgressLifecycle walks one region through Begin/TaskDone/End and
// checks the sample at each stage.
func TestProgressLifecycle(t *testing.T) {
	p := NewProgress()
	if s := p.Sample(); s.Active || s.Runs != 0 {
		t.Errorf("fresh source active: %+v", s)
	}

	p.Begin("core.count.BMP", 100, 3)
	s := p.Sample()
	if !s.Active || s.Scope != "core.count.BMP" || s.Runs != 1 || s.Workers != 3 {
		t.Errorf("after Begin: %+v", s)
	}
	if s.TotalUnits != 100 || s.RemainingUnits != 100 || s.DoneUnits != 0 {
		t.Errorf("units after Begin: %+v", s)
	}
	if len(s.BeatAgeNanos) != 3 {
		t.Fatalf("beat ages = %v, want 3 entries", s.BeatAgeNanos)
	}

	p.TaskDone(1, 30, 2*time.Millisecond, time.Millisecond)
	p.TaskDone(2, 20, time.Millisecond, 0)
	s = p.Sample()
	if s.RemainingUnits != 50 || s.DoneUnits != 50 {
		t.Errorf("after 50 units: %+v", s)
	}

	p.TaskDone(0, 50, 0, 0)
	p.End()
	s = p.Sample()
	if s.Active {
		t.Error("active after End")
	}
	if s.RemainingUnits != 0 || s.DoneUnits != 100 {
		t.Errorf("after End: %+v", s)
	}
	frozen := s.ElapsedNanos
	if frozen <= 0 {
		t.Errorf("elapsed = %d, want > 0", frozen)
	}
	time.Sleep(5 * time.Millisecond)
	if s2 := p.Sample(); s2.ElapsedNanos != frozen {
		t.Errorf("elapsed moved after End: %d -> %d", frozen, s2.ElapsedNanos)
	}
}

// TestProgressRemainingMonotonicAndClamped checks remaining only falls
// within a region and is clamped to [0, total] even when workers report
// more units than the total (which the schedulers never do, but the
// monitor must not serve negative counts regardless).
func TestProgressRemainingMonotonicAndClamped(t *testing.T) {
	p := NewProgress()
	p.Begin("x", 10, 1)
	prev := p.Sample().RemainingUnits
	for i := 0; i < 5; i++ {
		p.TaskDone(0, 3, 0, 0) // 5*3 = 15 > 10: overshoots
		s := p.Sample()
		if s.RemainingUnits > prev {
			t.Errorf("remaining grew: %d -> %d", prev, s.RemainingUnits)
		}
		if s.RemainingUnits < 0 || s.RemainingUnits > s.TotalUnits {
			t.Errorf("remaining %d outside [0,%d]", s.RemainingUnits, s.TotalUnits)
		}
		prev = s.RemainingUnits
	}
	if s := p.Sample(); s.DoneUnits != s.TotalUnits {
		t.Errorf("overshoot not clamped: %+v", s)
	}
}

// TestProgressRegionTurnover checks Begin resets the source for the next
// region and bumps Runs so pollers can detect the turnover.
func TestProgressRegionTurnover(t *testing.T) {
	p := NewProgress()
	p.Begin("first", 10, 2)
	p.TaskDone(0, 10, 0, 0)
	p.End()

	p.Begin("second", 40, 4)
	s := p.Sample()
	if s.Runs != 2 || s.Scope != "second" {
		t.Errorf("after second Begin: %+v", s)
	}
	if s.TotalUnits != 40 || s.RemainingUnits != 40 {
		t.Errorf("units not reset: %+v", s)
	}
	if len(s.BeatAgeNanos) != 4 {
		t.Errorf("beats not resized: %v", s.BeatAgeNanos)
	}
}

// TestProgressHeartbeatAges checks TaskDone refreshes only the reporting
// worker's beat, and that a TaskDone for a worker index beyond the
// current region's slice (a stale worker from a wider previous region)
// is ignored rather than out-of-bounds.
func TestProgressHeartbeatAges(t *testing.T) {
	p := NewProgress()
	p.Begin("x", 10, 2)
	time.Sleep(10 * time.Millisecond)
	p.TaskDone(0, 1, 0, 0)
	s := p.Sample()
	if len(s.BeatAgeNanos) != 2 {
		t.Fatalf("beat ages = %v", s.BeatAgeNanos)
	}
	if s.BeatAgeNanos[0] >= s.BeatAgeNanos[1] {
		t.Errorf("refreshed worker 0 not younger: %v", s.BeatAgeNanos)
	}
	if s.BeatAgeNanos[1] < (5 * time.Millisecond).Nanoseconds() {
		t.Errorf("idle worker 1 age %d implausibly low", s.BeatAgeNanos[1])
	}

	p.TaskDone(7, 1, 0, 0) // out of range: must not panic
	p.StealDone(7, 0)      // likewise
}

// TestProgressWorkerTallies checks TaskDone/StealDone accumulate into the
// reporting worker's live tallies only, and that Begin resets them for
// the next region.
func TestProgressWorkerTallies(t *testing.T) {
	p := NewProgress()
	p.Begin("x", 100, 2)
	p.TaskDone(0, 30, 3*time.Millisecond, time.Millisecond)
	p.TaskDone(0, 10, time.Millisecond, 0)
	p.StealDone(1, 2*time.Millisecond)
	s := p.Sample()
	if len(s.WorkerTallies) != 2 {
		t.Fatalf("tallies = %+v, want 2 entries", s.WorkerTallies)
	}
	w0, w1 := s.WorkerTallies[0], s.WorkerTallies[1]
	if w0.Units != 40 || w0.BusyNanos != (4*time.Millisecond).Nanoseconds() || w0.WaitNanos != time.Millisecond.Nanoseconds() {
		t.Errorf("worker 0 tallies = %+v", w0)
	}
	if w0.Steals != 0 || w0.StealNanos != 0 {
		t.Errorf("worker 0 has steal tallies: %+v", w0)
	}
	if w1.Steals != 1 || w1.StealNanos != (2*time.Millisecond).Nanoseconds() || w1.Units != 0 {
		t.Errorf("worker 1 tallies = %+v", w1)
	}

	p.Begin("y", 10, 2)
	if s := p.Sample(); s.WorkerTallies[0] != (WorkerLive{}) || s.WorkerTallies[1] != (WorkerLive{}) {
		t.Errorf("tallies not reset by Begin: %+v", s.WorkerTallies)
	}
}

// TestProgressConcurrentSample hammers Sample while workers record,
// exercising the atomics under the race detector.
func TestProgressConcurrentSample(t *testing.T) {
	p := NewProgress()
	const workers, tasks = 4, 250
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				s := p.Sample()
				if s.RemainingUnits < 0 {
					t.Error("negative remaining")
					return
				}
			}
		}
	}()
	p.Begin("x", workers*tasks, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < tasks; i++ {
				p.TaskDone(w, 1, time.Microsecond, 0)
				p.StealDone(w, time.Microsecond)
			}
		}(w)
	}
	// Let the sampler overlap the second region's Begin as well.
	p.Begin("y", 10, 2)
	p.End()
	close(stop)
	wg.Wait()
}

// TestSchedulersDriveProgress checks Run feeds an attached Progress on
// the dynamic, one-slab-per-worker and sequential paths: after a run the
// region is inactive with zero remaining and the scope matches Obs.Scope.
func TestSchedulersDriveProgress(t *testing.T) {
	const n = 10_000
	type body = func(worker int, lo, hi int64)
	for _, tc := range []struct {
		name string
		run  func(obs Obs, b body)
	}{
		{"dynamic", func(obs Obs, b body) { Run(n, 64, 4, obs, b) }},
		{"static", func(obs Obs, b body) { Run(n, n/4, 4, obs, b) }},
		{"sequential", func(obs Obs, b body) { Run(n, 64, 1, obs, b) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := NewProgress()
			var mu sync.Mutex
			var units int64
			tc.run(Obs{Prog: p, Scope: "scope." + tc.name}, func(worker int, lo, hi int64) {
				mu.Lock()
				units += hi - lo
				mu.Unlock()
			})
			if units != n {
				t.Fatalf("body covered %d units, want %d", units, n)
			}
			s := p.Sample()
			if s.Active {
				t.Error("still active after join")
			}
			if s.Scope != "scope."+tc.name {
				t.Errorf("scope = %q", s.Scope)
			}
			if s.TotalUnits != n || s.RemainingUnits != 0 {
				t.Errorf("units = %d/%d remaining", s.RemainingUnits, s.TotalUnits)
			}
			if s.Runs != 1 {
				t.Errorf("runs = %d", s.Runs)
			}
			var tallied int64
			for _, w := range s.WorkerTallies {
				tallied += w.Units
			}
			if tallied != n {
				t.Errorf("worker tallies sum to %d units, want %d", tallied, n)
			}
		})
	}
}
