package main

import (
	"encoding/json"
	"os"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics; 0 for an empty slice. xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// liveHeap forces a collection and returns the live heap in bytes. Call
// it only outside timed regions.
func liveHeap() uint64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// heapPeak tracks the largest liveHeap reading.
type heapPeak struct{ peak uint64 }

func (h *heapPeak) read() { h.peak = max(h.peak, liveHeap()) }

// during runs fn while another goroutine reads the live heap every
// millisecond, so state that fn allocates and frees before it returns is
// seen too. Use it only on untimed calls.
func (h *heapPeak) during(fn func()) {
	done := make(chan struct{})
	polled := make(chan uint64)
	go func() {
		var p heapPeak
		for {
			select {
			case <-done:
				polled <- p.peak
				return
			default:
			}
			p.read()
			time.Sleep(time.Millisecond)
		}
	}()
	fn()
	close(done)
	h.peak = max(h.peak, <-polled)
}

// mibAbove returns how far a heap reading x exceeds base, in MiB.
func mibAbove(x, base uint64) float64 {
	if x < base {
		return 0
	}
	return float64(x-base) / (1 << 20)
}

// span is one timed interval. Spans of one operation share Op; Parent is
// the ID of the span that caused this one, 0 for a root.
type span struct {
	ID     uint64 `json:"id"`
	Op     uint64 `json:"op"`
	Parent uint64 `json:"parent,omitempty"`
	Name   string `json:"name"`
	// Start and End are nanoseconds since the recorder was created.
	Start int64 `json:"start_ns"`
	End   int64 `json:"end_ns"`
}

// spans keeps a run's spans in memory until write. A nil *spans records
// nothing, so untraced code paths call it unguarded.
type spans struct {
	epoch  time.Time
	nextID atomic.Uint64
	nextOp atomic.Uint64
	mu     sync.Mutex
	list   []span
}

func newSpans() *spans { return &spans{epoch: time.Now()} }

// op allocates an operation ID (0 on the nil recorder).
func (s *spans) op() uint64 {
	if s == nil {
		return 0
	}
	return s.nextOp.Add(1)
}

// add records a finished span.
func (s *spans) add(op, parent uint64, name string, start, end time.Time) {
	s.addID(s.reserve(), op, parent, name, start, end)
}

// reserve allocates a span ID for a span whose children finish before it
// does; record it later with addID.
func (s *spans) reserve() uint64 {
	if s == nil {
		return 0
	}
	return s.nextID.Add(1)
}

func (s *spans) addID(id, op, parent uint64, name string, start, end time.Time) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.list = append(s.list, span{ID: id, Op: op, Parent: parent, Name: name,
		Start: start.Sub(s.epoch).Nanoseconds(), End: end.Sub(s.epoch).Nanoseconds()})
	s.mu.Unlock()
}

// write saves the spans, ordered by start time, with the run manifest.
func (s *spans) write(path string, man manifest) error {
	s.mu.Lock()
	list := append([]span(nil), s.list...)
	s.mu.Unlock()
	sort.Slice(list, func(i, j int) bool { return list[i].Start < list[j].Start })
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(map[string]any{"manifest": man, "spans": list}); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
