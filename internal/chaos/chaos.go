// Package chaos is a deterministic, seed-driven fault injector for the
// counting runtime's robustness tests. A Plan describes how many faults
// of each kind to scatter over a run's scheduler body calls and loader
// reads; an Injector realizes the plan pseudo-randomly from the seed, so
// every run with the same plan injects the same fault schedule — a
// failing seed reproduces exactly.
//
// Faults model the ways the runtime dies in production: a worker
// panic (a bug in a kernel), an induced delay or stall (a straggler or a
// wedged body, food for the obs watchdog), a loader read error (a
// truncated or flaky input stream), and — through the write injector in
// write.go — storage faults on the durability path: short writes that
// tear a WAL record mid-frame and fsync calls that refuse, plus crashes
// that stop the writer dead between them. The race-gated tests in this
// package drive the scheduler, core, watchdog, and WAL recovery through
// all of them and assert the runtime's failure model: cooperative
// cancellation terminates, panics drain and re-surface typed, stalls
// trip the watchdog, read errors come back as errors, and crash
// recovery replays to an exactly-verifiable state or fails with a typed
// corruption error — never hangs, never silent corruption.
package chaos

import (
	"errors"
	"io"
	"math/rand"
	"sort"
	"sync/atomic"
	"time"
)

// ErrInjected is the value injected panics carry; it survives into
// sched.PanicError.Value, so errors.Is(err, chaos.ErrInjected)
// distinguishes an injected crash from a real bug during stress runs.
var ErrInjected = errors.New("chaos: injected worker panic")

// ErrInjectedRead is the error injected into wrapped readers.
var ErrInjectedRead = errors.New("chaos: injected read error")

// Kind is a fault kind.
type Kind int

const (
	// KindNone is the absence of a fault.
	KindNone Kind = iota
	// KindPanic panics with ErrInjected before the body runs.
	KindPanic
	// KindDelay sleeps Plan.DelayFor — a straggler, not a stall.
	KindDelay
	// KindStall sleeps Plan.StallFor — long enough to trip a watchdog,
	// but finite, so cooperative cancellation can still join the worker.
	KindStall
	// KindReadErr fails a wrapped reader's Read with ErrInjectedRead.
	KindReadErr
)

// String names the kind for schedules and test failure messages.
func (k Kind) String() string {
	switch k {
	case KindNone:
		return "none"
	case KindPanic:
		return "panic"
	case KindDelay:
		return "delay"
	case KindStall:
		return "stall"
	case KindReadErr:
		return "readerr"
	default:
		return "Kind(?)"
	}
}

// Plan describes a deterministic fault schedule. Body faults (Panics,
// Delays, Stalls) are scattered uniformly over the first Steps calls to
// Step/WrapBody; read faults over the first Reads calls through Reader.
// Counts exceeding the horizon are clamped to it.
type Plan struct {
	// Seed drives the pseudo-random placement; equal plans inject
	// identical schedules.
	Seed int64
	// Steps is the body-call horizon faults are scattered over.
	Steps int64
	// Panics, Delays, Stalls are the body fault counts.
	Panics int
	Delays int
	Stalls int
	// DelayFor and StallFor are the sleep lengths; <= 0 defaults to
	// 200µs and 50ms respectively.
	DelayFor time.Duration
	StallFor time.Duration
	// Reads is the read-call horizon, ReadErrs the read fault count.
	Reads    int64
	ReadErrs int
}

// PlannedFault is one entry of an injector's realized schedule.
type PlannedFault struct {
	// Index is the 0-based Step (or Read) call the fault fires on.
	Index int64
	Kind  Kind
}

// Injector realizes a Plan. Construction fixes the whole schedule;
// afterwards the injector is read-only except for its atomic call
// counters, so it is safe for concurrent use from scheduler workers.
// The nil *Injector injects nothing — call sites thread one pointer
// unconditionally.
type Injector struct {
	plan     Plan
	steps    atomic.Int64
	reads    atomic.Int64
	faults   map[int64]Kind // step index → body fault
	readErrs map[int64]bool // read index → fail
}

// New realizes plan into an injector.
func New(plan Plan) *Injector {
	if plan.DelayFor <= 0 {
		plan.DelayFor = 200 * time.Microsecond
	}
	if plan.StallFor <= 0 {
		plan.StallFor = 50 * time.Millisecond
	}
	in := &Injector{
		plan:     plan,
		faults:   make(map[int64]Kind),
		readErrs: make(map[int64]bool),
	}
	rng := rand.New(rand.NewSource(plan.Seed))
	idx := pickIndices(rng, plan.Steps, plan.Panics+plan.Delays+plan.Stalls)
	for i, step := range idx {
		switch {
		case i < plan.Panics:
			in.faults[step] = KindPanic
		case i < plan.Panics+plan.Delays:
			in.faults[step] = KindDelay
		default:
			in.faults[step] = KindStall
		}
	}
	for _, r := range pickIndices(rng, plan.Reads, plan.ReadErrs) {
		in.readErrs[r] = true
	}
	return in
}

// pickIndices draws count distinct indices from [0, horizon), clamped.
func pickIndices(rng *rand.Rand, horizon int64, count int) []int64 {
	if horizon <= 0 || count <= 0 {
		return nil
	}
	if int64(count) > horizon {
		count = int(horizon)
	}
	picked := make(map[int64]bool, count)
	out := make([]int64, 0, count)
	for len(out) < count {
		i := rng.Int63n(horizon)
		if !picked[i] {
			picked[i] = true
			out = append(out, i)
		}
	}
	return out
}

// Schedule returns the realized body-fault schedule sorted by index, for
// determinism assertions and failure messages.
func (in *Injector) Schedule() []PlannedFault {
	if in == nil {
		return nil
	}
	out := make([]PlannedFault, 0, len(in.faults))
	for i, k := range in.faults {
		out = append(out, PlannedFault{Index: i, Kind: k})
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Index < out[b].Index })
	return out
}

// Steps returns how many body steps have executed so far.
func (in *Injector) Steps() int64 {
	if in == nil {
		return 0
	}
	return in.steps.Load()
}

// Step consumes one body call's fault, panicking or sleeping as planned.
// Faults fire in call order, whichever worker arrives: the schedule is
// deterministic, the worker assignment is whatever the race produces.
func (in *Injector) Step() {
	if in == nil {
		return
	}
	switch in.faults[in.steps.Add(1)-1] {
	case KindPanic:
		panic(ErrInjected)
	case KindDelay:
		time.Sleep(in.plan.DelayFor)
	case KindStall:
		time.Sleep(in.plan.StallFor)
	}
}

// WrapBody returns body with one Step injected before each call, the
// shape scheduler stress tests pass to sched.Run.
func (in *Injector) WrapBody(body func(worker int, lo, hi int64)) func(worker int, lo, hi int64) {
	if in == nil {
		return body
	}
	return func(worker int, lo, hi int64) {
		in.Step()
		body(worker, lo, hi)
	}
}

// Reader wraps r so planned read faults surface as ErrInjectedRead.
func (in *Injector) Reader(r io.Reader) io.Reader {
	if in == nil {
		return r
	}
	return &faultReader{in: in, r: r}
}

type faultReader struct {
	in *Injector
	r  io.Reader
}

func (f *faultReader) Read(p []byte) (int, error) {
	if f.in.readErrs[f.in.reads.Add(1)-1] {
		return 0, ErrInjectedRead
	}
	return f.r.Read(p)
}
