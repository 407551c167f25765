package core

import (
	"errors"
	"time"

	"cncount/internal/adaptive"
	"cncount/internal/bitmap"
	"cncount/internal/graph"
	"cncount/internal/intersect"
	"cncount/internal/sched"
	"cncount/internal/stats"
)

// Result reports one counting run.
type Result struct {
	// Counts holds cnt[e] for every directed edge offset e, with
	// cnt[e(u,v)] == cnt[e(v,u)].
	Counts []uint32

	// Elapsed is the in-memory processing time, measured as in the paper:
	// from after graph load to completion of all counts.
	Elapsed time.Duration

	// Work holds the aggregated abstract operation counts when
	// Options.CollectWork was set.
	Work stats.Work

	// Threads is the resolved worker count.
	Threads int

	// Algorithm is the algorithm that actually ran, which differs from
	// Options.Algorithm when a memory-budget downgrade fired.
	Algorithm Algorithm

	// Downgraded reports that the requested bitmap algorithm was demoted
	// to MPS because its index would have exceeded
	// Options.MemoryBudgetBytes.
	Downgraded bool
}

// TriangleCount returns Σcnt/6, the exact triangle count of the graph
// (paper §2.2.2).
func (r *Result) TriangleCount() uint64 {
	var sum uint64
	for _, c := range r.Counts {
		sum += uint64(c)
	}
	return sum / 6
}

// workerCtx is the static thread-local state of one scheduler worker
// (Algorithm 3): the stashed source vertex inside SrcFinder, and for the
// bitmap algorithms the thread-local bitmap index with the last-indexed
// vertex pu.
type workerCtx struct {
	finder *graph.SrcFinder
	bm     *bitmap.Bitmap
	rf     *bitmap.RangeFiltered
	hash   *intersect.HashIndex
	pu     int64 // last vertex whose neighbors the bitmap indexes; -1 = none
	hu     int64 // last vertex whose neighbors the hash index holds; -1 = none
	// fastSrcs counts the adaptive dispatcher's fast-path sources seen,
	// driving the once-per-fastSampleSrcs timing sample of the bitmap
	// probe (adaptive.go).
	fastSrcs uint64
	work     stats.Work
	// kernelCalls counts intersections this worker computed (edges with
	// u < v); tallied only when Options.Metrics is set.
	kernelCalls uint64
	// Adaptive dispatch tallies (AlgoAdaptive only): kernelSel counts
	// selections per kernel family; the sample fields hold the sampled
	// per-kernel timing described in adaptive.go.
	kernelSel         [adaptive.NumKernels]uint64
	kernelSampleNanos [adaptive.NumKernels]uint64
	kernelSamples     [adaptive.NumKernels]uint64
	// lastKernel is the kernel family the worker's most recent adaptive
	// dispatch executed (a plain store in the dispatch closure), read by
	// the metered body to resolve the attribution row after the call.
	lastKernel uint8
	// attr is the worker's (kernel × degree-bucket) attribution matrix;
	// nil unless Options.Metrics is set.
	attr *attrMatrix
	// pad prevents false sharing between adjacent worker contexts in the
	// contexts slice when workers write their work tallies.
	_ [64]byte
}

// Count computes the all-edge common neighbor counts of g.
//
// For the bitmap algorithms the caller should pass a degree-descending
// reordered graph (graph.ReorderByDegree) to obtain the paper's
// O(min(d_u,d_v)) per-intersection bound; counting is correct either way.
func Count(g *graph.CSR, opts Options) (*Result, error) {
	if err := opts.validate(); err != nil {
		return nil, err
	}
	opts = opts.withDefaults()

	mc := opts.Metrics
	tr := opts.Trace

	numEdgesTotal := g.NumEdges()
	if ctx := opts.Context; ctx != nil && ctx.Err() != nil {
		// Canceled before setup: skip the count-array allocation entirely.
		return nil, &CanceledError{Err: &sched.CancelError{
			Scope:          "core.count." + opts.Algorithm.String(),
			Cause:          ctx.Err(),
			RemainingUnits: numEdgesTotal,
			TotalUnits:     numEdgesTotal,
		}}
	}

	// BMP graceful degradation: the bitmap algorithms allocate index state
	// per worker, so their footprint scales with Threads × |V|. When a
	// budget is set and would be exceeded, demote to MPS — correct on any
	// graph, no index allocation — rather than allocating unboundedly.
	downgraded := false
	if opts.MemoryBudgetBytes > 0 {
		if need := indexBytes(opts, int64(g.NumVertices())); need > opts.MemoryBudgetBytes {
			opts.Algorithm = AlgoMPS
			downgraded = true
			mc.Add("core.bmp_downgrades", 1)
		}
	}

	// Phase "core.setup" is Algorithm 3's per-thread context construction
	// (lines 1-5): SrcFinder state and the static thread-local bitmaps.
	stopSetup := mc.StartPhase("core.setup")
	stopSetupSpan := tr.Span("core.setup")
	numEdges := g.NumEdges()
	counts := make([]uint32, numEdges)
	contexts := make([]workerCtx, opts.Threads)
	numV := uint32(g.NumVertices())
	numAttrKernels := len(attrKernelNames(opts.Algorithm))
	for i := range contexts {
		contexts[i].finder = graph.NewSrcFinder(g)
		contexts[i].pu = -1
		contexts[i].hu = -1
		if mc.Enabled() {
			contexts[i].attr = newAttrMatrix(numAttrKernels)
		}
		switch opts.Algorithm {
		case AlgoBMP:
			contexts[i].bm = bitmap.New(numV)
		case AlgoBMPRF:
			contexts[i].rf = bitmap.NewRangeFiltered(numV, opts.RangeScale)
		case AlgoAdaptive:
			// The dispatcher may pick the bitmap or hash probe for any
			// edge, so both indexes exist up front; the hash table starts
			// minimal and grows to the largest indexed neighbor list.
			contexts[i].bm = bitmap.New(numV)
			contexts[i].hash = intersect.NewHashIndex(0)
		}
	}
	stopSetupSpan()
	stopSetup()

	// Phase "core.count" is the scheduled all-edge loop (Algorithm 3
	// lines 6-27), run under the work-stealing scheduler: each worker
	// drains a contiguous slab of edge offsets (keeping its SrcFinder
	// stash and bitmap warm) and steals from the fullest victim when it
	// runs dry. The recorder captures each worker's tasks, busy,
	// queue-wait and steal tallies for the imbalance summary, and the
	// tracer one span per task (plus one per steal) on the worker's row,
	// named after the kernel path (MPS merge vs BMP bitmap probes).
	obs := sched.Obs{
		Ctx:   opts.Context,
		Rec:   mc.SchedRecorder("core.count", opts.Threads),
		Trace: tr,
		Scope: "core.count." + opts.Algorithm.String(),
		Prog:  opts.Progress,
	}
	start := time.Now()
	body := makeBody(g, counts, contexts, opts)
	stopCount := mc.StartPhase("core.count")
	stopCountSpan := tr.Span("core.count")
	schedErr := sched.Run(numEdges, opts.TaskSize, opts.Threads, obs, body)
	stopCountSpan()
	stopCount()
	elapsed := time.Since(start)
	obs.Rec.Commit()

	// Phase "core.reduce" aggregates the per-worker tallies (the work
	// reduction after the parallel region). A canceled run still reduces:
	// the partial result must carry coherent tallies for the final flush.
	stopReduce := mc.StartPhase("core.reduce")
	stopReduceSpan := tr.Span("core.reduce")
	res := &Result{
		Counts:     counts,
		Elapsed:    elapsed,
		Threads:    opts.Threads,
		Algorithm:  opts.Algorithm,
		Downgraded: downgraded,
	}
	if opts.CollectWork {
		for i := range contexts {
			res.Work.Add(contexts[i].work)
		}
	}
	if mc.Enabled() {
		var kernels uint64
		for i := range contexts {
			kernels += contexts[i].kernelCalls
		}
		mc.Add("core.edges_scanned", uint64(numEdges))
		mc.Add("core.kernel_calls_"+opts.Algorithm.String(), kernels)
		mc.Add("core.symmetric_assignments", kernels)
		if opts.Algorithm == AlgoAdaptive {
			addAdaptiveCounters(mc, contexts)
		}
		mc.RecordKernelAttr(foldAttribution(opts.Algorithm, contexts))
	}
	stopReduceSpan()
	stopReduce()
	if schedErr != nil {
		var ce *sched.CancelError
		if errors.As(schedErr, &ce) {
			return nil, &CanceledError{Partial: res, Err: ce}
		}
		return nil, schedErr
	}
	return res, nil
}

// indexBytes returns the thread-local index footprint of the bitmap
// algorithms for n vertices under the resolved options: BMP allocates one
// |V|-bit bitmap per worker; BMP-RF adds the range-filter bitmap and its
// uint16 per-range counters. The merge algorithms allocate no index.
func indexBytes(o Options, n int64) int64 {
	words := func(bits int64) int64 { return (bits + 63) / 64 }
	switch o.Algorithm {
	case AlgoBMP, AlgoAdaptive:
		// Adaptive carries the same per-worker bitmap as BMP; its hash
		// index grows only to the largest indexed neighbor list, which is
		// noise next to the |V|-bit bitmap.
		return int64(o.Threads) * words(n) * 8
	case AlgoBMPRF:
		ranges := (n + int64(o.RangeScale) - 1) / int64(o.RangeScale)
		perWorker := words(n)*8 + words(ranges)*8 + ranges*2
		return int64(o.Threads) * perWorker
	default:
		return 0
	}
}

// makeBody builds the per-chunk edge loop of Algorithm 3 for the selected
// algorithm: recover the source vertex u of each edge offset, compute the
// count when u < v, and symmetrically assign it to the reverse offset.
//
// With Options.Metrics set the loop additionally attributes every kernel
// call to its (kernel × min-degree-bucket) cell and samples its wall time
// once per attrSampleEvery bucket hits; the unmetered loop is returned as
// a separate closure so the disabled path keeps the uninstrumented body.
func makeBody(g *graph.CSR, counts []uint32, contexts []workerCtx, opts Options) func(int, int64, int64) {
	kernel := makeKernel(g, contexts, opts)
	collect := opts.CollectWork
	if !opts.Metrics.Enabled() {
		return func(worker int, lo, hi int64) {
			ctx := &contexts[worker]
			for e := lo; e < hi; e++ {
				v := g.Dst[e]
				u := ctx.finder.Find(e)
				if u >= v {
					continue
				}
				if collect {
					// The symmetric assignment writes two count-array entries —
					// the reverse one at an uncorrelated offset — and performs
					// a reverse-offset binary search; both are part of the cost
					// the paper measures.
					ctx.work.BytesStreamed += 8
					ctx.work.RandomAccesses++
					ctx.work.BinarySteps += log2(g.Degree(v))
				}
				c := kernel(ctx, u, v)
				counts[e] = c
				rev, ok := g.EdgeOffset(v, u)
				if ok {
					counts[rev] = c
				}
			}
		}
	}
	// Metered body: same loop plus attribution. The degree-bucket lens
	// array mirrors the adaptive dispatcher's precompute; under
	// AlgoAdaptive the row is resolved after the call from the kernel the
	// dispatch actually executed (ctx.lastKernel), since fast paths and
	// table picks diverge.
	lens := degLens(g)
	adaptiveRows := opts.Algorithm == AlgoAdaptive
	return func(worker int, lo, hi int64) {
		ctx := &contexts[worker]
		attr := ctx.attr
		for e := lo; e < hi; e++ {
			v := g.Dst[e]
			u := ctx.finder.Find(e)
			if u >= v {
				continue
			}
			ctx.kernelCalls++
			if collect {
				ctx.work.BytesStreamed += 8
				ctx.work.RandomAccesses++
				ctx.work.BinarySteps += log2(g.Degree(v))
			}
			bkt := lens[u]
			if l := lens[v]; l < bkt {
				bkt = l
			}
			attr.seen[bkt]++
			var c uint32
			if attr.seen[bkt]&(attrSampleEvery-1) == 1 {
				start := time.Now()
				c = kernel(ctx, u, v)
				d := uint64(time.Since(start))
				row := 0
				if adaptiveRows {
					row = int(ctx.lastKernel)
				}
				cell := &attr.cells[row][bkt]
				cell.count++
				cell.sampledNanos += d
				cell.samples++
			} else {
				c = kernel(ctx, u, v)
				row := 0
				if adaptiveRows {
					row = int(ctx.lastKernel)
				}
				attr.cells[row][bkt].count++
			}
			counts[e] = c
			rev, ok := g.EdgeOffset(v, u)
			if ok {
				counts[rev] = c
			}
		}
	}
}

// makeKernel returns the per-edge ComputeCnt procedure for the algorithm.
func makeKernel(g *graph.CSR, contexts []workerCtx, opts Options) func(*workerCtx, uint32, uint32) uint32 {
	switch opts.Algorithm {
	case AlgoM:
		if opts.CollectWork {
			return func(ctx *workerCtx, u, v uint32) uint32 {
				return intersect.MergeStats(g.Neighbors(u), g.Neighbors(v), &ctx.work)
			}
		}
		return func(_ *workerCtx, u, v uint32) uint32 {
			return intersect.Merge(g.Neighbors(u), g.Neighbors(v))
		}

	case AlgoMPS:
		t, lanes := opts.SkewThreshold, opts.Lanes
		if opts.CollectWork {
			return func(ctx *workerCtx, u, v uint32) uint32 {
				return intersect.MPSStats(g.Neighbors(u), g.Neighbors(v), t, lanes, &ctx.work)
			}
		}
		return func(_ *workerCtx, u, v uint32) uint32 {
			return intersect.MPS(g.Neighbors(u), g.Neighbors(v), t, lanes)
		}

	case AlgoBMP:
		if opts.CollectWork {
			return func(ctx *workerCtx, u, v uint32) uint32 {
				refreshBitmap(g, ctx, u, true)
				return intersect.BitmapStats(ctx.bm, g.Neighbors(v), &ctx.work)
			}
		}
		return func(ctx *workerCtx, u, v uint32) uint32 {
			refreshBitmap(g, ctx, u, false)
			return intersect.Bitmap(ctx.bm, g.Neighbors(v))
		}

	case AlgoBMPRF:
		if opts.CollectWork {
			return func(ctx *workerCtx, u, v uint32) uint32 {
				refreshRF(g, ctx, u, true)
				return intersect.BitmapRFStats(ctx.rf, g.Neighbors(v), &ctx.work)
			}
		}
		return func(ctx *workerCtx, u, v uint32) uint32 {
			refreshRF(g, ctx, u, false)
			return intersect.BitmapRF(ctx.rf, g.Neighbors(v))
		}

	case AlgoAdaptive:
		return makeAdaptiveKernel(g, opts)
	}
	panic("core: unreachable: options validated")
}

// refreshBitmap implements ComputeCntBMP's thread-local index maintenance
// (Algorithm 3 lines 19-24): when the processed source vertex changes,
// flip-clear the previous N(pu) bits and set the N(u) bits.
func refreshBitmap(g *graph.CSR, ctx *workerCtx, u uint32, collect bool) {
	if ctx.pu == int64(u) {
		return
	}
	if ctx.pu >= 0 {
		prev := g.Neighbors(uint32(ctx.pu))
		ctx.bm.ClearList(prev)
		if collect {
			ctx.work.BitmapClears += uint64(len(prev))
			ctx.work.RandomAccesses += uint64(len(prev))
		}
	}
	nu := g.Neighbors(u)
	ctx.bm.SetList(nu)
	if collect {
		// Construction and clearing stream N(u) once but scatter single-bit
		// writes across the whole bitmap: random accesses the range filter
		// cannot avoid.
		ctx.work.BitmapSets += uint64(len(nu))
		ctx.work.RandomAccesses += uint64(len(nu))
		ctx.work.BytesStreamed += uint64(len(nu)) * 4
	}
	ctx.pu = int64(u)
}

// refreshRF is refreshBitmap for the range-filtered index.
func refreshRF(g *graph.CSR, ctx *workerCtx, u uint32, collect bool) {
	if ctx.pu == int64(u) {
		return
	}
	if ctx.pu >= 0 {
		prev := g.Neighbors(uint32(ctx.pu))
		ctx.rf.ClearList(prev)
		if collect {
			// Each range-filtered clear touches the bitmap word AND the
			// per-range counter: twice the random traffic of a plain
			// bitmap. Filter maintenance is the price of filtering, which
			// is why RF's gain saturates (paper Fig 6).
			ctx.work.BitmapClears += uint64(len(prev))
			ctx.work.RandomAccesses += 2 * uint64(len(prev))
		}
	}
	nu := g.Neighbors(u)
	ctx.rf.SetList(nu)
	if collect {
		ctx.work.BitmapSets += uint64(len(nu))
		ctx.work.RandomAccesses += 2 * uint64(len(nu))
		ctx.work.BytesStreamed += uint64(len(nu)) * 4
	}
	ctx.pu = int64(u)
}

// log2 returns ⌈log2(d)⌉ for d ≥ 1, the binary search step count.
func log2(d int64) uint64 {
	var s uint64
	for d > 1 {
		d >>= 1
		s++
	}
	return s
}
