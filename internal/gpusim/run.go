package gpusim

import (
	"fmt"
	"sync/atomic"
	"time"

	"cncount/internal/archsim"
	"cncount/internal/bitmap"
	"cncount/internal/core"
	"cncount/internal/graph"
	"cncount/internal/intersect"
	"cncount/internal/sched"
	"cncount/internal/stats"
)

// Report is the outcome of one simulated GPU run.
type Report struct {
	// Counts holds cnt[e] for every directed edge offset, identical to the
	// host algorithms' output (the simulation is functionally exact).
	Counts []uint32

	// KernelTime is the modeled GPU time of the counting kernels across
	// all passes, excluding page migration.
	KernelTime time.Duration

	// SwapTime is the modeled unified-memory page migration time.
	SwapTime time.Duration

	// TotalTime is KernelTime + SwapTime + the non-overlapped host
	// post-processing time.
	TotalTime time.Duration

	// PostTime is the modeled CPU time of the symmetric-assignment
	// post-processing (the quantity of Table 5), charged on the paper's
	// CPU spec. With co-processing only the final re-mapping pass remains;
	// without it the reverse offsets are binary-searched after the kernels.
	PostTime time.Duration

	// AssignTime is the modeled CPU time of the co-processing offset
	// assignment; it overlaps the GPU kernels and is excluded from
	// TotalTime (reported for Table 5's analysis).
	AssignTime time.Duration

	// Passes, PageFaults, Thrashed describe the multi-pass behaviour.
	Passes     int
	PageFaults int64
	Thrashed   bool

	// KernelBreakdown reports each kernel's share of the modeled work —
	// the merge kernel (warp-wise block merge), the pivot-skip kernel
	// (divergent thread-per-edge), and the bitmap kernel — matching the
	// paper's analysis that "the pivot-skip merge kernel for MPS on the
	// GPU is inefficient due to irregular memory gathering".
	KernelBreakdown KernelBreakdown

	// Plan is the Table 6 memory breakdown used.
	Plan MemoryPlan

	// Occupancy is the SM thread occupancy of the block-size configuration.
	Occupancy float64
}

// KernelBreakdown splits the modeled kernel work by kernel type.
type KernelBreakdown struct {
	// MergeEdges, PSEdges and BitmapEdges count the edges each kernel
	// processed.
	MergeEdges  uint64
	PSEdges     uint64
	BitmapEdges uint64
	// MergeBytes, PSBytes and BitmapBytes are each kernel's global-memory
	// traffic.
	MergeBytes  uint64
	PSBytes     uint64
	BitmapBytes uint64
}

// gpuWork tallies modeled GPU work. All counters are integers so parallel
// accumulation is deterministic.
type gpuWork struct {
	warpInstr      uint64 // coherent warp instructions issued
	divergentOps   uint64 // scalar ops in divergent thread-per-edge kernels
	globalBytes    uint64 // global-memory traffic of the kernels
	atomicOps      uint64 // bitmap-pool acquisition and construction atomics
	edgesProcessed uint64
	kernels        KernelBreakdown
	_              [64]byte // avoid false sharing between worker slots
}

func (w *gpuWork) add(o *gpuWork) {
	w.warpInstr += o.warpInstr
	w.divergentOps += o.divergentOps
	w.globalBytes += o.globalBytes
	w.atomicOps += o.atomicOps
	w.edgesProcessed += o.edgesProcessed
	w.kernels.MergeEdges += o.kernels.MergeEdges
	w.kernels.PSEdges += o.kernels.PSEdges
	w.kernels.BitmapEdges += o.kernels.BitmapEdges
	w.kernels.MergeBytes += o.kernels.MergeBytes
	w.kernels.PSBytes += o.kernels.PSBytes
	w.kernels.BitmapBytes += o.kernels.BitmapBytes
}

// Run executes the configured algorithm on the simulated GPU.
func Run(g *graph.CSR, cfg Config) (*Report, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	if cfg.RangeScale <= 0 {
		cfg.RangeScale = 64
	}
	plan := PlanPasses(g, cfg)
	passes := cfg.Passes
	if passes == 0 {
		passes = plan.Passes
	}
	n := g.NumVertices()
	if passes > n && n > 0 {
		passes = n
	}
	numEdges := g.NumEdges()
	counts := make([]uint32, numEdges)
	rep := &Report{Passes: passes, Plan: plan, Occupancy: cfg.Occupancy()}

	hostThreads := sched.Workers(cfg.HostThreads)

	// Co-processing phase (Algorithm 4, AssignOffsetsOnCPU): stash the
	// reverse edge offset into cnt for every u > v edge. On the real system
	// this overlaps the GPU kernels through concurrent unified-memory
	// access; here it runs first (the entries are disjoint from the
	// kernels' u < v entries, so the result is identical). Its modeled time
	// overlaps the kernels and is reported separately.
	if cfg.CoProcessing {
		assignReverseOffsets(g, counts, hostThreads)
	}

	// GPU counting kernels, one pass per destination-vertex range.
	work := runKernels(g, counts, cfg, passes, hostThreads)

	// Post-processing on the CPU (Table 5).
	if cfg.CoProcessing {
		remapReverseCounts(g, counts, hostThreads)
	} else {
		searchReverseCounts(g, counts, hostThreads)
	}
	rep.AssignTime, rep.PostTime = modelPostTimes(g, cfg)

	rep.Counts = counts
	rep.KernelBreakdown = work.kernels
	modelTimes(rep, &work, cfg, g, passes)
	return rep, nil
}

// modelPostTimes charges the CPU-side phases on the paper's CPU spec at
// its full thread count: the reverse-offset binary-search pass (the
// co-processing assignment, or the whole post phase when co-processing is
// off) and the cheap final remap pass.
func modelPostTimes(g *graph.CSR, cfg Config) (assign, post time.Duration) {
	var search, remap stats.Work
	n := g.NumVertices()
	for u := 0; u < n; u++ {
		for e := g.Off[u]; e < g.Off[u+1]; e++ {
			v := g.Dst[e]
			if uint32(u) > v {
				d := g.Degree(v)
				var steps uint64
				for ; d > 1; d >>= 1 {
					steps++
				}
				search.BinarySteps += steps
				search.RandomAccesses += 1 + steps/2
				search.BytesStreamed += 8
				remap.RandomAccesses++
				remap.BytesStreamed += 8
			}
		}
	}
	cpu := archsim.CPU.ScaledCapacity(cfg.CapacityScale)
	rc := archsim.RunConfig{
		Threads: cpu.Cores * cpu.SMTWays,
		// The searched adjacency lists and the randomly written count array
		// span the CSR.
		RandomWorkingSetBytes: g.MemoryBytes(),
	}
	searchTime := archsim.Estimate(search, cpu, rc).Total
	remapTime := archsim.Estimate(remap, cpu, rc).Total
	if cfg.CoProcessing {
		return searchTime, remapTime
	}
	return 0, searchTime + remapTime
}

// assignReverseOffsets writes cnt[e(u,v)] = e(v,u) for u > v, in parallel.
func assignReverseOffsets(g *graph.CSR, counts []uint32, threads int) {
	sched.Run(int64(g.NumVertices()), 0, threads, sched.Obs{}, func(_ int, lo, hi int64) {
		for u := lo; u < hi; u++ {
			for e := g.Off[u]; e < g.Off[u+1]; e++ {
				v := g.Dst[e]
				if uint32(u) > v {
					rev, ok := g.EdgeOffset(v, uint32(u))
					if ok {
						counts[e] = uint32(rev)
					}
				}
			}
		}
	})
}

// remapReverseCounts finishes co-processing: cnt[e] = cnt[cnt[e]] for u > v.
func remapReverseCounts(g *graph.CSR, counts []uint32, threads int) {
	sched.Run(int64(g.NumVertices()), 0, threads, sched.Obs{}, func(_ int, lo, hi int64) {
		for u := lo; u < hi; u++ {
			for e := g.Off[u]; e < g.Off[u+1]; e++ {
				if uint32(u) > g.Dst[e] {
					counts[e] = counts[counts[e]]
				}
			}
		}
	})
}

// searchReverseCounts is the non-co-processed post phase: binary search
// every reverse offset after the kernels complete.
func searchReverseCounts(g *graph.CSR, counts []uint32, threads int) {
	sched.Run(int64(g.NumVertices()), 0, threads, sched.Obs{}, func(_ int, lo, hi int64) {
		for u := lo; u < hi; u++ {
			for e := g.Off[u]; e < g.Off[u+1]; e++ {
				v := g.Dst[e]
				if uint32(u) > v {
					rev, ok := g.EdgeOffset(v, uint32(u))
					if ok {
						counts[e] = counts[rev]
					}
				}
			}
		}
	})
}

// runKernels executes the counting for every pass, tallying modeled work.
// Thread blocks (one per source vertex) are distributed over host workers;
// each worker owns one simulated bitmap, standing in for the bitmap its
// resident thread block acquires from the pool.
func runKernels(g *graph.CSR, counts []uint32, cfg Config, passes, hostThreads int) gpuWork {
	n := g.NumVertices()
	numV := uint32(n)
	t := cfg.SkewThreshold
	isBMP := cfg.Algorithm == core.AlgoBMP || cfg.Algorithm == core.AlgoBMPRF
	useRF := cfg.Algorithm == core.AlgoBMPRF

	workers := make([]gpuWork, hostThreads)
	bitmaps := make([]*bitmap.Bitmap, hostThreads)
	filters := make([]*bitmap.RangeFiltered, hostThreads)
	// Bitmap-pool acquisition contention counter (the atomicCAS loop of
	// Algorithm 6 lines 22-26).
	var poolCAS atomic.Int64

	// One recorder spans all passes: the per-worker tallies (and steal
	// counts) accumulate across them into a single "gpusim.kernel"
	// snapshot.
	rec := cfg.Metrics.SchedRecorder("gpusim.kernel", hostThreads)
	obs := sched.Obs{Rec: rec, Trace: cfg.Trace, Scope: "gpusim.kernel"}
	for p := 0; p < passes; p++ {
		vLo := uint32(int64(p) * int64(n) / int64(passes))
		vHi := uint32(int64(p+1) * int64(n) / int64(passes))
		sched.Run(int64(n), 64, hostThreads, obs, func(worker int, lo, hi int64) {
			w := &workers[worker]
			for ui := lo; ui < hi; ui++ {
				u := uint32(ui)
				nu := g.Neighbors(u)
				if len(nu) == 0 {
					continue
				}
				blockWork(g, u, nu, vLo, vHi, counts, cfg, w,
					t, isBMP, useRF, numV, worker, bitmaps, filters, &poolCAS)
			}
		})
	}

	rec.Commit()

	var total gpuWork
	for i := range workers {
		total.add(&workers[i])
	}
	total.atomicOps += uint64(poolCAS.Load())
	return total
}

// blockWork simulates one thread block's processing of vertex u within the
// pass's destination range [vLo, vHi).
func blockWork(g *graph.CSR, u uint32, nu []uint32, vLo, vHi uint32,
	counts []uint32, cfg Config, w *gpuWork, t float64,
	isBMP, useRF bool, numV uint32, worker int,
	bitmaps []*bitmap.Bitmap, filters []*bitmap.RangeFiltered, poolCAS *atomic.Int64) {

	built := false
	for i := g.Off[u]; i < g.Off[u+1]; i++ {
		v := g.Dst[i]
		if v < vLo || v >= vHi || u >= v {
			continue
		}
		nv := g.Neighbors(v)
		var c uint32
		switch {
		case isBMP:
			if !built {
				// Acquire a bitmap from the pool and construct the N(u)
				// index with warp-parallel atomic-or (Algorithm 6 lines
				// 6-9). One simulated bitmap per host worker stands in for
				// the pool slot.
				poolCAS.Add(1)
				if useRF {
					if filters[worker] == nil {
						filters[worker] = bitmap.NewRangeFiltered(numV, cfg.RangeScale)
					}
					filters[worker].SetList(nu)
				} else {
					if bitmaps[worker] == nil {
						bitmaps[worker] = bitmap.New(numV)
					}
					bitmaps[worker].SetList(nu)
				}
				built = true
				w.atomicOps += uint64(len(nu))
				w.warpInstr += warpIters(len(nu)) * 3
				w.globalBytes += uint64(len(nu)) * 36 // N(u) load + scattered atomic-or
			}
			if useRF {
				c = intersect.BitmapRF(filters[worker], nv)
				// Probes answered by the shared-memory filter cost no
				// global traffic; survivors load a 32B sector each.
				survivors := countSurvivors(filters[worker], nv)
				w.warpInstr += warpIters(len(nv))*3 + 5
				bytes := uint64(len(nv))*4 + uint64(survivors)*32
				w.globalBytes += bytes
				w.kernels.BitmapEdges++
				w.kernels.BitmapBytes += bytes
			} else {
				c = intersect.Bitmap(bitmaps[worker], nv)
				w.warpInstr += warpIters(len(nv))*3 + 5
				bytes := uint64(len(nv))*4 + uint64(len(nv))*32
				w.globalBytes += bytes
				w.kernels.BitmapEdges++
				w.kernels.BitmapBytes += bytes
			}

		case cfg.Algorithm == core.AlgoMPS && intersect.Skewed(len(nu), len(nv), t):
			// PSKernel: one thread per edge; the irregular searches
			// diverge, so ops are charged on the divergent path.
			var ps psWork
			c = pivotSkipCounted(nu, nv, &ps)
			w.divergentOps += ps.ops
			bytes := uint64(len(nv))*4 + ps.gathers*32
			w.globalBytes += bytes
			w.kernels.PSEdges++
			w.kernels.PSBytes += bytes

		default:
			// MKernel: warp-wise block merge (the warp handles one edge,
			// loading 32-element tiles into shared memory).
			c = intersect.BlockMerge(nu, nv, WarpSize)
			steps := warpIters(len(nu)) + warpIters(len(nv))
			w.warpInstr += steps*36 + 5 // all-pair tile compare + reduction
			bytes := uint64(len(nu)+len(nv)) * 4
			w.globalBytes += bytes
			w.kernels.MergeEdges++
			w.kernels.MergeBytes += bytes
		}
		counts[i] = c
		w.globalBytes += 4 // count write
		w.edgesProcessed++
	}
	if built {
		// Clear and release the bitmap (Algorithm 6 line 21).
		if useRF {
			filters[worker].ClearList(nu)
		} else {
			bitmaps[worker].ClearList(nu)
		}
		w.atomicOps += uint64(len(nu))
		w.warpInstr += warpIters(len(nu)) * 3
		w.globalBytes += uint64(len(nu)) * 32
	}
}

// countSurvivors reports how many probes of nv pass the range filter.
func countSurvivors(rf *bitmap.RangeFiltered, nv []uint32) int {
	s := 0
	for _, v := range nv {
		if _, filtered := rf.TestCounted(v); !filtered {
			s++
		}
	}
	return s
}

// warpIters returns how many warp-wide iterations cover k elements.
func warpIters(k int) uint64 {
	return uint64((k + WarpSize - 1) / WarpSize)
}

// psWork tallies the divergent pivot-skip kernel's operations.
type psWork struct {
	ops     uint64
	gathers uint64
}

// pivotSkipCounted mirrors intersect.PivotSkip while counting operations
// and irregular gathers for the GPU cost model.
func pivotSkipCounted(a, b []uint32, w *psWork) uint32 {
	if len(a) == 0 || len(b) == 0 {
		return 0
	}
	var c uint32
	offA, offB := 0, 0
	for {
		stepA := intersect.LowerBound(a[offA:], b[offB])
		w.ops += 18 // vectorless linear+gallop+binary sequence on one thread
		w.gathers += 3
		offA += stepA
		if offA >= len(a) {
			return c
		}
		stepB := intersect.LowerBound(b[offB:], a[offA])
		w.ops += 18
		w.gathers += 3
		offB += stepB
		if offB >= len(b) {
			return c
		}
		w.ops++
		if a[offA] == b[offB] {
			c++
			offA++
			offB++
			if offA >= len(a) || offB >= len(b) {
				return c
			}
		}
	}
}

// modelTimes converts the tallied work into modeled kernel, swap and total
// times.
func modelTimes(rep *Report, w *gpuWork, cfg Config, g *graph.CSR, passes int) {
	spec := cfg.Spec

	// Compute: coherent warp instructions issue at spec.IPC per SM-cycle,
	// derated by occupancy-driven latency hiding; divergent thread ops
	// issue one lane at a time (warp-serialized).
	occ := cfg.Occupancy()
	// Latency hiding grows with resident warps and saturates; it derates
	// both issue throughput and achievable memory bandwidth (too few
	// resident warps cannot keep the GDDR channel busy) — the mechanism of
	// the paper's block-size tuning (Figure 9).
	hiding := occ / (occ + 0.35) * (1 + 0.35)
	issue := float64(spec.Cores) * spec.IPC * spec.FreqGHz * 1e9 * hiding
	divergencePenalty := 4.0
	instr := float64(w.warpInstr) + float64(w.atomicOps)*2 +
		float64(w.divergentOps)*divergencePenalty/WarpSize*8
	computeSec := instr / issue

	// Bandwidth: kernel traffic plus the per-pass rescan of the CSR (every
	// pass iterates all edges to test the destination range), over the
	// occupancy-derated GDDR bandwidth.
	scanBytes := float64(rep.Plan.CSRBytes) * float64(passes)
	bwSec := (float64(w.globalBytes) + scanBytes) / (spec.DDRBandwidth * 1e9 * 0.8 * hiding)

	kernelSec := computeSec
	if bwSec > kernelSec {
		kernelSec = bwSec
	}
	rep.KernelTime = time.Duration(kernelSec * float64(time.Second))

	// Unified-memory paging (§4.2.2): each pass streams the offset and
	// destination arrays once (cold/streaming faults) and holds the pass's
	// destination rows plus the count slice as its hot set. If the hot set
	// exceeds what global memory has left after the bitmap pool and the
	// reservation, on-demand migration thrashes: a fraction of every
	// destination-list access faults.
	avail := cfg.GlobalMemBytes - rep.Plan.BitmapBytes - cfg.ReservedBytes
	csr := float64(rep.Plan.CSRBytes)
	cnt := float64(rep.Plan.CountBytes)

	// Sequential migration: when everything fits it is moved in once;
	// otherwise every pass re-streams the CSR and its count slice over
	// PCIe. Prefetched sequential streams move at bulk bandwidth.
	var streamBytes float64
	if csr+cnt <= float64(avail) {
		streamBytes = csr + cnt
	} else {
		streamBytes = (csr + cnt/float64(passes)) * float64(passes)
	}
	swapSec := streamBytes / pcieBandwidth

	// The pass's hot set is its destination-vertex rows, which are accessed
	// repeatedly (once per incoming edge) and must stay resident; the
	// sequentially streamed arrays are covered by Mem_reserved, matching
	// the paper's pass-estimation formula. An overflowing hot set thrashes:
	// a fraction of every destination-list access takes an on-demand fault.
	var faults float64
	hot := csr / float64(passes)
	if avail <= 0 {
		rep.Thrashed = true
		faults = float64(w.edgesProcessed)
	} else if hot > float64(avail) {
		rep.Thrashed = true
		missFrac := 1 - float64(avail)/hot
		faults = float64(w.edgesProcessed) * missFrac
	}
	swapSec += faults * pageFaultLatencySec
	rep.PageFaults = int64(streamBytes/PageBytes + faults)
	rep.SwapTime = time.Duration(swapSec * float64(time.Second))

	rep.TotalTime = rep.KernelTime + rep.SwapTime + rep.PostTime
}

// String summarizes a report.
func (r *Report) String() string {
	return fmt.Sprintf("total=%v (kernel=%v swap=%v post=%v passes=%d faults=%d occ=%.0f%% thrash=%v)",
		r.TotalTime, r.KernelTime, r.SwapTime, r.PostTime,
		r.Passes, r.PageFaults, 100*r.Occupancy, r.Thrashed)
}
