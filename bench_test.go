// Benchmarks regenerating every table and figure of the paper's evaluation
// (§5), plus ablations of the design choices called out in DESIGN.md.
//
// Each BenchmarkTableN/BenchmarkFigN target runs the real workload behind
// the corresponding artifact; cmd/experiments renders the same artifacts
// with the processor models applied. The dataset profile scale defaults to
// 0.5 and can be overridden with CNC_BENCH_SCALE (1.0 reproduces the
// default experiment configuration; smaller is faster but weakens the
// degree-skew structure of WI/TW).
package cncount_test

import (
	"fmt"
	"os"
	"strconv"
	"sync"
	"testing"

	"cncount"
	"cncount/internal/archsim"
	"cncount/internal/bitmap"
	"cncount/internal/core"
	"cncount/internal/gpusim"
	"cncount/internal/intersect"
	"cncount/internal/sched"
)

var (
	benchMu     sync.Mutex
	benchGraphs = map[string]*cncount.Graph{}
)

func benchScale() float64 {
	if s := os.Getenv("CNC_BENCH_SCALE"); s != "" {
		if v, err := strconv.ParseFloat(s, 64); err == nil && v > 0 {
			return v
		}
	}
	return 0.5
}

// benchGraph returns the reordered profile graph, cached across benchmarks.
func benchGraph(b *testing.B, name string) *cncount.Graph {
	b.Helper()
	benchMu.Lock()
	defer benchMu.Unlock()
	if g, ok := benchGraphs[name]; ok {
		return g
	}
	g0, err := cncount.GenerateProfile(name, benchScale())
	if err != nil {
		b.Fatal(err)
	}
	g, _ := cncount.ReorderByDegree(g0)
	benchGraphs[name] = g
	return g
}

func countBench(b *testing.B, g *cncount.Graph, opts cncount.Options) {
	b.Helper()
	b.ReportAllocs()
	var sink uint64
	for i := 0; i < b.N; i++ {
		res, err := cncount.Count(g, opts)
		if err != nil {
			b.Fatal(err)
		}
		sink += uint64(res.Counts[0])
	}
	_ = sink
	b.ReportMetric(float64(g.NumEdges()/2)*float64(b.N)/b.Elapsed().Seconds(), "intersections/s")
}

// --- Table 1: graph statistics ------------------------------------------

func BenchmarkTable1Stats(b *testing.B) {
	for _, name := range cncount.ProfileNames() {
		g := benchGraph(b, name)
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				s := cncount.Summarize(name, g)
				if s.NumEdges == 0 {
					b.Fatal("empty graph")
				}
			}
		})
	}
}

// --- Table 2: skewed-intersection percentage ----------------------------

func BenchmarkTable2Skew(b *testing.B) {
	for _, name := range cncount.ProfileNames() {
		g := benchGraph(b, name)
		b.Run(name, func(b *testing.B) {
			var last float64
			for i := 0; i < b.N; i++ {
				last = cncount.SkewPercent(g, 50)
			}
			b.ReportMetric(last, "skew%")
		})
	}
}

// --- Table 3: thread-local bitmap cost ----------------------------------

func BenchmarkTable3BitmapMem(b *testing.B) {
	// The runtime cost behind Table 3's footprint: constructing and
	// flip-clearing the thread-local bitmap index for every vertex.
	for _, name := range []string{"TW", "FR"} {
		g := benchGraph(b, name)
		b.Run(name, func(b *testing.B) {
			bm := bitmap.New(uint32(g.NumVertices()))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for u := 0; u < g.NumVertices(); u++ {
					nu := g.Neighbors(cncount.VertexID(u))
					bm.SetList(nu)
					bm.ClearList(nu)
				}
			}
			b.ReportMetric(float64(bm.MemoryBytes()), "bitmap-bytes")
		})
	}
}

// --- Table 4: technique stack vs baseline M -----------------------------

func BenchmarkTable4Stack(b *testing.B) {
	g := benchGraph(b, "TW")
	rows := []struct {
		name string
		opts cncount.Options
	}{
		{"M", cncount.Options{Algorithm: cncount.AlgoM, Threads: 1}},
		{"MPS", cncount.Options{Algorithm: cncount.AlgoMPS, Threads: 1, Lanes: 1}},
		{"MPS+V", cncount.Options{Algorithm: cncount.AlgoMPS, Threads: 1, Lanes: 8}},
		{"MPS+V+P", cncount.Options{Algorithm: cncount.AlgoMPS, Lanes: 8}},
		{"BMP", cncount.Options{Algorithm: cncount.AlgoBMP, Threads: 1}},
		{"BMP+P", cncount.Options{Algorithm: cncount.AlgoBMP}},
		{"BMP+P+RF", cncount.Options{Algorithm: cncount.AlgoBMPRF, RangeScale: 64}},
	}
	for _, r := range rows {
		b.Run(r.name, func(b *testing.B) { countBench(b, g, r.opts) })
	}
}

// --- Table 5: co-processing ---------------------------------------------

func BenchmarkTable5CoProcessing(b *testing.B) {
	g := benchGraph(b, "TW")
	for _, cp := range []bool{false, true} {
		b.Run(fmt.Sprintf("coprocess=%v", cp), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				rep, err := gpusim.Run(g, gpusim.Config{
					Algorithm: cncount.AlgoBMP, CapacityScale: 0.001 * benchScale(),
					RangeScale: 64, CoProcessing: cp,
				})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(rep.PostTime.Seconds()*1e3, "modeled-post-ms")
			}
		})
	}
}

// --- Table 6: pass planning ---------------------------------------------

func BenchmarkTable6Passes(b *testing.B) {
	for _, name := range []string{"TW", "FR"} {
		g := benchGraph(b, name)
		b.Run(name, func(b *testing.B) {
			var passes int
			for i := 0; i < b.N; i++ {
				plan := gpusim.PlanPasses(g, gpusim.Config{
					Algorithm: cncount.AlgoBMP, CapacityScale: 0.001 * benchScale(), RangeScale: 64,
				})
				passes = plan.Passes
			}
			b.ReportMetric(float64(passes), "planned-passes")
		})
	}
}

// --- Table 7: GPU range filtering ---------------------------------------

func BenchmarkTable7GPURangeFilter(b *testing.B) {
	g := benchGraph(b, "TW")
	for _, algo := range []cncount.Algorithm{cncount.AlgoBMP, cncount.AlgoBMPRF} {
		b.Run(algo.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				rep, err := gpusim.Run(g, gpusim.Config{
					Algorithm: algo, CapacityScale: 0.001 * benchScale(),
					RangeScale: 64, CoProcessing: true,
				})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(rep.TotalTime.Seconds()*1e3, "modeled-ms")
			}
		})
	}
}

// --- Figure 3: degree-skew handling (single-threaded) --------------------

func BenchmarkFig3DegreeSkew(b *testing.B) {
	for _, name := range []string{"TW", "FR"} {
		g := benchGraph(b, name)
		for _, algo := range []cncount.Algorithm{cncount.AlgoM, cncount.AlgoMPS, cncount.AlgoBMP} {
			b.Run(name+"/"+algo.String(), func(b *testing.B) {
				countBench(b, g, cncount.Options{Algorithm: algo, Threads: 1, Lanes: 1})
			})
		}
	}
}

// --- Figure 4: vectorization --------------------------------------------

func BenchmarkFig4Vectorization(b *testing.B) {
	for _, name := range []string{"TW", "FR"} {
		g := benchGraph(b, name)
		for _, lanes := range []int{1, 8, 16} {
			b.Run(fmt.Sprintf("%s/lanes=%d", name, lanes), func(b *testing.B) {
				countBench(b, g, cncount.Options{Algorithm: cncount.AlgoMPS, Threads: 1, Lanes: lanes})
			})
		}
	}
}

// --- Figure 5: thread scalability ---------------------------------------

func BenchmarkFig5Scalability(b *testing.B) {
	g := benchGraph(b, "TW")
	for _, threads := range []int{1, 2, 4, 0} {
		label := fmt.Sprintf("threads=%d", threads)
		if threads == 0 {
			label = "threads=max"
		}
		for _, algo := range []cncount.Algorithm{cncount.AlgoMPS, cncount.AlgoBMP} {
			b.Run(algo.String()+"/"+label, func(b *testing.B) {
				countBench(b, g, cncount.Options{Algorithm: algo, Threads: threads})
			})
		}
	}
}

// --- Figure 6: range filtering ------------------------------------------

func BenchmarkFig6RangeFilter(b *testing.B) {
	for _, name := range []string{"TW", "FR"} {
		g := benchGraph(b, name)
		for _, algo := range []cncount.Algorithm{cncount.AlgoBMP, cncount.AlgoBMPRF} {
			b.Run(name+"/"+algo.String(), func(b *testing.B) {
				countBench(b, g, cncount.Options{Algorithm: algo, RangeScale: 64})
			})
		}
	}
}

// --- Figure 7: MCDRAM modes (modeled pipeline) ---------------------------

func BenchmarkFig7MCDRAM(b *testing.B) {
	g := benchGraph(b, "FR")
	for _, mode := range []cncount.MemoryMode{cncount.ModeDDR, cncount.ModeFlat, cncount.ModeCache} {
		b.Run(mode.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sim, err := cncount.Simulate(g, cncount.SimOptions{
					Processor:     cncount.ProcKNL,
					Algorithm:     cncount.AlgoMPS,
					MemMode:       mode,
					CapacityScale: 0.001 * benchScale(),
				})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(sim.Modeled.Seconds()*1e3, "modeled-ms")
			}
		})
	}
}

// --- Figure 8: multi-pass processing ------------------------------------

func BenchmarkFig8MultiPass(b *testing.B) {
	g := benchGraph(b, "TW")
	for _, passes := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("passes=%d", passes), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				rep, err := gpusim.Run(g, gpusim.Config{
					Algorithm: cncount.AlgoBMP, CapacityScale: 0.001 * benchScale(),
					RangeScale: 64, CoProcessing: true, Passes: passes,
				})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(rep.TotalTime.Seconds()*1e3, "modeled-ms")
			}
		})
	}
}

// --- Figure 9: block-size tuning ----------------------------------------

func BenchmarkFig9BlockSize(b *testing.B) {
	g := benchGraph(b, "TW")
	for _, warps := range []int{1, 4, 32} {
		b.Run(fmt.Sprintf("warps=%d", warps), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				rep, err := gpusim.Run(g, gpusim.Config{
					Algorithm: cncount.AlgoBMP, CapacityScale: 0.001 * benchScale(),
					RangeScale: 64, CoProcessing: true, WarpsPerBlock: warps,
				})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(rep.TotalTime.Seconds()*1e3, "modeled-ms")
			}
		})
	}
}

// --- Figure 10: the cross-processor comparison ---------------------------

func BenchmarkFig10Final(b *testing.B) {
	g := benchGraph(b, "TW")
	for _, proc := range cncount.Processors {
		for _, algo := range []cncount.Algorithm{cncount.AlgoMPS, cncount.AlgoBMPRF} {
			b.Run(proc.String()+"/"+algo.String(), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					sim, err := cncount.Simulate(g, cncount.SimOptions{
						Processor:     proc,
						Algorithm:     algo,
						CoProcessing:  true,
						MemMode:       cncount.ModeFlat,
						CapacityScale: 0.001 * benchScale(),
					})
					if err != nil {
						b.Fatal(err)
					}
					b.ReportMetric(sim.Modeled.Seconds()*1e3, "modeled-ms")
				}
			})
		}
	}
}

// --- Ablations of DESIGN.md's design choices -----------------------------

// BenchmarkAblationSkewThreshold sweeps MPS's t: too small sends balanced
// pairs through pivot-skip, too large sends skewed pairs through the block
// merge; the paper's 50 sits near the optimum on skewed graphs.
func BenchmarkAblationSkewThreshold(b *testing.B) {
	g := benchGraph(b, "TW")
	for _, t := range []float64{2, 10, 50, 250, 1e9} {
		b.Run(fmt.Sprintf("t=%g", t), func(b *testing.B) {
			countBench(b, g, cncount.Options{Algorithm: cncount.AlgoMPS, Threads: 1, SkewThreshold: t})
		})
	}
}

// BenchmarkAblationTaskSize sweeps |T|: small tasks balance load but stress
// the scheduler cursor; large tasks amortize it but straggle.
func BenchmarkAblationTaskSize(b *testing.B) {
	g := benchGraph(b, "TW")
	for _, ts := range []int{64, 512, 2048, 16384, 1 << 20} {
		b.Run(fmt.Sprintf("T=%d", ts), func(b *testing.B) {
			countBench(b, g, cncount.Options{Algorithm: cncount.AlgoMPS, TaskSize: ts})
		})
	}
}

// BenchmarkAblationRangeScale sweeps the RF filter ratio: small scales
// filter precisely but grow the filter; large scales shrink it but pass
// more probes through.
func BenchmarkAblationRangeScale(b *testing.B) {
	g := benchGraph(b, "FR")
	for _, rs := range []int{4, 64, 1024, 4096} {
		b.Run(fmt.Sprintf("scale=%d", rs), func(b *testing.B) {
			countBench(b, g, cncount.Options{Algorithm: cncount.AlgoBMPRF, RangeScale: rs})
		})
	}
}

// BenchmarkAblationLanes sweeps the block-merge width on a balanced graph.
func BenchmarkAblationLanes(b *testing.B) {
	g := benchGraph(b, "FR")
	for _, lanes := range []int{4, 8, 16, 32} {
		b.Run(fmt.Sprintf("lanes=%d", lanes), func(b *testing.B) {
			countBench(b, g, cncount.Options{Algorithm: cncount.AlgoMPS, Threads: 1, Lanes: lanes})
		})
	}
}

// BenchmarkAblationBitmapClear compares the paper's flip-back clearing
// (O(d_u)) against zeroing the whole bitmap (O(|V|/64)) per vertex switch.
func BenchmarkAblationBitmapClear(b *testing.B) {
	g := benchGraph(b, "TW")
	n := uint32(g.NumVertices())
	b.Run("flip-clear", func(b *testing.B) {
		bm := bitmap.New(n)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for u := 0; u < g.NumVertices(); u++ {
				nu := g.Neighbors(cncount.VertexID(u))
				bm.SetList(nu)
				bm.ClearList(nu)
			}
		}
	})
	b.Run("zero-all", func(b *testing.B) {
		bm := bitmap.New(n)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for u := 0; u < g.NumVertices(); u++ {
				bm.SetList(g.Neighbors(cncount.VertexID(u)))
				bm.Reset()
			}
		}
	})
}

// BenchmarkAblationScheduling compares the fixed-chunk dynamic schedule
// the paper (and core) use against a static one, both on the one
// work-stealing runtime, on a deliberately imbalanced workload (a few
// units are much more expensive, as hub vertices are). The dynamic arm
// runs |T| = 512; the static arm runs |T| = ⌈n/workers⌉, so each worker's
// slab is one task and there is nothing left to steal.
func BenchmarkAblationScheduling(b *testing.B) {
	const n = 1 << 16
	work := func(i int64) int64 {
		// Skewed cost: a few units are 1000x more expensive.
		iters := int64(1)
		if i%997 == 0 {
			iters = 1000
		}
		var s int64
		for k := int64(0); k < iters; k++ {
			s += k ^ i
		}
		return s
	}
	body := func(_ int, lo, hi int64) {
		var s int64
		for i := lo; i < hi; i++ {
			s += work(i)
		}
		_ = s
	}
	workers := sched.Workers(0)
	for _, arm := range []struct {
		name     string
		taskSize int
	}{
		{"dynamic", 512},
		{"static", (n + workers - 1) / workers},
	} {
		b.Run(arm.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sched.Run(n, arm.taskSize, workers, sched.Obs{}, body)
			}
		})
	}
}

// BenchmarkAblationOrdering compares vertex orderings for BMP: the paper's
// degree-descending relabeling (which guarantees the bitmap side is the
// larger-degree endpoint), the degeneracy ordering common in triangle
// counting, and no reordering at all.
func BenchmarkAblationOrdering(b *testing.B) {
	g0, err := cncount.GenerateProfile("TW", benchScale())
	if err != nil {
		b.Fatal(err)
	}
	degree, _ := cncount.ReorderByDegree(g0)
	degeneracy, _ := cncount.ReorderByDegeneracy(g0)
	for _, v := range []struct {
		name string
		g    *cncount.Graph
	}{
		{"none", g0},
		{"degree-descending", degree},
		{"degeneracy", degeneracy},
	} {
		b.Run(v.name, func(b *testing.B) {
			countBench(b, v.g, cncount.Options{Algorithm: cncount.AlgoBMP, Threads: 1})
		})
	}
}

// BenchmarkDynamicUpdates measures the incremental count maintenance
// against the cost of a full recount per update.
func BenchmarkDynamicUpdates(b *testing.B) {
	g := benchGraph(b, "LJ")
	res, err := cncount.Count(g, cncount.Options{Algorithm: cncount.AlgoBMP})
	if err != nil {
		b.Fatal(err)
	}
	dg, err := cncount.DynamicFromGraph(g, res.Counts)
	if err != nil {
		b.Fatal(err)
	}
	n := g.NumVertices()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		u := cncount.VertexID(i % n)
		v := cncount.VertexID((i*7 + 1) % n)
		if u == v || dg.HasEdge(u, v) {
			continue
		}
		if err := dg.InsertEdge(u, v); err != nil {
			b.Fatal(err)
		}
		if err := dg.DeleteEdge(u, v); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationGallopWindow sweeps the linear-search window width that
// precedes galloping in the PS lower bound.
func BenchmarkAblationGallopWindow(b *testing.B) {
	g := benchGraph(b, "TW")
	// Extract a skewed pair: the largest list against a small one.
	big := g.Neighbors(0)
	var small []cncount.VertexID
	for u := g.NumVertices() - 1; u > 0; u-- {
		if d := g.Degree(cncount.VertexID(u)); d >= 4 && d <= 64 {
			small = g.Neighbors(cncount.VertexID(u))
			break
		}
	}
	if len(small) == 0 || len(big) == 0 {
		b.Skip("no skewed pair in bench graph")
	}
	for _, window := range []int{1, 4, 16, 64} {
		b.Run(fmt.Sprintf("window=%d", window), func(b *testing.B) {
			var sink int
			for i := 0; i < b.N; i++ {
				for _, pivot := range small {
					sink += intersect.LowerBoundWindow(big, pivot, window)
				}
			}
			_ = sink
		})
	}
}

// BenchmarkCoreKernels measures the raw intersection kernels on adjacency
// lists from the profile graphs (the per-intersection costs everything else
// builds on).
func BenchmarkCoreKernels(b *testing.B) {
	g := benchGraph(b, "TW")
	hub := g.Neighbors(0) // largest-degree vertex after reordering
	var leaf []cncount.VertexID
	for u := g.NumVertices() - 1; u > 0; u-- {
		if g.Degree(cncount.VertexID(u)) >= 8 {
			leaf = g.Neighbors(cncount.VertexID(u))
			break
		}
	}
	bm := bitmap.New(uint32(g.NumVertices()))
	bm.SetList(hub)
	b.Run("Merge/skewed", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			intersect.Merge(hub, leaf)
		}
	})
	b.Run("PivotSkip/skewed", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			intersect.PivotSkip(hub, leaf)
		}
	})
	b.Run("BlockMerge8/skewed", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			intersect.BlockMerge(hub, leaf, 8)
		}
	})
	b.Run("Bitmap/skewed", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			intersect.Bitmap(bm, leaf)
		}
	})
}

// BenchmarkArchsimEstimate measures the analytic model itself (it must be
// negligible next to the workloads it models).
func BenchmarkArchsimEstimate(b *testing.B) {
	g := benchGraph(b, "TW")
	res, err := core.Count(g, core.Options{Algorithm: core.AlgoMPS, CollectWork: true})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		archsim.Estimate(res.Work, archsim.KNL, archsim.RunConfig{Threads: 256, Lanes: 16})
	}
}
