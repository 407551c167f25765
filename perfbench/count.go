package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"time"

	"cncount"
	"cncount/internal/core"
	"cncount/internal/gen"
	"cncount/internal/graph"
	"cncount/internal/metrics"
	"cncount/internal/triangle"
)

// countWorkload is an all-edge counting workload over one generated
// profile.
type countWorkload struct {
	profile string
	scale   float64
}

type algorithm struct {
	name string
	algo cncount.Algorithm
}

// algorithms are the counted algorithms, by metric suffix.
var algorithms = []algorithm{
	{"m", cncount.AlgoM},
	{"mps", cncount.AlgoMPS},
	{"bmp", cncount.AlgoBMP},
	{"adaptive", cncount.AlgoAdaptive},
}

// kernels are the intersection kernels named by the attribution rows:
// "merge" (M, adaptive), "mps" (MPS), "bitmap" (BMP, adaptive) and the
// adaptive dispatcher's "block", "gallop" and "hash".
var kernels = []string{"merge", "mps", "block", "gallop", "hash", "bitmap"}

const (
	// Set-up runs at least setupRepeats times and until it has taken
	// setupShare of the window's length; setup_s is the median.
	setupRepeats = 7
	setupShare   = 0.075
	// edgeSample is how many edges are spot-checked with CountEdge.
	edgeSample = 2000
)

// genEdges generates the profile re-seeded with seed and returns its
// vertex count and undirected edge list (u < v).
func genEdges(profile string, scale float64, seed int64) (int, []graph.Edge, error) {
	p, err := gen.ProfileByName(profile)
	if err != nil {
		return 0, nil, err
	}
	p.Seed = seed
	g, err := p.Generate(scale)
	if err != nil {
		return 0, nil, fmt.Errorf("generating %s: %w", profile, err)
	}
	return g.NumVertices(), g.Edges(), nil
}

// buildGraph times cncount.NewGraphParallel from the edge list, recording
// a graph.build span when tracing.
func buildGraph(sp *spans, n int, edges []graph.Edge, threads int) (*cncount.Graph, time.Duration, error) {
	t0 := time.Now()
	g, err := cncount.NewGraphParallel(n, edges, threads)
	t1 := time.Now()
	sp.add(sp.op(), 0, "graph.build", t0, t1)
	if err != nil {
		return nil, 0, fmt.Errorf("building the graph: %w", err)
	}
	return g, t1.Sub(t0), nil
}

// countChecker is the count workloads' correctness gate: every count
// array must equal the first one computed, which is in turn spot-checked
// against cncount.CountEdge and against an independent triangle count.
type countChecker struct {
	g       *cncount.Graph
	ref     []uint32
	refAlgo string
}

// check compares one algorithm's count array against the reference,
// adopting it as the reference when it is the first.
func (k *countChecker) check(algo string, counts []uint32, err error) error {
	if err != nil {
		return fmt.Errorf("%s: %w", algo, err)
	}
	if k.ref == nil {
		if int64(len(counts)) != k.g.NumEdges() {
			return failf("%s: %d counts for %d edges", algo, len(counts), k.g.NumEdges())
		}
		k.ref, k.refAlgo = counts, algo
		return nil
	}
	if err := compareCounts(k.ref, counts); err != nil {
		return fmt.Errorf("%s vs %s: %w", algo, k.refAlgo, err)
	}
	return nil
}

// compareCounts reports the first edge offset where got differs from want.
func compareCounts(want, got []uint32) error {
	if len(want) != len(got) {
		return failf("%d counts, want %d", len(got), len(want))
	}
	for e := range want {
		if want[e] != got[e] {
			return failf("edge offset %d: count %d, want %d", e, got[e], want[e])
		}
	}
	return nil
}

// finish runs the reference checks: a seeded edge sample against
// CountEdge, and Σcnt == 6 × triangles.
func (k *countChecker) finish(r *run, seed int64, threads int) {
	if k.ref == nil {
		r.op(failf("no count array was produced"))
		return
	}
	r.op(checkEdgeSample(k.g, k.ref, seed))
	var total uint64
	for _, c := range k.ref {
		total += uint64(c)
	}
	if tri := triangle.MergeCount(k.g, threads); total != 6*tri {
		r.op(failf("Σcnt = %d, want 6 × %d triangles", total, tri))
	} else {
		r.op(nil)
	}
}

// checkEdgeSample compares counts at a seeded sample of edge offsets with
// cncount.CountEdge.
func checkEdgeSample(g *cncount.Graph, counts []uint32, seed int64) error {
	m := g.NumEdges()
	if m == 0 {
		return nil
	}
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	n := g.NumVertices()
	for i := 0; i < edgeSample; i++ {
		e := rng.Int63n(m)
		u := sort.Search(n, func(x int) bool { return g.Off[x+1] > e })
		v := g.Dst[e]
		want, err := cncount.CountEdge(g, cncount.VertexID(u), v)
		if err != nil {
			return fmt.Errorf("CountEdge(%d,%d): %w", u, v, err)
		}
		if counts[e] != want {
			return failf("edge (%d,%d): count %d, CountEdge says %d", u, v, counts[e], want)
		}
	}
	return nil
}

// runCount runs the counting phase: set up the graph, then count with
// each algorithm in rotating order until the window is spent (at least
// once each). sp is nil unless the run is traced.
func runCount(c config, r *run, sp *spans, w countWorkload) (phase, error) {
	threads := runtime.NumCPU()
	n, edges, err := genEdges(w.profile, w.scale*c.scale, c.seed)
	if err != nil {
		return phase{}, err
	}
	base := liveHeap()
	var g *cncount.Graph
	var builds []float64
	for len(builds) < setupRepeats || sum(builds) < setupShare*c.seconds {
		var d time.Duration
		if g, d, err = buildGraph(sp, n, edges, threads); err != nil {
			return phase{}, err
		}
		builds = append(builds, d.Seconds())
	}
	graphMiB := mibAbove(liveHeap(), base)
	fmt.Fprintf(c.log, "perfbench: %s counting %s |V|=%d |E|=%d directed, %d threads\n",
		c.workload, w.profile, g.NumVertices(), g.NumEdges(), threads)

	ck := &countChecker{g: g}
	if c.trace {
		overhead := countTraced(c, r, g, ck, sp, builds, threads)
		return phase{overhead: overhead}, nil
	}
	times := make(map[string][]float64)
	start := time.Now()
	for i := 0; i < len(algorithms) || time.Since(start) < c.window(); i++ {
		a := rotation(i)
		t0 := time.Now()
		res, err := cncount.Count(g, cncount.Options{Algorithm: a.algo, Reorder: true, Threads: threads})
		d := time.Since(t0)
		r.op(ck.check(a.name, resCounts(res), err))
		times[a.name] = append(times[a.name], d.Seconds())
	}
	var callMiB float64
	for _, a := range algorithms {
		counts, mib, err := countHeap(g, a, threads)
		r.op(ck.check(a.name+" (heap)", counts, err))
		callMiB = max(callMiB, mib)
	}
	ck.finish(r, c.seed, threads)

	for _, a := range algorithms {
		r.set("edges_per_s."+a.name, "edges/s", float64(g.NumEdges())/median(times[a.name]))
	}
	// The edge list is in base, so it must stay live through the readings.
	runtime.KeepAlive(edges)
	return phase{setup: median(builds), heapMiB: graphMiB + callMiB}, nil
}

// countHeap returns what cncount.Count(g, {Reorder: true}) computes and the
// most live heap, in MiB above what was live before, that the call needs.
// It composes the call from its layers and reads the heap after each one
// and throughout core.Count, so core's per-worker state is seen too. The
// call is not timed.
func countHeap(g *cncount.Graph, a algorithm, threads int) ([]uint32, float64, error) {
	base := liveHeap()
	var hp heapPeak
	rg, ro := graph.ReorderByDegree(g)
	hp.read()
	var res *core.Result
	var err error
	hp.during(func() { res, err = core.Count(rg, core.Options{Algorithm: a.algo, Threads: threads}) })
	if err != nil {
		return nil, 0, err
	}
	hp.read()
	counts := graph.MapCounts(g, rg, ro, res.Counts)
	hp.read()
	// MapCounts reads its inputs while it writes counts, so all of them
	// count toward the peak.
	runtime.KeepAlive(rg)
	runtime.KeepAlive(ro)
	runtime.KeepAlive(res)
	return counts, mibAbove(hp.peak, base), nil
}

// rotation is the algorithm of the i-th timed call: every algorithm once
// per round, each round starting one algorithm later, so no algorithm
// always runs first after set-up.
func rotation(i int) algorithm {
	n := len(algorithms)
	return algorithms[(i/n+i%n)%n]
}

func resCounts(res *cncount.Result) []uint32 {
	if res == nil {
		return nil
	}
	return res.Counts
}

// layerTimes collects one algorithm's per-call layer measurements in the
// traced run.
type layerTimes struct {
	untraced, traced           []float64
	reorder, mapCounts         []float64
	setup, count, reduce       []float64
	busy, wait, imbalance, p99 []float64
	steals                     []float64
	// attr is each layered call's kernel attribution.
	attr [][]metrics.KernelAttr
}

// countTraced alternates each algorithm's plain cncount.Count call with
// the same call composed from its layers (reorder → core.Count with a
// metrics collector → map counts), each timed from outside, then runs
// the operation-count pass and the one-thread adaptive run. It returns the
// layered time over the plain time, minus 1.
func countTraced(c config, r *run, g *cncount.Graph, ck *countChecker, sp *spans, builds []float64, threads int) float64 {
	per := make(map[string]*layerTimes, len(algorithms))
	for _, a := range algorithms {
		per[a.name] = &layerTimes{}
	}
	start := time.Now()
	for i := 0; i < len(algorithms) || time.Since(start) < c.window(); i++ {
		a := rotation(i)
		lt := per[a.name]
		t0 := time.Now()
		res, err := cncount.Count(g, cncount.Options{Algorithm: a.algo, Reorder: true, Threads: threads})
		lt.untraced = append(lt.untraced, time.Since(t0).Seconds())
		r.op(ck.check(a.name, resCounts(res), err))
		runtime.GC()
		counts, err := layeredCount(sp, g, a, threads, lt)
		r.op(ck.check(a.name+" (layered)", counts, err))
		runtime.GC()
	}

	for _, a := range algorithms {
		res, err := cncount.Count(g, cncount.Options{Algorithm: a.algo, Reorder: true, Threads: threads, CollectWork: true})
		r.op(ck.check(a.name+" (work)", resCounts(res), err))
		if err == nil {
			r.set("stats.ops."+a.name, "count", float64(res.Work.TotalOps()))
			r.set("stats.bytes_computed."+a.name, "bytes", float64(res.Work.BytesStreamed))
			r.set("stats.random_accesses."+a.name, "count", float64(res.Work.RandomAccesses))
		}
	}
	t0 := time.Now()
	res, err := cncount.Count(g, cncount.Options{Algorithm: cncount.AlgoAdaptive, Reorder: true, Threads: 1})
	one := time.Since(t0).Seconds()
	r.op(ck.check("adaptive (1 thread)", resCounts(res), err))
	r.set("sched.speedup.adaptive", "x", one/median(per["adaptive"].untraced))
	ck.finish(r, c.seed, threads)

	r.set("graph.build_s", "s", median(builds))
	var reorder, mapCounts, plain, layered []float64
	for _, a := range algorithms {
		lt := per[a.name]
		reorder = append(reorder, lt.reorder...)
		mapCounts = append(mapCounts, lt.mapCounts...)
		plain = append(plain, median(lt.untraced))
		layered = append(layered, median(lt.traced))
		r.set("core.setup_s."+a.name, "s", median(lt.setup))
		r.set("core.count_s."+a.name, "s", median(lt.count))
		r.set("core.reduce_s."+a.name, "s", median(lt.reduce))
		r.set("sched.busy_s."+a.name, "s", median(lt.busy))
		r.set("sched.wait_s."+a.name, "s", median(lt.wait))
		r.set("sched.steals."+a.name, "count", median(lt.steals))
		r.set("sched.imbalance."+a.name, "ratio", median(lt.imbalance))
		r.set("sched.task_p99_ms."+a.name, "ms", median(lt.p99))
	}
	r.set("graph.reorder_s", "s", median(reorder))
	r.set("graph.map_counts_s", "s", median(mapCounts))
	setKernelRows(r, per)
	return sum(layered)/sum(plain) - 1
}

// setKernelRows reports the intersection kernels' rows. A kernel's rows
// pool every algorithm that calls it (merge: M and adaptive; bitmap: BMP
// and adaptive). The traced window runs in rounds of one layered call per
// algorithm; calls.<kernel> is one round's call count (the same every
// round) and ns_per_call.<kernel> the median over rounds of the round's
// sampled nanoseconds per sampled call.
func setKernelRows(r *run, per map[string]*layerTimes) {
	rounds := len(per[algorithms[0].name].attr)
	for _, a := range algorithms {
		rounds = min(rounds, len(per[a.name].attr))
	}
	for _, k := range kernels {
		var calls float64
		var perCall []float64
		for i := 0; i < rounds; i++ {
			var n, nanos, samples float64
			for _, a := range algorithms {
				for _, row := range per[a.name].attr[i] {
					if row.Kernel != k {
						continue
					}
					for _, b := range row.Buckets {
						n += float64(b.Count)
						nanos += float64(b.SampledNanos)
						samples += float64(b.Samples)
					}
				}
			}
			calls = n
			if samples > 0 {
				perCall = append(perCall, nanos/samples)
			}
		}
		r.set("intersect.calls."+k, "count", calls)
		// A kernel the dispatcher never picked has no per-call cost.
		if len(perCall) > 0 {
			r.set("intersect.ns_per_call."+k, "ns", median(perCall))
		}
	}
}

// layeredCount computes what cncount.Count(g, {Reorder: true}) computes,
// calling its layers one by one so each can be timed, and records the
// core phases, scheduler tallies and kernel attribution into lt.
func layeredCount(sp *spans, g *cncount.Graph, a algorithm, threads int, lt *layerTimes) ([]uint32, error) {
	op, root := sp.op(), sp.reserve()
	t0 := time.Now()
	rg, ro := graph.ReorderByDegree(g)
	t1 := time.Now()
	sp.add(op, root, "graph.reorder", t0, t1)
	mc := metrics.New()
	res, err := core.Count(rg, core.Options{Algorithm: a.algo, Threads: threads, Metrics: mc})
	t2 := time.Now()
	sp.add(op, root, "core.count", t1, t2)
	if err != nil {
		return nil, err
	}
	counts := graph.MapCounts(g, rg, ro, res.Counts)
	t3 := time.Now()
	sp.add(op, root, "graph.map_counts", t2, t3)
	sp.addID(root, op, 0, "count."+a.name, t0, t3)

	lt.traced = append(lt.traced, t3.Sub(t0).Seconds())
	lt.reorder = append(lt.reorder, t1.Sub(t0).Seconds())
	lt.mapCounts = append(lt.mapCounts, t3.Sub(t2).Seconds())
	snap := mc.Snapshot()
	for name, dst := range map[string]*[]float64{"core.setup": &lt.setup, "core.count": &lt.count, "core.reduce": &lt.reduce} {
		ns, _ := snap.Phase(name)
		*dst = append(*dst, float64(ns)/1e9)
	}
	for _, s := range snap.Sched {
		if s.Scope != "core.count" {
			continue
		}
		var busy, wait uint64
		for _, w := range s.Workers {
			busy += w.BusyNanos
			wait += w.WaitNanos
		}
		lt.busy = append(lt.busy, float64(busy)/1e9)
		lt.wait = append(lt.wait, float64(wait)/1e9)
		lt.steals = append(lt.steals, float64(s.Steals))
		lt.imbalance = append(lt.imbalance, s.Imbalance.Ratio)
		lt.p99 = append(lt.p99, float64(s.TaskNanos.P99Nanos)/1e6)
	}
	lt.attr = append(lt.attr, snap.Attribution)
	return counts, nil
}

// writeSpans saves the traced run's spans and names the file on the log.
func writeSpans(c config, sp *spans) error {
	path := c.spanPath()
	if err := sp.write(path, newManifest(c)); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	fmt.Fprintf(c.log, "perfbench: spans written to %s\n", path)
	return nil
}
