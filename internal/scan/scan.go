// Package scan implements pruning-based structural graph clustering
// (pSCAN-family, [8, 9, 27]) — the application the paper's introduction
// motivates and its authors' own prior system consumes all-edge common
// neighbor counts for.
//
// SCAN(ε, μ) clusters a graph by structural similarity
// σ(u,v) = |Γ(u)∩Γ(v)| / √(|Γ(u)|·|Γ(v)|) over closed neighborhoods: an
// edge is an ε-edge when σ ≥ ε; a vertex is a core when it has ≥ μ
// ε-neighbors (itself included); clusters are the core-connected
// components with borders attached; the remaining vertices are hubs
// (bridging ≥ 2 clusters) or outliers.
//
// Two evaluation strategies are provided:
//
//   - FromCounts: reuse a precomputed all-edge count array (the paper's
//     pipeline — one batch counting run feeds any number of (ε, μ)
//     queries).
//   - Run: compute similarities on demand with the pSCAN pruning rules —
//     degree-based σ upper/lower bounds decide most edges without any
//     intersection, and the rest use an early-exit threshold merge that
//     stops as soon as σ ≥ ε is decided. This is the right strategy when
//     only one (ε, μ) query is needed.
package scan

import (
	"fmt"
	"math"

	"cncount/internal/graph"
	"cncount/internal/intersect"
	"cncount/internal/sched"
)

// Result is a clustering outcome.
type Result struct {
	// ClusterOf maps vertex → cluster ID, or -1 for hubs/outliers.
	ClusterOf []int32
	// NumClusters is the number of clusters found.
	NumClusters int
	// Cores, Hubs and Outliers classify the vertices.
	Cores    []bool
	Hubs     []bool
	Outliers []bool
	// SimilarityChecks counts the set intersections actually performed by
	// Run (pruned checks excluded) — the pruning effectiveness metric.
	SimilarityChecks int64
	// EdgesTotal is the number of undirected edges considered.
	EdgesTotal int64
}

// Params are the SCAN parameters.
type Params struct {
	// Eps is the similarity threshold ε in (0, 1].
	Eps float64
	// Mu is the core threshold μ ≥ 2 (counting the vertex itself).
	Mu int
	// Workers parallelizes the similarity phase; < 1 uses all cores.
	Workers int
}

func (p Params) validate() error {
	if p.Eps <= 0 || p.Eps > 1 {
		return fmt.Errorf("scan: eps %g outside (0, 1]", p.Eps)
	}
	if p.Mu < 2 {
		return fmt.Errorf("scan: mu %d below 2", p.Mu)
	}
	return nil
}

// epsNeeded returns the smallest common neighbor count that makes
// σ(u,v) ≥ ε, i.e. ⌈ε·√((d_u+1)(d_v+1))⌉ − 2 (the +2 accounts for u and v
// themselves in the closed neighborhoods).
func epsNeeded(eps float64, du, dv int64) int64 {
	need := int64(math.Ceil(eps*math.Sqrt(float64(du+1)*float64(dv+1)) - 1e-9))
	return need - 2
}

// Run clusters g with on-demand similarity evaluation and pSCAN-style
// pruning.
func Run(g *graph.CSR, p Params) (*Result, error) {
	if err := p.validate(); err != nil {
		return nil, err
	}
	n := g.NumVertices()
	numE := g.NumEdges()

	// Phase 1: decide every u<v edge's ε-membership in parallel. epsEdge is
	// indexed by edge offset (both directions filled).
	epsEdge := make([]bool, numE)
	checks := make([]int64, sched.Workers(p.Workers)*8)
	sched.Run(int64(n), 64, p.Workers, sched.Obs{}, func(worker int, lo, hi int64) {
		var local int64
		for ui := lo; ui < hi; ui++ {
			u := graph.VertexID(ui)
			du := g.Degree(u)
			for e := g.Off[u]; e < g.Off[u+1]; e++ {
				v := g.Dst[e]
				if u >= v {
					continue
				}
				dv := g.Degree(v)
				need := epsNeeded(p.Eps, du, dv)
				var isEps bool
				switch {
				case need <= 0:
					// σ ≥ ε already from the shared endpoints.
					isEps = true
				case need > min64(du, dv):
					// Even a full overlap cannot reach ε: prune.
					isEps = false
				default:
					local++
					_, isEps = intersect.MergeThreshold(g.Neighbors(u), g.Neighbors(v), uint32(need))
				}
				if isEps {
					epsEdge[e] = true
					if rev, ok := g.EdgeOffset(v, u); ok {
						epsEdge[rev] = true
					}
				}
			}
		}
		checks[worker*8] += local
	})
	var totalChecks int64
	for i := 0; i < len(checks); i += 8 {
		totalChecks += checks[i]
	}

	res := cluster(g, epsEdge, p.Mu)
	res.SimilarityChecks = totalChecks
	res.EdgesTotal = numE / 2
	return res, nil
}

// FromCounts clusters g using a precomputed all-edge common neighbor count
// array (as produced by the counting engine), turning each (ε, μ) query
// into a linear pass.
func FromCounts(g *graph.CSR, counts []uint32, p Params) (*Result, error) {
	if err := p.validate(); err != nil {
		return nil, err
	}
	if int64(len(counts)) != g.NumEdges() {
		return nil, fmt.Errorf("scan: %d counts for %d edges", len(counts), g.NumEdges())
	}
	n := g.NumVertices()
	epsEdge := make([]bool, g.NumEdges())
	sched.Run(int64(n), 256, p.Workers, sched.Obs{}, func(_ int, lo, hi int64) {
		for ui := lo; ui < hi; ui++ {
			u := graph.VertexID(ui)
			du := g.Degree(u)
			for e := g.Off[u]; e < g.Off[u+1]; e++ {
				v := g.Dst[e]
				need := epsNeeded(p.Eps, du, g.Degree(v))
				epsEdge[e] = int64(counts[e]) >= need
			}
		}
	})
	res := cluster(g, epsEdge, p.Mu)
	res.EdgesTotal = g.NumEdges() / 2
	return res, nil
}

// cluster runs the structural phases over decided ε-edges: core detection,
// core union, border attachment, hub/outlier classification.
func cluster(g *graph.CSR, epsEdge []bool, mu int) *Result {
	n := g.NumVertices()
	cores := make([]bool, n)
	for u := 0; u < n; u++ {
		epsNbrs := 1 // Γ(u) contains u
		for e := g.Off[u]; e < g.Off[u+1]; e++ {
			if epsEdge[e] {
				epsNbrs++
			}
		}
		cores[u] = epsNbrs >= mu
	}

	parent := make([]int32, n)
	for i := range parent {
		parent[i] = int32(i)
	}
	var find func(int32) int32
	find = func(x int32) int32 {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	for u := 0; u < n; u++ {
		if !cores[u] {
			continue
		}
		for e := g.Off[u]; e < g.Off[u+1]; e++ {
			v := g.Dst[e]
			if cores[v] && epsEdge[e] {
				ru, rv := find(int32(u)), find(int32(v))
				if ru != rv {
					parent[ru] = rv
				}
			}
		}
	}

	clusterOf := make([]int32, n)
	for i := range clusterOf {
		clusterOf[i] = -1
	}
	next := int32(0)
	rootCluster := make(map[int32]int32)
	for u := 0; u < n; u++ {
		if !cores[u] {
			continue
		}
		r := find(int32(u))
		id, ok := rootCluster[r]
		if !ok {
			id = next
			next++
			rootCluster[r] = id
		}
		clusterOf[u] = id
	}
	for u := 0; u < n; u++ {
		if cores[u] {
			continue
		}
		for e := g.Off[u]; e < g.Off[u+1]; e++ {
			v := g.Dst[e]
			if cores[v] && epsEdge[e] {
				clusterOf[u] = clusterOf[v]
				break
			}
		}
	}

	hubs := make([]bool, n)
	outliers := make([]bool, n)
	for u := 0; u < n; u++ {
		if clusterOf[u] != -1 {
			continue
		}
		first := int32(-1)
		for e := g.Off[u]; e < g.Off[u+1]; e++ {
			if c := clusterOf[g.Dst[e]]; c != -1 {
				if first == -1 {
					first = c
				} else if c != first {
					hubs[u] = true
					break
				}
			}
		}
		if !hubs[u] {
			outliers[u] = true
		}
	}
	return &Result{
		ClusterOf:   clusterOf,
		NumClusters: int(next),
		Cores:       cores,
		Hubs:        hubs,
		Outliers:    outliers,
	}
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}
