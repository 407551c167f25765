// Package triangle implements exact triangle counting, the problem the
// paper contrasts with all-edge common neighbor counting (§2.2.2): with the
// order constraint u < v < w and symmetry breaking, triangle counting only
// intersects the truncated neighborhoods N⁺(u) and N⁺(v) and keeps no
// per-edge value, whereas the all-edge operation intersects full
// neighborhoods and stores all |E| counts.
//
// Three counters are provided, mirroring the multicore triangle-counting
// literature the paper cites [23]:
//
//   - MergeCount: merge-based intersection of N⁺ lists;
//   - HashCount: hash-index-based intersection of N⁺ lists;
//   - FromEdgeCounts: derives the count from a precomputed all-edge common
//     neighbor count array via Σcnt/6 — free once the counts exist.
//
// The benchmark suite compares them to quantify how much extra work the
// all-edge operation does for its per-edge outputs.
package triangle

import (
	"cncount/internal/graph"
	"cncount/internal/sched"
)

// forward returns N⁺(u): the suffix of N(u) with IDs greater than u.
func forward(g *graph.CSR, u graph.VertexID) []graph.VertexID {
	nu := g.Neighbors(u)
	lo, hi := 0, len(nu)
	for lo < hi {
		mid := (lo + hi) / 2
		if nu[mid] <= u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return nu[lo:]
}

// MergeCount counts triangles with the ordered merge method: for every
// edge (u,v) with u < v, |N⁺(u) ∩ N⁺(v)| triangles have u as their smallest
// vertex and v as their middle one. workers < 1 uses all cores.
func MergeCount(g *graph.CSR, workers int) uint64 {
	n := int64(g.NumVertices())
	partial := make([]uint64, sched.Workers(workers)*8) // padded slots
	sched.Run(n, 256, workers, sched.Obs{}, func(worker int, lo, hi int64) {
		var local uint64
		for ui := lo; ui < hi; ui++ {
			u := graph.VertexID(ui)
			fu := forward(g, u)
			for _, v := range fu {
				fv := forward(g, v)
				local += mergeLen(fu, fv)
			}
		}
		partial[worker*8] += local
	})
	var total uint64
	for i := 0; i < len(partial); i += 8 {
		total += partial[i]
	}
	return total
}

func mergeLen(a, b []graph.VertexID) uint64 {
	var c uint64
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			c++
			i++
			j++
		}
	}
	return c
}

// HashCount counts triangles with a per-worker hash index over N⁺(u),
// probed by each N⁺(v) — the hash variant of [23]. workers < 1 uses all
// cores.
func HashCount(g *graph.CSR, workers int) uint64 {
	n := int64(g.NumVertices())
	w := sched.Workers(workers)
	partial := make([]uint64, w*8)
	sets := make([]*hashSet, w)
	sched.Run(n, 256, workers, sched.Obs{}, func(worker int, lo, hi int64) {
		if sets[worker] == nil {
			sets[worker] = newHashSet(64)
		}
		set := sets[worker]
		var local uint64
		for ui := lo; ui < hi; ui++ {
			u := graph.VertexID(ui)
			fu := forward(g, u)
			if len(fu) == 0 {
				continue
			}
			set.reset(len(fu))
			for _, w := range fu {
				set.add(w)
			}
			for _, v := range fu {
				for _, w := range forward(g, v) {
					if set.has(w) {
						local++
					}
				}
			}
		}
		partial[worker*8] += local
	})
	var total uint64
	for i := 0; i < len(partial); i += 8 {
		total += partial[i]
	}
	return total
}

// FromEdgeCounts derives the triangle count from an all-edge common
// neighbor count array: Σcnt = 6·triangles, since each triangle {u,v,w}
// contributes one common neighbor to each of its six directed edges.
func FromEdgeCounts(counts []uint32) uint64 {
	var sum uint64
	for _, c := range counts {
		sum += uint64(c)
	}
	return sum / 6
}

// hashSet is a minimal open-addressing set of uint32 keys with linear
// probing; the sentinel empty slot is ^uint32(0) (never a vertex ID, since
// IDs are < |V| ≤ 2^32-1 in practice and the caller controls inputs).
type hashSet struct {
	slots []uint32
	mask  uint32
}

const hashEmpty = ^uint32(0)

func newHashSet(capacity int) *hashSet {
	h := &hashSet{}
	h.grow(capacity)
	return h
}

// grow sizes the table to hold n keys at ≤ 50% load.
func (h *hashSet) grow(n int) {
	size := 16
	for size < 2*n {
		size <<= 1
	}
	h.slots = make([]uint32, size)
	h.mask = uint32(size - 1)
	for i := range h.slots {
		h.slots[i] = hashEmpty
	}
}

// reset prepares the set for n new keys, reallocating only when needed.
func (h *hashSet) reset(n int) {
	if 2*n > len(h.slots) {
		h.grow(n)
		return
	}
	for i := range h.slots {
		h.slots[i] = hashEmpty
	}
}

func hash32(x uint32) uint32 {
	// Finalizer of MurmurHash3.
	x ^= x >> 16
	x *= 0x85ebca6b
	x ^= x >> 13
	x *= 0xc2b2ae35
	x ^= x >> 16
	return x
}

func (h *hashSet) add(key uint32) {
	i := hash32(key) & h.mask
	for h.slots[i] != hashEmpty {
		if h.slots[i] == key {
			return
		}
		i = (i + 1) & h.mask
	}
	h.slots[i] = key
}

func (h *hashSet) has(key uint32) bool {
	i := hash32(key) & h.mask
	for h.slots[i] != hashEmpty {
		if h.slots[i] == key {
			return true
		}
		i = (i + 1) & h.mask
	}
	return false
}
