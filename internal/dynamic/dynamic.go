// Package dynamic maintains all-edge common neighbor counts under edge
// insertions and deletions — the "online graph analytics" setting the paper
// motivates in its introduction ("online platforms maintain graphs of user
// co-purchasing relations and analyze the data on the fly"): rather than
// recomputing all |E| counts when the graph changes, the counts are
// repaired incrementally.
//
// Inserting an edge (u,v) changes counts in three ways:
//
//  1. the new edge's own count is |N(u) ∩ N(v)|;
//  2. every common neighbor w of u and v closes two new triangles' worth of
//     common-neighbor relationships: cnt[(u,w)] and cnt[(v,w)] each grow by
//     one (w's neighborhood now contains one more of their neighbors);
//  3. no other edge is affected.
//
// Deletion is the exact inverse. Both cost one set intersection plus
// O(|N(u) ∩ N(v)|) count updates — the same primitive the batch algorithms
// optimize, so the MPS machinery (pivot-skip for skewed pairs) is reused
// per update.
package dynamic

import (
	"fmt"
	"slices"

	"cncount/internal/graph"
	"cncount/internal/intersect"
)

// Graph is a mutable undirected graph with per-edge common neighbor counts
// maintained across updates. The rows are the only state: adj[u] is u's
// sorted neighbor list and cnt[u][i] the count of edge (u, adj[u][i]) —
// the paper's cnt[e(u,v)] laid out beside its adjacency row — and both
// directions of an edge hold the same value.
//
// Graph is not safe for concurrent mutation.
type Graph struct {
	adj [][]graph.VertexID
	cnt [][]uint32
	m   int // undirected edges
}

// New returns an empty dynamic graph over n vertices.
func New(n int) *Graph {
	return &Graph{adj: make([][]graph.VertexID, n), cnt: make([][]uint32, n)}
}

// FromCSR builds a dynamic graph from a static one and its count array.
// Dst and counts are copied once and cut into capacity-capped rows, so
// later updates never write into g, counts, or a neighbouring row.
func FromCSR(g *graph.CSR, counts []uint32) (*Graph, error) {
	if int64(len(counts)) != g.NumEdges() {
		return nil, fmt.Errorf("dynamic: %d counts for %d edges", len(counts), g.NumEdges())
	}
	n := g.NumVertices()
	dst := slices.Clone(g.Dst[:g.NumEdges()])
	cnt := slices.Clone(counts)
	d := New(n)
	d.m = len(dst) / 2
	for u := 0; u < n; u++ {
		lo, hi := g.Off[u], g.Off[u+1]
		d.adj[u] = dst[lo:hi:hi]
		d.cnt[u] = cnt[lo:hi:hi]
	}
	return d, nil
}

// NumVertices returns |V|.
func (d *Graph) NumVertices() int { return len(d.adj) }

// NumEdges returns the undirected edge count.
func (d *Graph) NumEdges() int { return d.m }

// Neighbors returns the sorted neighbor list of u (aliased; do not modify).
func (d *Graph) Neighbors(u graph.VertexID) []graph.VertexID { return d.adj[u] }

// HasEdge reports whether (u,v) is an edge.
func (d *Graph) HasEdge(u, v graph.VertexID) bool {
	_, ok := d.Count(u, v)
	return ok
}

// Count returns the common neighbor count of edge (u,v); ok is false when
// (u,v) is not an edge.
func (d *Graph) Count(u, v graph.VertexID) (count uint32, ok bool) {
	if int(u) >= len(d.adj) || int(v) >= len(d.adj) {
		return 0, false
	}
	i, ok := d.find(u, v)
	if !ok {
		return 0, false
	}
	return d.cnt[u][i], true
}

// checkVertices validates endpoint IDs and rejects self-loops.
func (d *Graph) checkVertices(u, v graph.VertexID) error {
	if int(u) >= len(d.adj) || int(v) >= len(d.adj) {
		return fmt.Errorf("dynamic: edge (%d,%d) out of range |V|=%d", u, v, len(d.adj))
	}
	if u == v {
		return fmt.Errorf("dynamic: self-loop (%d,%d)", u, v)
	}
	return nil
}

// InsertEdge adds the undirected edge (u,v) and repairs all affected
// counts. Inserting an existing edge is a no-op.
func (d *Graph) InsertEdge(u, v graph.VertexID) error {
	if err := d.checkVertices(u, v); err != nil {
		return err
	}
	if d.HasEdge(u, v) {
		return nil
	}
	// Common neighbors BEFORE linking: these w gain a new common neighbor
	// with both endpoints, and they define the new edge's own count.
	d.link(u, v, uint32(d.commonNeighbors(u, v, 1)))
	return nil
}

// DeleteEdge removes the undirected edge (u,v) and repairs all affected
// counts. Deleting a nonexistent edge is a no-op.
func (d *Graph) DeleteEdge(u, v graph.VertexID) error {
	if err := d.checkVertices(u, v); err != nil {
		return err
	}
	if !d.HasEdge(u, v) {
		return nil
	}
	d.unlink(u, v)
	// Common neighbors AFTER unlinking (identical to before: u∉N(u),
	// v∉N(v), so the removed edge never contributed to this set).
	d.commonNeighbors(u, v, -1)
	return nil
}

// commonNeighbors walks N(u) ∩ N(v) with the skew-aware kernel choice of
// MPS — galloping when one row dwarfs the other, merging otherwise —
// shifts cnt(u,w) and cnt(v,w) by delta for every common neighbor w, in
// both rows of each edge, and returns |N(u) ∩ N(v)|.
func (d *Graph) commonNeighbors(u, v graph.VertexID, delta int) int {
	a, b := d.adj[u], d.adj[v]
	n := 0
	// hit shifts the counts of a common neighbor at a[i] == b[j].
	hit := func(i, j int) {
		w := a[i]
		d.cnt[u][i] = uint32(int(d.cnt[u][i]) + delta)
		d.cnt[v][j] = uint32(int(d.cnt[v][j]) + delta)
		k, _ := d.find(w, u)
		d.cnt[w][k] = d.cnt[u][i]
		k, _ = d.find(w, v)
		d.cnt[w][k] = d.cnt[v][j]
		n++
	}
	if intersect.Skewed(len(a), len(b), intersect.DefaultSkewThreshold) {
		// Pivot-skip enumeration: iterate the short row, gallop the long.
		if len(a) < len(b) {
			u, v, a, b = v, u, b, a
		}
		i := 0
		for j, x := range b {
			i += intersect.LowerBound(a[i:], x)
			if i >= len(a) {
				break
			}
			if a[i] == x {
				hit(i, j)
				i++
			}
		}
		return n
	}
	for i, j := 0, 0; i < len(a) && j < len(b); {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			hit(i, j)
			i++
			j++
		}
	}
	return n
}

// ToCSR freezes the dynamic graph into a static CSR plus a count array
// indexed by its edge offsets: a prefix sum over row lengths, then each
// row and its counts appended in vertex order. Both arrays are freshly
// allocated, so later updates never reach a frozen copy. The error is
// always nil.
func (d *Graph) ToCSR() (*graph.CSR, []uint32, error) {
	off := make([]int64, len(d.adj)+1)
	for u, row := range d.adj {
		off[u+1] = off[u] + int64(len(row))
	}
	dst := make([]graph.VertexID, 0, off[len(d.adj)])
	counts := make([]uint32, 0, off[len(d.adj)])
	for u, row := range d.adj {
		dst = append(dst, row...)
		counts = append(counts, d.cnt[u]...)
	}
	return &graph.CSR{Off: off, Dst: dst}, counts, nil
}

// Triangles returns Σcnt/6 over both directions of every edge.
func (d *Graph) Triangles() uint64 {
	var sum uint64
	for _, row := range d.cnt {
		for _, c := range row {
			sum += uint64(c)
		}
	}
	return sum / 6
}

// find returns the position of v in u's row, or where it would be
// inserted, and whether it is present.
func (d *Graph) find(u, v graph.VertexID) (int, bool) {
	row := d.adj[u]
	i := intersect.LowerBound(row, v)
	return i, i < len(row) && row[i] == v
}

// link adds the absent edge (u,v) to both rows with count c.
func (d *Graph) link(u, v graph.VertexID, c uint32) {
	for _, x := range [2][2]graph.VertexID{{u, v}, {v, u}} {
		i, _ := d.find(x[0], x[1])
		d.adj[x[0]] = slices.Insert(d.adj[x[0]], i, x[1])
		d.cnt[x[0]] = slices.Insert(d.cnt[x[0]], i, c)
	}
	d.m++
}

// unlink removes the present edge (u,v) from both rows.
func (d *Graph) unlink(u, v graph.VertexID) {
	for _, x := range [2][2]graph.VertexID{{u, v}, {v, u}} {
		i, _ := d.find(x[0], x[1])
		d.adj[x[0]] = slices.Delete(d.adj[x[0]], i, i+1)
		d.cnt[x[0]] = slices.Delete(d.cnt[x[0]], i, i+1)
	}
	d.m--
}

// set stores c as the count of the present edge (u,v) in both rows.
func (d *Graph) set(u, v graph.VertexID, c uint32) {
	i, _ := d.find(u, v)
	j, _ := d.find(v, u)
	d.cnt[u][i], d.cnt[v][j] = c, c
}
