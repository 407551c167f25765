package main

import (
	"encoding/json"
	"fmt"
	"sort"

	"cncount"
	"cncount/internal/dynamic"
	"cncount/internal/graph"
)

// refGraph is the benchmark's own copy of the served edge set, advanced
// batch by batch in epoch order, against which read bodies are checked.
type refGraph struct {
	adj   [][]uint32 // sorted adjacency
	epoch uint64     // the server epoch this state corresponds to
}

// newRefGraph copies g as the service's first epoch.
func newRefGraph(g *cncount.Graph) *refGraph {
	ref := &refGraph{adj: make([][]uint32, g.NumVertices()), epoch: 1}
	for u := range ref.adj {
		ref.adj[u] = append([]uint32(nil), g.Neighbors(uint32(u))...)
	}
	return ref
}

func (g *refGraph) has(u, v uint32) bool {
	a := g.adj[u]
	i := sort.Search(len(a), func(i int) bool { return a[i] >= v })
	return i < len(a) && a[i] == v
}

func (g *refGraph) link(u, v uint32) {
	a := g.adj[u]
	i := sort.Search(len(a), func(i int) bool { return a[i] >= v })
	if i < len(a) && a[i] == v {
		return
	}
	a = append(a, 0)
	copy(a[i+1:], a[i:])
	a[i] = v
	g.adj[u] = a
}

func (g *refGraph) unlink(u, v uint32) {
	a := g.adj[u]
	i := sort.Search(len(a), func(i int) bool { return a[i] >= v })
	if i < len(a) && a[i] == v {
		g.adj[u] = append(a[:i], a[i+1:]...)
	}
}

// apply installs one batch as the given epoch; ops apply in order, so a
// later op on the same pair wins, as in the service.
func (g *refGraph) apply(epoch uint64, ops []dynamic.Op) {
	for _, op := range ops {
		if op.Kind == dynamic.OpInsert {
			g.link(op.U, op.V)
			g.link(op.V, op.U)
		} else {
			g.unlink(op.U, op.V)
			g.unlink(op.V, op.U)
		}
	}
	g.epoch = epoch
}

func (g *refGraph) common(u, v uint32) uint32 {
	a, b := g.adj[u], g.adj[v]
	var c uint32
	for i, j := 0, 0; i < len(a) && j < len(b); {
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

type topRec struct {
	V     uint32 `json:"v"`
	Count uint32 `json:"count"`
}

// topk ranks the non-neighbors of u by common neighbors, count
// descending, vertex ascending.
func (g *refGraph) topk(u uint32, k int) []topRec {
	counts := make(map[uint32]uint32)
	for _, x := range g.adj[u] {
		for _, w := range g.adj[x] {
			if w != u {
				counts[w]++
			}
		}
	}
	for _, x := range g.adj[u] {
		delete(counts, x)
	}
	recs := make([]topRec, 0, len(counts))
	for v, c := range counts {
		recs = append(recs, topRec{V: v, Count: c})
	}
	sort.Slice(recs, func(i, j int) bool {
		if recs[i].Count != recs[j].Count {
			return recs[i].Count > recs[j].Count
		}
		return recs[i].V < recs[j].V
	})
	if len(recs) > k {
		recs = recs[:k]
	}
	return recs
}

// csr freezes the reference into a graph for a fresh recount.
func (g *refGraph) csr() (*cncount.Graph, error) {
	var edges []graph.Edge
	for u, a := range g.adj {
		for _, v := range a {
			if uint32(u) < v {
				edges = append(edges, graph.Edge{U: uint32(u), V: v})
			}
		}
	}
	return cncount.NewGraph(len(g.adj), edges)
}

// readBody is the union of the edge, pair and topk response bodies.
type readBody struct {
	Epoch   uint64   `json:"epoch"`
	U       uint32   `json:"u"`
	V       uint32   `json:"v"`
	K       int      `json:"k"`
	Count   uint32   `json:"count"`
	IsEdge  *bool    `json:"is_edge"`
	Results []topRec `json:"results"`
}

func decodeRead(body []byte) (readBody, error) {
	var b readBody
	if err := json.Unmarshal(body, &b); err != nil {
		return b, fmt.Errorf("%w: decoding a read body: %v", errFailed, err)
	}
	return b, nil
}

// checkRead compares one read's body with the reference, which must be
// at the body's epoch.
func checkRead(ref *refGraph, q readReq, body []byte) error {
	b, err := decodeRead(body)
	if err != nil {
		return err
	}
	if b.Epoch != ref.epoch {
		return failf("%s: body epoch %d, reference at %d", q.path(), b.Epoch, ref.epoch)
	}
	if b.U != q.u || (q.kind != readTopK && b.V != q.v) {
		return failf("%s: body names (%d,%d)", q.path(), b.U, b.V)
	}
	switch q.kind {
	case readEdge:
		if !ref.has(q.u, q.v) {
			return failf("%s: answered for a non-edge at epoch %d", q.path(), b.Epoch)
		}
		if want := ref.common(q.u, q.v); b.Count != want {
			return failf("%s at epoch %d: count %d, want %d", q.path(), b.Epoch, b.Count, want)
		}
	case readPair:
		if want := ref.common(q.u, q.v); b.Count != want {
			return failf("%s at epoch %d: count %d, want %d", q.path(), b.Epoch, b.Count, want)
		}
		if want := ref.has(q.u, q.v); b.IsEdge == nil || *b.IsEdge != want {
			return failf("%s at epoch %d: is_edge wrong, want %v", q.path(), b.Epoch, want)
		}
	case readTopK:
		want := ref.topk(q.u, topK)
		if b.K != topK || len(b.Results) != len(want) {
			return failf("%s at epoch %d: k=%d with %d results, want %d", q.path(), b.Epoch, b.K, len(b.Results), len(want))
		}
		for i := range want {
			if b.Results[i] != want[i] {
				return failf("%s at epoch %d: result %d is %+v, want %+v", q.path(), b.Epoch, i, b.Results[i], want[i])
			}
		}
	}
	return nil
}

// checkWindow is the serving phase's correctness gate over one window: every
// batch must have been accepted, every read answered, and every sampled
// read body must match the reference at its epoch. It leaves ref at the
// last accepted batch's epoch.
func checkWindow(r *run, ref *refGraph, win window) {
	var accepted []batchRec
	for _, b := range win.batches {
		r.op(b.err)
		if b.err == nil {
			accepted = append(accepted, b)
		}
	}
	sort.SliceStable(accepted, func(i, j int) bool { return accepted[i].epoch < accepted[j].epoch })

	samples := make([]readSample, 0, len(win.samples))
	errs := make(map[int]error, len(win.readErrs))
	for i, err := range win.readErrs {
		errs[i] = err
	}
	for _, s := range win.samples {
		b, err := decodeRead(s.body)
		if err != nil {
			errs[s.read] = err
			continue
		}
		s.epoch = b.Epoch
		samples = append(samples, s)
	}
	sort.SliceStable(samples, func(i, j int) bool { return samples[i].epoch < samples[j].epoch })
	next := 0
	for _, s := range samples {
		for next < len(accepted) && accepted[next].epoch <= s.epoch {
			ref.apply(accepted[next].epoch, accepted[next].ops)
			next++
		}
		errs[s.read] = checkRead(ref, s.req, s.body)
	}
	for ; next < len(accepted); next++ {
		ref.apply(accepted[next].epoch, accepted[next].ops)
	}
	for i := range win.reads {
		r.op(errs[i])
	}
}

// checkTriangles compares the service's maintained triangle total and
// epoch with a fresh recount of the reference edge set.
func checkTriangles(ref *refGraph, info serviceInfo, threads int) error {
	if info.Epoch != ref.epoch {
		return failf("service at epoch %d, reference at %d", info.Epoch, ref.epoch)
	}
	g, err := ref.csr()
	if err != nil {
		return err
	}
	res, err := cncount.Count(g, cncount.Options{Algorithm: cncount.AlgoBMP, Reorder: true, Threads: threads})
	if err != nil {
		return fmt.Errorf("recount: %w", err)
	}
	if got, want := info.Ingest.Triangles, res.TriangleCount(); got != want {
		return failf("service maintains %d triangles, a fresh recount finds %d", got, want)
	}
	return nil
}
