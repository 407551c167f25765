package dynamic

import (
	"errors"
	"math/rand"
	"slices"
	"testing"

	"cncount/internal/graph"
)

// randomOps draws n ops over v vertices, ~60% inserts.
func randomOps(rng *rand.Rand, v, n int) []Op {
	ops := make([]Op, n)
	for i := range ops {
		u := graph.VertexID(rng.Intn(v))
		w := graph.VertexID(rng.Intn(v - 1))
		if w >= u {
			w++
		}
		kind := OpInsert
		if rng.Intn(10) >= 6 {
			kind = OpDelete
		}
		ops[i] = Op{Kind: kind, U: u, V: w}
	}
	return ops
}

// seedGraph returns a dynamic graph over v vertices with m random edges.
func seedGraph(t *testing.T, rng *rand.Rand, v, m int) *Graph {
	t.Helper()
	d := New(v)
	for _, op := range randomOps(rng, v, m) {
		if err := d.InsertEdge(op.U, op.V); err != nil {
			t.Fatal(err)
		}
	}
	return d
}

// cloneGraph deep-copies a dynamic graph through its frozen CSR.
func cloneGraph(t *testing.T, d *Graph) *Graph {
	t.Helper()
	g, counts, err := d.ToCSR()
	if err != nil {
		t.Fatal(err)
	}
	c, err := FromCSR(g, counts)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// requireSameState fails unless a and b freeze to identical CSRs and
// count arrays (byte-identical count values, not just triangle totals).
func requireSameState(t *testing.T, a, b *Graph) {
	t.Helper()
	ga, ca, err := a.ToCSR()
	if err != nil {
		t.Fatal(err)
	}
	gb, cb, err := b.ToCSR()
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(ga.Off, gb.Off) || !slices.Equal(ga.Dst, gb.Dst) {
		t.Fatal("adjacency differs")
	}
	if !slices.Equal(ca, cb) || a.NumEdges() != b.NumEdges() {
		t.Fatalf("counts differ (%d vs %d edges)", a.NumEdges(), b.NumEdges())
	}
}

// TestApplyBatchMatchesSequential pins the batch path's semantics to
// the per-edge path: one ApplyBatch equals applying the same ops in
// order through InsertEdge/DeleteEdge, for every count value.
func TestApplyBatchMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 25; trial++ {
		v := 20 + rng.Intn(60)
		batched := seedGraph(t, rng, v, 3*v)
		sequential := cloneGraph(t, batched)
		ops := randomOps(rng, v, 1+rng.Intn(150))

		workers := 1 + trial%4
		res, err := batched.ApplyBatch(ops, workers)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		for _, op := range ops {
			var err error
			if op.Kind == OpInsert {
				err = sequential.InsertEdge(op.U, op.V)
			} else {
				err = sequential.DeleteEdge(op.U, op.V)
			}
			if err != nil {
				t.Fatalf("trial %d: sequential: %v", trial, err)
			}
		}
		requireSameState(t, batched, sequential)
		checkAgainstBatch(t, batched)
		if res.Applied+res.NoOps+res.Deduped != len(ops) {
			t.Errorf("trial %d: %d applied + %d noops + %d deduped != %d ops",
				trial, res.Applied, res.NoOps, res.Deduped, len(ops))
		}
	}
}

// TestApplyBatchParallelMatchesSequentialWorkers pins that the worker
// count never changes the outcome, across the parallel threshold.
func TestApplyBatchParallelMatchesSequentialWorkers(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	v := 120
	one := seedGraph(t, rng, v, 6*v)
	many := cloneGraph(t, one)
	// A batch big enough to clear batchParallelMin's affected set.
	ops := randomOps(rng, v, 600)
	if _, err := one.ApplyBatch(ops, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := many.ApplyBatch(ops, 8); err != nil {
		t.Fatal(err)
	}
	requireSameState(t, one, many)
}

func TestApplyBatchValidation(t *testing.T) {
	d := New(10)
	if err := d.InsertEdge(1, 2); err != nil {
		t.Fatal(err)
	}
	before := cloneGraph(t, d)
	cases := []struct {
		name string
		ops  []Op
	}{
		{"out of range u", []Op{{Kind: OpInsert, U: 10, V: 2}}},
		{"out of range v", []Op{{Kind: OpInsert, U: 0, V: 4e9}}},
		{"self-loop", []Op{{Kind: OpInsert, U: 3, V: 3}}},
		{"unknown kind", []Op{{Kind: 9, U: 0, V: 1}}},
		{"bad op after good ones", []Op{
			{Kind: OpInsert, U: 0, V: 1},
			{Kind: OpDelete, U: 1, V: 2},
			{Kind: OpInsert, U: 3, V: 99},
		}},
	}
	for _, tc := range cases {
		_, err := d.ApplyBatch(tc.ops, 1)
		var bad *BadOpError
		if !errors.As(err, &bad) {
			t.Fatalf("%s: err = %v, want *BadOpError", tc.name, err)
		}
		// Atomicity: a rejected batch leaves the graph untouched, even
		// when earlier ops in it were valid.
		requireSameState(t, d, before)
	}
	if _, err := d.ApplyBatch(nil, 1); err != nil {
		t.Errorf("empty batch: %v", err)
	}
}

func TestApplyBatchDedupAndNoOps(t *testing.T) {
	d := New(8)
	if err := d.InsertEdge(0, 1); err != nil {
		t.Fatal(err)
	}
	res, err := d.ApplyBatch([]Op{
		{Kind: OpInsert, U: 2, V: 3}, // superseded by the delete below
		{Kind: OpInsert, U: 0, V: 1}, // no-op: already present
		{Kind: OpDelete, U: 4, V: 5}, // no-op: absent
		{Kind: OpDelete, U: 3, V: 2}, // wins the (2,3) pair: absent → no-op
		{Kind: OpInsert, U: 0, V: 2}, // effective
	}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Deduped != 1 || res.NoOps != 3 || res.Applied != 1 {
		t.Fatalf("result = %+v, want 1 deduped, 3 noops, 1 applied", res)
	}
	if d.HasEdge(2, 3) {
		t.Error("last-write-wins violated: (2,3) present")
	}
	if !d.HasEdge(0, 2) {
		t.Error("effective insert lost")
	}
}

// TestApplyBatchTriangleClosure spot-checks count repair through a
// concrete closure: inserting the last edge of a triangle must bump the
// two earlier edges' counts in the same batch.
func TestApplyBatchTriangleClosure(t *testing.T) {
	d := New(4)
	if _, err := d.ApplyBatch([]Op{
		{Kind: OpInsert, U: 0, V: 1},
		{Kind: OpInsert, U: 1, V: 2},
		{Kind: OpInsert, U: 0, V: 2},
	}, 1); err != nil {
		t.Fatal(err)
	}
	for _, e := range [][2]graph.VertexID{{0, 1}, {1, 2}, {0, 2}} {
		if c, ok := d.Count(e[0], e[1]); !ok || c != 1 {
			t.Fatalf("count(%d,%d) = %d,%v, want 1", e[0], e[1], c, ok)
		}
	}
	if d.Triangles() != 1 {
		t.Fatalf("triangles = %d, want 1", d.Triangles())
	}
	// Deleting one side in a batch with an unrelated insert reopens it.
	if _, err := d.ApplyBatch([]Op{
		{Kind: OpDelete, U: 0, V: 2},
		{Kind: OpInsert, U: 2, V: 3},
	}, 1); err != nil {
		t.Fatal(err)
	}
	if c, _ := d.Count(0, 1); c != 0 {
		t.Fatalf("count(0,1) after reopen = %d, want 0", c)
	}
	checkAgainstBatch(t, d)
}

func TestValidateOps(t *testing.T) {
	ops := []Op{{Kind: OpInsert, U: 0, V: 1}, {Kind: OpDelete, U: 2, V: 0}}
	if err := ValidateOps(3, ops); err != nil {
		t.Fatalf("valid ops rejected: %v", err)
	}
	err := ValidateOps(2, ops)
	var bad *BadOpError
	if !errors.As(err, &bad) || bad.Index != 1 {
		t.Fatalf("err = %v, want *BadOpError at index 1", err)
	}
}
