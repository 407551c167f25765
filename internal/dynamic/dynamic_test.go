package dynamic

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"

	"cncount/internal/graph"
	"cncount/internal/verify"
)

// checkAgainstBatch freezes the graph, validates the CSR, and compares
// every count against a from-scratch recount.
func checkAgainstBatch(t *testing.T, d *Graph) {
	t.Helper()
	g, counts, err := d.ToCSR()
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Validate(); err != nil {
		t.Fatalf("ToCSR built an invalid CSR: %v", err)
	}
	if err := verify.CheckCounts(g, counts); err != nil {
		t.Fatalf("incremental counts diverged: %v", err)
	}
}

func TestInsertTriangle(t *testing.T) {
	d := New(4)
	for _, e := range [][2]graph.VertexID{{0, 1}, {1, 2}, {0, 2}, {0, 3}} {
		if err := d.InsertEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	want := map[[2]graph.VertexID]uint32{
		{0, 1}: 1, {1, 2}: 1, {0, 2}: 1, {0, 3}: 0,
	}
	for e, w := range want {
		c, ok := d.Count(e[0], e[1])
		if !ok {
			t.Fatalf("edge %v missing", e)
		}
		if c != w {
			t.Errorf("cnt%v = %d, want %d", e, c, w)
		}
	}
	if d.Triangles() != 1 {
		t.Errorf("Triangles = %d, want 1", d.Triangles())
	}
	checkAgainstBatch(t, d)
}

func TestInsertIdempotent(t *testing.T) {
	d := New(3)
	if err := d.InsertEdge(0, 1); err != nil {
		t.Fatal(err)
	}
	if err := d.InsertEdge(1, 0); err != nil {
		t.Fatal(err)
	}
	if d.NumEdges() != 1 {
		t.Errorf("NumEdges = %d, want 1", d.NumEdges())
	}
}

func TestDeleteRestoresCounts(t *testing.T) {
	// Insert a K4, delete one edge, verify against batch; re-insert and
	// verify the counts return.
	d := New(4)
	var all [][2]graph.VertexID
	for u := graph.VertexID(0); u < 4; u++ {
		for v := u + 1; v < 4; v++ {
			all = append(all, [2]graph.VertexID{u, v})
			if err := d.InsertEdge(u, v); err != nil {
				t.Fatal(err)
			}
		}
	}
	if c, _ := d.Count(0, 1); c != 2 {
		t.Fatalf("K4 cnt(0,1) = %d, want 2", c)
	}
	if err := d.DeleteEdge(2, 3); err != nil {
		t.Fatal(err)
	}
	if d.HasEdge(2, 3) {
		t.Fatal("edge (2,3) survived deletion")
	}
	checkAgainstBatch(t, d)
	if err := d.InsertEdge(3, 2); err != nil {
		t.Fatal(err)
	}
	if c, _ := d.Count(2, 3); c != 2 {
		t.Errorf("reinserted cnt(2,3) = %d, want 2", c)
	}
	checkAgainstBatch(t, d)
}

func TestDeleteNonexistent(t *testing.T) {
	d := New(3)
	if err := d.DeleteEdge(0, 1); err != nil {
		t.Fatalf("deleting a nonexistent edge must be a no-op, got %v", err)
	}
}

func TestValidation(t *testing.T) {
	d := New(3)
	if err := d.InsertEdge(0, 0); err == nil {
		t.Error("self-loop accepted")
	}
	if err := d.InsertEdge(0, 9); err == nil {
		t.Error("out-of-range vertex accepted")
	}
	if err := d.DeleteEdge(9, 0); err == nil {
		t.Error("out-of-range deletion accepted")
	}
}

func TestFromCSR(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	edges := make([]graph.Edge, 300)
	for i := range edges {
		edges[i] = graph.Edge{U: graph.VertexID(rng.Intn(50)), V: graph.VertexID(rng.Intn(50))}
	}
	g, err := graph.FromEdges(50, edges)
	if err != nil {
		t.Fatal(err)
	}
	counts := verify.Counts(g)
	d, err := FromCSR(g, counts)
	if err != nil {
		t.Fatal(err)
	}
	if int64(d.NumEdges())*2 != g.NumEdges() {
		t.Errorf("NumEdges = %d, want %d", d.NumEdges(), g.NumEdges()/2)
	}
	// Continue mutating from the imported state.
	if err := d.InsertEdge(0, 49); err != nil {
		t.Fatal(err)
	}
	if err := d.DeleteEdge(0, 49); err != nil {
		t.Fatal(err)
	}
	checkAgainstBatch(t, d)

	if _, err := FromCSR(g, counts[:1]); err == nil {
		t.Error("short count array accepted")
	}
}

// TestPropertyRandomUpdateStream is the main invariant test: after any
// random sequence of insertions and deletions, the incremental counts match
// a from-scratch recomputation.
func TestPropertyRandomUpdateStream(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 5 + rng.Intn(30)
		d := New(n)
		for op := 0; op < 120; op++ {
			u := graph.VertexID(rng.Intn(n))
			v := graph.VertexID(rng.Intn(n))
			if u == v {
				continue
			}
			if rng.Intn(3) == 0 {
				if err := d.DeleteEdge(u, v); err != nil {
					return false
				}
			} else {
				if err := d.InsertEdge(u, v); err != nil {
					return false
				}
			}
		}
		if d.NumEdges() == 0 {
			return true
		}
		g, counts, err := d.ToCSR()
		if err != nil || g.Validate() != nil {
			return false
		}
		want := verify.Counts(g)
		for e := range want {
			if counts[e] != want[e] {
				return false
			}
		}
		return d.Triangles() == verify.Triangles(g)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestSkewedUpdatePath(t *testing.T) {
	// A hub with a long adjacency list forces the pivot-skip enumeration
	// path inside commonNeighbors.
	n := 3000
	d := New(n)
	for v := 1; v < n; v++ {
		if err := d.InsertEdge(0, graph.VertexID(v)); err != nil {
			t.Fatal(err)
		}
	}
	// A small clique overlapping the hub's neighborhood.
	for _, e := range [][2]graph.VertexID{{1, 2}, {2, 3}, {1, 3}} {
		if err := d.InsertEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	// Edge (1,2): common neighbors are 0 and 3.
	if c, _ := d.Count(1, 2); c != 2 {
		t.Errorf("cnt(1,2) = %d, want 2", c)
	}
	// Hub edge (0,1): common neighbors 2 and 3.
	if c, _ := d.Count(0, 1); c != 2 {
		t.Errorf("cnt(0,1) = %d, want 2", c)
	}
	checkAgainstBatch(t, d)
}

func TestAccessors(t *testing.T) {
	d := New(5)
	if d.NumVertices() != 5 {
		t.Errorf("NumVertices = %d", d.NumVertices())
	}
	if err := d.InsertEdge(1, 3); err != nil {
		t.Fatal(err)
	}
	nbr := d.Neighbors(1)
	if len(nbr) != 1 || nbr[0] != 3 {
		t.Errorf("Neighbors(1) = %v", nbr)
	}
	if d.HasEdge(0, 99) || d.HasEdge(99, 0) {
		t.Error("out-of-range HasEdge true")
	}
	if !d.HasEdge(3, 1) {
		t.Error("HasEdge not symmetric")
	}
	if _, ok := d.Count(0, 1); ok {
		t.Error("Count reported a nonexistent edge")
	}
	if _, ok := d.Count(0, 99); ok {
		t.Error("Count reported an out-of-range edge")
	}
}

func TestCommonNeighborsSkewBranches(t *testing.T) {
	// Force both orders of the skewed enumeration: long-short and
	// short-long, plus the match-at-end and early-break paths.
	n := 2000
	d := New(n)
	// Vertex 0: hub over evens; vertex 1: small odd set plus some evens.
	for v := 2; v < n; v += 2 {
		if err := d.InsertEdge(0, graph.VertexID(v)); err != nil {
			t.Fatal(err)
		}
	}
	for _, v := range []graph.VertexID{2, 500, 1998, 3, 5} {
		if err := d.InsertEdge(1, v); err != nil {
			t.Fatal(err)
		}
	}
	// Insert (0,1): its count must equal |N(0) ∩ N(1)| = {2,500,1998}.
	if err := d.InsertEdge(0, 1); err != nil {
		t.Fatal(err)
	}
	if c, _ := d.Count(0, 1); c != 3 {
		t.Errorf("cnt(0,1) = %d, want 3", c)
	}
	checkAgainstBatch(t, d)
	// And the reverse skew: a new hub edge whose small side is first arg.
	if err := d.InsertEdge(1, 1999); err != nil {
		t.Fatal(err)
	}
	checkAgainstBatch(t, d)
}

// TestUpdatesNeverAliasFrozenArrays pins the copy boundaries of the
// row layout: rows are edited in place, yet neither the CSR and counts
// handed to FromCSR nor an earlier ToCSR result may ever change.
func TestUpdatesNeverAliasFrozenArrays(t *testing.T) {
	// A 6-cycle plus chords closing triangles 0-1-2 and 3-4-5: every
	// count row is non-zero, and after FromCSR every row is full
	// (len == cap) between two neighbouring rows of one block.
	edges := []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 3}, {U: 3, V: 4}, {U: 4, V: 5}, {U: 5, V: 0}, {U: 0, V: 2}, {U: 3, V: 5}, {U: 1, V: 4}}
	cases := []struct {
		name   string
		mutate func(d *Graph) error
	}{
		{"InsertEdge", func(d *Graph) error { return d.InsertEdge(0, 3) }},
		{"DeleteEdge", func(d *Graph) error { return d.DeleteEdge(1, 2) }},
		{"ApplyBatch", func(d *Graph) error {
			_, err := d.ApplyBatch([]Op{
				{Kind: OpDelete, U: 0, V: 1},
				{Kind: OpDelete, U: 3, V: 4},
				{Kind: OpInsert, U: 2, V: 5},
			}, 1)
			return err
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			g, err := graph.FromEdges(6, edges)
			if err != nil {
				t.Fatal(err)
			}
			counts := verify.Counts(g)
			d, err := FromCSR(g, counts)
			if err != nil {
				t.Fatal(err)
			}
			frozen, frozenCounts, err := d.ToCSR()
			if err != nil {
				t.Fatal(err)
			}
			wantIn, wantOut := snapshot(g, counts), snapshot(frozen, frozenCounts)
			if err := tc.mutate(d); err != nil {
				t.Fatal(err)
			}
			checkAgainstBatch(t, d)
			if got := snapshot(g, counts); !reflect.DeepEqual(got, wantIn) {
				t.Errorf("FromCSR input changed: %+v -> %+v", wantIn, got)
			}
			if got := snapshot(frozen, frozenCounts); !reflect.DeepEqual(got, wantOut) {
				t.Errorf("earlier ToCSR result changed: %+v -> %+v", wantOut, got)
			}
		})
	}
}

// frozenArrays is a deep copy of a CSR and its count array.
type frozenArrays struct {
	Off      []int64
	Dst, Cnt []uint32
}

func snapshot(g *graph.CSR, counts []uint32) frozenArrays {
	return frozenArrays{slices.Clone(g.Off), slices.Clone(g.Dst), slices.Clone(counts)}
}
