package graph

import (
	"strings"
	"testing"
)

// TestBuildSemantics pins the canonical duplicate-edge / self-loop
// semantics: ReadEdgeList returns the raw input, and both build paths
// (FromEdges and FromEdgesParallel) produce the identical canonical CSR —
// self-loops dropped, duplicates in either orientation merged — so dirty
// input can never inflate degrees or corrupt counts.
func TestBuildSemantics(t *testing.T) {
	cases := []struct {
		name     string
		input    string
		rawEdges int // edges ReadEdgeList must return verbatim
		wantDeg  map[VertexID]int64
		wantM    int64 // directed edge count of the canonical CSR
	}{
		{
			name:     "clean",
			input:    "0 1\n1 2\n",
			rawEdges: 2,
			wantDeg:  map[VertexID]int64{0: 1, 1: 2, 2: 1},
			wantM:    4,
		},
		{
			name:     "duplicate lines",
			input:    "0 1\n0 1\n0 1\n1 2\n",
			rawEdges: 4,
			wantDeg:  map[VertexID]int64{0: 1, 1: 2, 2: 1},
			wantM:    4,
		},
		{
			name:     "reversed duplicates",
			input:    "0 1\n1 0\n2 1\n1 2\n",
			rawEdges: 4,
			wantDeg:  map[VertexID]int64{0: 1, 1: 2, 2: 1},
			wantM:    4,
		},
		{
			name:     "self loops",
			input:    "0 0\n0 1\n1 1\n1 2\n2 2\n",
			rawEdges: 5,
			wantDeg:  map[VertexID]int64{0: 1, 1: 2, 2: 1},
			wantM:    4,
		},
		{
			name:     "everything dirty at once",
			input:    "# comment\n0 1\n1 0\n0 1\n2 2\n1 2\n2 1\n1 1\n",
			rawEdges: 7,
			wantDeg:  map[VertexID]int64{0: 1, 1: 2, 2: 1},
			wantM:    4,
		},
		{
			name:     "only self loops",
			input:    "0 0\n1 1\n2 2\n",
			rawEdges: 3,
			wantDeg:  map[VertexID]int64{0: 0, 1: 0, 2: 0},
			wantM:    0,
		},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			n, edges, err := ReadEdgeList(strings.NewReader(tc.input))
			if err != nil {
				t.Fatal(err)
			}
			if len(edges) != tc.rawEdges {
				t.Errorf("ReadEdgeList returned %d edges, want the raw %d", len(edges), tc.rawEdges)
			}

			seq, err := FromEdges(n, edges)
			if err != nil {
				t.Fatal(err)
			}
			par, err := FromEdgesParallel(n, edges, 4, nil)
			if err != nil {
				t.Fatal(err)
			}
			for gi, g := range []*CSR{seq, par} {
				label := [...]string{"FromEdges", "FromEdgesParallel"}[gi]
				if err := g.Validate(); err != nil {
					t.Fatalf("%s produced invalid CSR: %v", label, err)
				}
				if g.NumEdges() != tc.wantM {
					t.Errorf("%s: |E| = %d, want %d", label, g.NumEdges(), tc.wantM)
				}
				for u, want := range tc.wantDeg {
					if got := g.Degree(u); got != want {
						t.Errorf("%s: degree(%d) = %d, want %d", label, u, got, want)
					}
				}
			}
			// The two build paths must agree bit for bit.
			if len(seq.Off) != len(par.Off) || len(seq.Dst) != len(par.Dst) {
				t.Fatalf("build paths disagree on shape: seq |V|+1=%d |E|=%d, par |V|+1=%d |E|=%d",
					len(seq.Off), len(seq.Dst), len(par.Off), len(par.Dst))
			}
			for i := range seq.Off {
				if seq.Off[i] != par.Off[i] {
					t.Fatalf("Off diverges at %d: %d != %d", i, seq.Off[i], par.Off[i])
				}
			}
			for i := range seq.Dst {
				if seq.Dst[i] != par.Dst[i] {
					t.Fatalf("Dst diverges at %d: %d != %d", i, seq.Dst[i], par.Dst[i])
				}
			}
		})
	}
}
