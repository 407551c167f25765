package graph

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestFromEdgesParallelMatchesSequential(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(80)
		edges := randomEdges(rng, n, rng.Intn(500))
		want, err := FromEdges(n, edges)
		if err != nil {
			return false
		}
		for _, workers := range []int{1, 4} {
			got, err := FromEdgesParallel(n, edges, workers, nil)
			if err != nil {
				return false
			}
			if !reflect.DeepEqual(got.Off, want.Off) || !reflect.DeepEqual(got.Dst, want.Dst) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestFromEdgesParallelValidation(t *testing.T) {
	if _, err := FromEdgesParallel(-1, nil, 2, nil); err == nil {
		t.Error("negative vertex count accepted")
	}
	if _, err := FromEdgesParallel(2, []Edge{{0, 5}}, 2, nil); err == nil {
		t.Error("out-of-range edge accepted")
	}
	g, err := FromEdgesParallel(3, nil, 2, nil)
	if err != nil {
		t.Fatalf("empty edge list: %v", err)
	}
	if g.NumEdges() != 0 || g.NumVertices() != 3 {
		t.Error("empty build wrong shape")
	}
}

func TestFromEdgesParallelSelfLoopsAndDuplicates(t *testing.T) {
	edges := []Edge{{0, 1}, {1, 0}, {0, 1}, {2, 2}, {1, 2}, {1, 2}}
	g, err := FromEdgesParallel(3, edges, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 4 {
		t.Errorf("NumEdges = %d, want 4", g.NumEdges())
	}
}
