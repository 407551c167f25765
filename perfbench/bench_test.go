package main

import (
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"os"
	"runtime"
	"testing"

	"cncount"
)

// declared reads BENCHMARK.json from the checkout root.
type declared struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readDeclared(t *testing.T) declared {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var d declared
	if err := json.Unmarshal(b, &d); err != nil {
		t.Fatal(err)
	}
	return d
}

func tinyConfig(t *testing.T, workload string, trace bool) config {
	return config{workload: workload, seed: 7, seconds: 0.5, trace: trace, scale: 0.05, dir: t.TempDir(), log: io.Discard}
}

// TestEveryDeclaredMetricIsEmitted runs a tiny pass of every declared
// workload in both modes: each must emit exactly the metrics declared for
// that mode, each with its declared unit.
func TestEveryDeclaredMetricIsEmitted(t *testing.T) {
	d := readDeclared(t)
	for _, mode := range []struct {
		trace bool
		decl  []struct {
			Name string `json:"name"`
			Unit string `json:"unit"`
		}
	}{{false, d.EndToEnd}, {true, d.PerLayer}} {
		units := make(map[string]string)
		for _, m := range mode.decl {
			units[m.Name] = m.Unit
		}
		for _, w := range d.Workloads {
			res, err := execute(tinyConfig(t, w.Name, mode.trace))
			if err != nil {
				t.Fatalf("%s (trace %v): %v", w.Name, mode.trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s (trace %v): correct=%v attempted=%d failed=%d", w.Name, mode.trace, res.Correct, res.Attempted, res.Failed)
			}
			for name, m := range res.Metrics {
				unit, ok := units[name]
				switch {
				case !ok:
					t.Errorf("%s (trace %v) emits undeclared metric %s", w.Name, mode.trace, name)
				case unit != m.Unit:
					t.Errorf("%s: %s in %q, declared %q", w.Name, name, m.Unit, unit)
				}
			}
			for name := range units {
				if _, ok := res.Metrics[name]; !ok {
					t.Errorf("%s (trace %v) does not emit declared metric %s", w.Name, mode.trace, name)
				}
			}
		}
	}
}

// TestGateCatchesCorruptCounts corrupts one count array entry, and then the
// reference itself, and expects the count gate to fail both.
func TestGateCatchesCorruptCounts(t *testing.T) {
	n, edges, err := genEdges("WI", 0.02, 3)
	if err != nil {
		t.Fatal(err)
	}
	g, err := cncount.NewGraph(n, edges)
	if err != nil {
		t.Fatal(err)
	}
	res, err := cncount.Count(g, cncount.Options{Algorithm: cncount.AlgoM})
	if err != nil {
		t.Fatal(err)
	}
	ck := &countChecker{g: g}
	if err := ck.check("m", res.Counts, nil); err != nil {
		t.Fatal(err)
	}
	bad := append([]uint32(nil), res.Counts...)
	bad[len(bad)/2]++
	if err := ck.check("bmp", bad, nil); !errors.Is(err, errFailed) {
		t.Errorf("corrupted array passed the agreement check: %v", err)
	}

	r := newRun(io.Discard)
	for i := range bad {
		bad[i]++
	}
	(&countChecker{g: g, ref: bad, refAlgo: "m"}).finish(r, 3, runtime.NumCPU())
	if res := r.result(); res.Correct || res.Failed != 2 {
		t.Errorf("corrupted reference: correct=%v failed=%d, want both reference checks to fail", res.Correct, res.Failed)
	}
}

// TestGateCatchesCorruptBody reads real bodies from a tiny service, checks
// they pass, then corrupts one of each kind and expects the window gate
// to fail exactly those reads.
func TestGateCatchesCorruptBody(t *testing.T) {
	c := tinyConfig(t, "skew", false)
	n, edges, err := genEdges("WI", 0.01, 5)
	if err != nil {
		t.Fatal(err)
	}
	s, _, err := startSystem(c, nil, workloads["skew"].serve, n, edges, runtime.NumCPU(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer s.close()
	g, err := cncount.NewGraph(n, edges)
	if err != nil {
		t.Fatal(err)
	}
	rs, _ := newStreams(5, g, edges)
	cl := newClient()
	defer cl.CloseIdleConnections()

	win := window{readErrs: map[int]error{}}
	for kind := 0; kind < numReadKinds; kind++ {
		q := rs.pools[kind][0]
		req, err := http.NewRequest(http.MethodGet, s.base+q.path(), nil)
		if err != nil {
			t.Fatal(err)
		}
		status, body, _, err := do(cl, req)
		if err != nil || status != http.StatusOK {
			t.Fatalf("%s: status %d, %v", q.path(), status, err)
		}
		win.reads = append(win.reads, readRec{status: uint16(status), kind: uint8(kind)})
		win.samples = append(win.samples, readSample{read: kind, req: q, body: body})
	}
	r := newRun(io.Discard)
	checkWindow(r, newRefGraph(g), win)
	if res := r.result(); !res.Correct {
		t.Fatalf("genuine bodies failed the gate: %+v", res)
	}

	for i := range win.samples {
		var b map[string]any
		if err := json.Unmarshal(win.samples[i].body, &b); err != nil {
			t.Fatal(err)
		}
		if results, ok := b["results"].([]any); ok && len(results) > 0 {
			top := results[0].(map[string]any)
			top["count"] = top["count"].(float64) + 1
		} else if cnt, ok := b["count"].(float64); ok {
			b["count"] = cnt + 1
		} else {
			b["k"] = b["k"].(float64) + 1
		}
		if win.samples[i].body, err = json.Marshal(b); err != nil {
			t.Fatal(err)
		}
	}
	r = newRun(io.Discard)
	checkWindow(r, newRefGraph(g), win)
	if res := r.result(); res.Correct || res.Failed != numReadKinds {
		t.Errorf("corrupted bodies: correct=%v failed=%d, want %d failures", res.Correct, res.Failed, numReadKinds)
	}
}
