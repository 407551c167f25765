package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"cncount"
	"cncount/internal/dynamic"
	"cncount/internal/graph"
	"cncount/internal/metrics"
	"cncount/internal/obs"
	"cncount/internal/serve"
	"cncount/internal/wal"
)

// serveWorkload is a resident service on one generated profile, taking a
// closed-loop read stream and an open-loop stream of update batches at the
// same time.
type serveWorkload struct {
	profile string
	scale   float64
}

// The serving phase's traffic, the same on every profile.
const (
	// batchOps is the size of every update batch: half inserts of fresh
	// edges, half deletes of the previous batch's inserts.
	batchOps = 64
	// period is the writer's fixed interval between batch due times: about
	// 2.5× a batch's cost, so no backlog grows, and 100 batches in a 20 s
	// phase, so update_p90_ms has ten samples above it.
	period = 200 * time.Millisecond
	// edgeKeys, pairKeys and topkKeys size the read key pools. Together
	// they exceed the server's 4096-entry result cache, so the Zipf-skewed
	// stream mixes hits and misses. The split is an assumption, not a
	// measurement of real traffic.
	edgeKeys, pairKeys, topkKeys = 12288, 2048, 2048
	// zipfS is the read keys' Zipf exponent: 0.99, the zipfian constant of
	// YCSB (Cooper et al., SoCC 2010), a benchmark convention for skewed
	// key-value reads.
	zipfS = 0.99
)

// Read endpoints, in the order the per-endpoint metrics name them.
const (
	readEdge = iota
	readPair
	readTopK
	numReadKinds
)

var readNames = [numReadKinds]string{"edge", "pair", "topk"}

// topK is the k every topk read asks for.
const topK = 10

// maxSamples is how many read bodies a window keeps for verification, a
// seeded uniform sample (reservoir) so the benchmark's own memory does not
// grow with throughput. tracedEvery is the mean spacing of the reads the
// traced run times on both sides of the handler (a window holds ~10⁵
// reads; a quarter keeps the span file near 5 MB).
const (
	maxSamples  = 4096
	tracedEvery = 4
)

// resident is the service's state below HTTP: the served graph, the
// maintained dynamic graph, and the WAL-backed ingestion layer.
type resident struct {
	srv *serve.Server
	dyn *dynamic.Graph
	in  *serve.Ingester
	log *wal.Log
	dir string
}

// newResident builds the service around g the way the daemon does: an
// initial count seeds the dynamic graph, the WAL opens with a per-batch
// fsync, and the ingestion layer goes live behind /v1/update.
func newResident(c config, name string, g *cncount.Graph, threads int) (*resident, error) {
	res, err := cncount.Count(g, cncount.Options{Threads: threads})
	if err != nil {
		return nil, fmt.Errorf("initial count: %w", err)
	}
	dyn, err := dynamic.FromCSR(g, res.Counts)
	if err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(c.dir, "wal-")
	if err != nil {
		return nil, err
	}
	log, err := wal.Open(dir, wal.Options{Sync: wal.SyncBatch})
	if err != nil {
		os.RemoveAll(dir)
		return nil, fmt.Errorf("opening the WAL: %w", err)
	}
	srv := serve.New(g, name, serve.Options{
		CountThreads: threads,
		Metrics:      metrics.New(),
		Requests:     obs.NewRequestMetrics(),
	})
	in := serve.NewIngester(srv, dyn, 1, serve.IngestOptions{WAL: log, Workers: threads, Name: name})
	srv.EnableUpdates(in)
	return &resident{srv: srv, dyn: dyn, in: in, log: log, dir: dir}, nil
}

func (rs *resident) close() error {
	err := rs.log.Close()
	if rerr := os.RemoveAll(rs.dir); err == nil {
		err = rerr
	}
	return err
}

// system is a resident service listening on a loopback port.
type system struct {
	*resident
	hs     *http.Server
	served chan error
	base   string
}

// startSystem goes from the edge list to a listening service and returns
// how long that took.
func startSystem(c config, sp *spans, w serveWorkload, n int, edges []graph.Edge, threads int, wrap func(http.Handler) http.Handler) (*system, time.Duration, error) {
	t0 := time.Now()
	g, _, err := buildGraph(sp, n, edges, threads)
	if err != nil {
		return nil, 0, err
	}
	rs, err := newResident(c, w.profile, g, threads)
	if err != nil {
		return nil, 0, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		rs.close()
		return nil, 0, err
	}
	h := rs.srv.Handler()
	if wrap != nil {
		h = wrap(h)
	}
	s := &system{resident: rs, hs: &http.Server{Handler: h}, served: make(chan error, 1), base: "http://" + ln.Addr().String()}
	go func() { s.served <- s.hs.Serve(ln) }()
	return s, time.Since(t0), nil
}

// close stops the listener, waits for the serve loop to return, and
// removes the WAL.
func (s *system) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := s.hs.Shutdown(ctx)
	if serr := <-s.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	if cerr := s.resident.close(); err == nil {
		err = cerr
	}
	return err
}

// newClient returns a client holding at most one loopback connection.
func newClient() *http.Client {
	return &http.Client{
		Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true},
		Timeout:   30 * time.Second,
	}
}

// readReq is one read: an edge or pair (u < v), or a topk of u.
type readReq struct {
	kind int
	u, v uint32
}

func (q readReq) path() string {
	if q.kind == readTopK {
		return fmt.Sprintf("/v1/topk?u=%d&k=%d", q.u, topK)
	}
	return fmt.Sprintf("/v1/%s?u=%d&v=%d", readNames[q.kind], q.u, q.v)
}

// readStream draws reads ≈ 8:1:1 edge:pair:topk, each from its own key
// pool with Zipf-skewed popularity.
type readStream struct {
	rng   *rand.Rand
	pools [numReadKinds][]readReq
	zipf  [numReadKinds]*zipf
}

func (s *readStream) next() readReq {
	kind := readEdge
	switch s.rng.Intn(10) {
	case 8:
		kind = readPair
	case 9:
		kind = readTopK
	}
	if len(s.pools[kind]) == 0 {
		kind = readEdge
	}
	return s.pools[kind][s.zipf[kind].next()]
}

// zipf draws ranks 0..n-1 with P(k) ∝ 1/(k+1)^s. Unlike math/rand.Zipf it
// takes s ≤ 1.
type zipf struct {
	rng *rand.Rand
	cdf []float64
}

func newZipf(rng *rand.Rand, s float64, n int) *zipf {
	cdf := make([]float64, n)
	var total float64
	for k := range cdf {
		total += math.Pow(float64(k+1), -s)
		cdf[k] = total
	}
	return &zipf{rng: rng, cdf: cdf}
}

func (z *zipf) next() int {
	return sort.SearchFloat64s(z.cdf, z.rng.Float64()*z.cdf[len(z.cdf)-1])
}

// batchGen produces the writer's batches: each inserts batchOps/2 fresh
// edges and deletes the previous batch's inserts (the first deletes a
// reserved set of base edges), so no op is a no-op, and base edges
// outside the reserved set, which the edge reads use, are never deleted.
type batchGen struct {
	rng  *rand.Rand
	base *cncount.Graph
	half int
	prev [][2]uint32
}

func (b *batchGen) next() []dynamic.Op {
	ops := make([]dynamic.Op, 0, 2*b.half)
	taken := make(map[[2]uint32]bool, 2*b.half)
	for _, e := range b.prev {
		ops = append(ops, dynamic.Op{Kind: dynamic.OpDelete, U: e[0], V: e[1]})
		taken[e] = true
	}
	n := b.base.NumVertices()
	ins := make([][2]uint32, 0, b.half)
	for len(ins) < b.half {
		u, v := uint32(b.rng.Intn(n)), uint32(b.rng.Intn(n))
		if u == v {
			continue
		}
		if u > v {
			u, v = v, u
		}
		e := [2]uint32{u, v}
		if taken[e] || b.base.HasEdge(u, v) {
			continue
		}
		taken[e] = true
		ins = append(ins, e)
		ops = append(ops, dynamic.Op{Kind: dynamic.OpInsert, U: u, V: v})
	}
	b.prev = ins
	return ops
}

// newStreams derives the read stream and the batch generator from the
// seed and the base graph.
func newStreams(seed int64, g *cncount.Graph, edges []graph.Edge) (*readStream, *batchGen) {
	rng := rand.New(rand.NewSource(seed))
	perm := rng.Perm(len(edges))
	half := batchOps / 2
	if half > len(perm)/2 {
		half = len(perm) / 2
	}
	bg := &batchGen{rng: rand.New(rand.NewSource(seed + 1)), base: g, half: half}
	for _, i := range perm[:half] {
		bg.prev = append(bg.prev, [2]uint32{edges[i].U, edges[i].V})
	}
	rs := &readStream{rng: rand.New(rand.NewSource(seed + 2))}
	for _, i := range perm[half:min(len(perm), half+edgeKeys)] {
		rs.pools[readEdge] = append(rs.pools[readEdge], readReq{kind: readEdge, u: edges[i].U, v: edges[i].V})
	}
	n := g.NumVertices()
	for len(rs.pools[readPair]) < pairKeys {
		u, v := uint32(rng.Intn(n)), uint32(rng.Intn(n))
		if u != v {
			rs.pools[readPair] = append(rs.pools[readPair], readReq{kind: readPair, u: min(u, v), v: max(u, v)})
		}
	}
	for _, u := range rng.Perm(n)[:min(n, topkKeys)] {
		rs.pools[readTopK] = append(rs.pools[readTopK], readReq{kind: readTopK, u: uint32(u)})
	}
	for k := range rs.pools {
		if len(rs.pools[k]) > 0 {
			rs.zipf[k] = newZipf(rs.rng, zipfS, len(rs.pools[k]))
		}
	}
	return rs, bg
}

// readRec is one read as the client saw it; a window holds ~10⁵ of them.
type readRec struct {
	latMs  float32
	status uint16 // 0 when the request failed before a response
	kind   uint8
	hit    bool
}

// readSample is a read body kept for verification after the window.
type readSample struct {
	read  int // index into window.reads
	req   readReq
	body  []byte
	epoch uint64 // the body's epoch, filled in by checkWindow
}

// batchRec is one posted update batch.
type batchRec struct {
	ops   []dynamic.Op
	epoch uint64
	lat   time.Duration // from the due time to the 202
	lag   time.Duration // how late the writer sent it
	err   error
}

// handlerTimes records, per traced operation, how long the wrapped
// service handler ran.
type handlerTimes struct {
	sp *spans
	mu sync.Mutex
	d  map[uint64]time.Duration
}

// traceHeader carries "<op>:<parent span>" from client to handler.
const traceHeader = "X-Perfbench-Op"

func (h *handlerTimes) wrap(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		tag := r.Header.Get(traceHeader)
		if tag == "" {
			next.ServeHTTP(w, r)
			return
		}
		t0 := time.Now()
		next.ServeHTTP(w, r)
		t1 := time.Now()
		opStr, parentStr, _ := strings.Cut(tag, ":")
		op, _ := strconv.ParseUint(opStr, 10, 64)
		parent, _ := strconv.ParseUint(parentStr, 10, 64)
		h.sp.add(op, parent, "serve.handler"+r.URL.Path, t0, t1)
		h.mu.Lock()
		h.d[op] = t1.Sub(t0)
		h.mu.Unlock()
	})
}

func (h *handlerTimes) get(op uint64) (time.Duration, bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	d, ok := h.d[op]
	return d, ok
}

// window is what one measured window produced.
type window struct {
	reads    []readRec
	readErrs map[int]error // by index into reads
	// tracedOps maps the index of each traced read to its operation ID.
	tracedOps map[int]uint64
	samples   []readSample
	batches   []batchRec
	elapsed   time.Duration
}

// do sends one request, returning status, body and the X-Cache verdict.
func do(cl *http.Client, req *http.Request) (int, []byte, bool, error) {
	resp, err := cl.Do(req)
	if err != nil {
		return 0, nil, false, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, body, resp.Header.Get("X-Cache") == "HIT", err
}

// drive runs the reader and the writer against s for the window. With a
// non-nil sp, one read in tracedEvery (seeded choice) and every batch are
// traced.
func drive(c config, s *system, rs *readStream, bg *batchGen, sp *spans) window {
	out := window{readErrs: make(map[int]error), tracedOps: make(map[int]uint64)}
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(c.window())
	wg.Add(2)
	go func() { // closed-loop reader
		defer wg.Done()
		cl := newClient()
		defer cl.CloseIdleConnections()
		pick := rand.New(rand.NewSource(c.seed + 3))
		for time.Now().Before(deadline) {
			q := rs.next()
			traced := sp != nil && pick.Intn(tracedEvery) == 0
			i := len(out.reads)
			rec := readRec{kind: uint8(q.kind)}
			req, err := http.NewRequest(http.MethodGet, s.base+q.path(), nil)
			if err != nil {
				out.reads, out.readErrs[i] = append(out.reads, rec), err
				continue
			}
			var op, cid uint64
			if traced {
				op, cid = sp.op(), sp.reserve()
				out.tracedOps[i] = op
				req.Header.Set(traceHeader, fmt.Sprintf("%d:%d", op, cid))
			}
			t0 := time.Now()
			status, body, hit, err := do(cl, req)
			t1 := time.Now()
			if traced {
				sp.addID(cid, op, 0, "client."+readNames[q.kind], t0, t1)
			}
			rec.latMs, rec.status, rec.hit = float32(ms(t1.Sub(t0))), uint16(status), hit
			switch {
			case err != nil:
				out.readErrs[i] = fmt.Errorf("GET %s: %w", q.path(), err)
			case status != http.StatusOK:
				out.readErrs[i] = fmt.Errorf("GET %s: status %d: %s", q.path(), status, bytes.TrimSpace(body))
			case len(out.samples) < maxSamples:
				out.samples = append(out.samples, readSample{read: i, req: q, body: body})
			default:
				if j := pick.Intn(i + 1); j < maxSamples {
					out.samples[j] = readSample{read: i, req: q, body: body}
				}
			}
			out.reads = append(out.reads, rec)
		}
	}()
	go func() { // open-loop writer
		defer wg.Done()
		cl := newClient()
		defer cl.CloseIdleConnections()
		for i := 0; ; i++ {
			due := start.Add(time.Duration(i) * period)
			if !due.Before(deadline) {
				return
			}
			time.Sleep(time.Until(due))
			ops := bg.next()
			rec := batchRec{ops: ops, lag: time.Since(due)}
			body := encodeBatch(ops)
			req, err := http.NewRequest(http.MethodPost, s.base+"/v1/update", bytes.NewReader(body))
			if err != nil {
				rec.err = err
				out.batches = append(out.batches, rec)
				continue
			}
			req.Header.Set("Content-Type", "application/json")
			var op, cid uint64
			if sp != nil {
				op, cid = sp.op(), sp.reserve()
				req.Header.Set(traceHeader, fmt.Sprintf("%d:%d", op, cid))
			}
			t0 := time.Now()
			status, resp, _, err := do(cl, req)
			t1 := time.Now()
			sp.addID(cid, op, 0, "client.update", t0, t1)
			rec.lat, rec.err = t1.Sub(due), err
			if err == nil {
				if status != http.StatusAccepted {
					rec.err = fmt.Errorf("POST /v1/update: status %d: %s", status, bytes.TrimSpace(resp))
				} else {
					var ack struct {
						Epoch uint64 `json:"epoch"`
					}
					if err := json.Unmarshal(resp, &ack); err != nil {
						rec.err = fmt.Errorf("decoding the update ack: %w", err)
					}
					rec.epoch = ack.Epoch
				}
			}
			out.batches = append(out.batches, rec)
		}
	}()
	wg.Wait()
	out.elapsed = time.Since(start)
	return out
}

func encodeBatch(ops []dynamic.Op) []byte {
	type wireOp struct {
		Op string `json:"op"`
		U  uint32 `json:"u"`
		V  uint32 `json:"v"`
	}
	wire := make([]wireOp, len(ops))
	for i, op := range ops {
		wire[i] = wireOp{Op: "insert", U: op.U, V: op.V}
		if op.Kind == dynamic.OpDelete {
			wire[i].Op = "delete"
		}
	}
	b, _ := json.Marshal(map[string]any{"ops": wire}) // plain structs always marshal
	return b
}

// runServe runs the serving phase. sp is nil unless the run is traced.
func runServe(c config, r *run, sp *spans, w serveWorkload) (phase, error) {
	threads := runtime.NumCPU()
	n, edges, err := genEdges(w.profile, w.scale*c.scale, c.seed)
	if err != nil {
		return phase{}, err
	}
	g0, err := cncount.NewGraph(n, edges)
	if err != nil {
		return phase{}, err
	}
	rs, bg := newStreams(c.seed, g0, edges)
	// Only the benchmark's own data is live here; the phase's heap is what
	// the service adds to it.
	base := liveHeap()
	var ht *handlerTimes
	var wrap func(http.Handler) http.Handler
	if sp != nil {
		ht = &handlerTimes{sp: sp, d: make(map[uint64]time.Duration)}
		wrap = ht.wrap
	}

	var s *system
	var setups []float64
	for len(setups) < setupRepeats || sum(setups) < setupShare*c.seconds {
		if s != nil {
			if err := s.close(); err != nil {
				return phase{}, err
			}
		}
		var d time.Duration
		if s, d, err = startSystem(c, sp, w, n, edges, threads, wrap); err != nil {
			return phase{}, err
		}
		setups = append(setups, d.Seconds())
	}
	var heap heapPeak
	heap.read()
	fmt.Fprintf(c.log, "perfbench: %s serving %s |V|=%d |E|=%d directed, %d threads, batch %d ops every %v\n",
		c.workload, w.profile, n, g0.NumEdges(), threads, batchOps, period)

	win := drive(c, s, rs, bg, sp)
	ref := newRefGraph(g0)
	checkWindow(r, ref, win)
	info, err := fetchInfo(s)
	if err == nil {
		err = checkTriangles(ref, info, threads)
	}
	r.op(err)

	if sp != nil {
		overhead, err := serveLayers(c, r, w, n, edges, threads, win, ht, info)
		if cerr := s.close(); err == nil {
			err = cerr
		}
		return phase{overhead: overhead}, err
	}

	var lat, upd []float64
	for i, rd := range win.reads {
		if win.readErrs[i] == nil {
			lat = append(lat, float64(rd.latMs))
		}
	}
	for _, b := range win.batches {
		if b.err == nil {
			upd = append(upd, ms(b.lat))
		}
	}
	r.set("reads_per_s", "req/s", float64(len(lat))/win.elapsed.Seconds())
	r.set("read_p50_ms", "ms", quantile(lat, 0.50))
	r.set("read_p99_ms", "ms", quantile(lat, 0.99))
	r.set("update_p50_ms", "ms", quantile(upd, 0.50))
	r.set("update_p90_ms", "ms", quantile(upd, 0.90))
	// The window's records and the reference grow with throughput; drop
	// them, so the reading below is the service after the window (its
	// final graph, filled cache and WAL) beside the benchmark's base data.
	win, ref = window{}, nil
	heap.read()
	// The base data must stay live through that reading.
	runtime.KeepAlive(edges)
	runtime.KeepAlive(g0)
	runtime.KeepAlive(rs)
	runtime.KeepAlive(bg)
	return phase{setup: median(setups), heapMiB: mibAbove(heap.peak, base)}, s.close()
}

// serviceInfo is the part of /v1/info the checks read.
type serviceInfo struct {
	Epoch  uint64 `json:"epoch"`
	Ingest struct {
		Triangles uint64 `json:"triangles"`
	} `json:"ingest"`
}

func fetchInfo(s *system) (serviceInfo, error) {
	var info serviceInfo
	cl := newClient()
	defer cl.CloseIdleConnections()
	req, err := http.NewRequest(http.MethodGet, s.base+"/v1/info", nil)
	if err != nil {
		return info, err
	}
	status, body, _, err := do(cl, req)
	if err != nil {
		return info, err
	}
	if status != http.StatusOK {
		return info, fmt.Errorf("GET /v1/info: status %d", status)
	}
	if err := json.Unmarshal(body, &info); err != nil {
		return info, fmt.Errorf("decoding /v1/info: %w", err)
	}
	return info, nil
}
