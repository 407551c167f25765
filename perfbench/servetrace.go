package main

import (
	"context"
	"fmt"
	"net/http"
	"time"

	"cncount"
	"cncount/internal/dynamic"
	"cncount/internal/graph"
	"cncount/internal/wal"
)

// stageNames are the write path's stages in serve.Ingester.Apply's order.
var stageNames = [...]string{"dynamic.validate", "wal.append", "dynamic.apply_batch", "dynamic.to_csr", "serve.swap"}

// stagedApply runs one batch through the public stage functions in
// serve.Ingester.Apply's order, timing each from outside.
func stagedApply(sp *spans, rs *resident, name string, ops []dynamic.Op, threads int) ([len(stageNames)]time.Duration, dynamic.BatchResult, error) {
	var d [len(stageNames)]time.Duration
	var res dynamic.BatchResult
	op, root := sp.op(), sp.reserve()
	t := [len(stageNames) + 1]time.Time{time.Now()}
	if err := dynamic.ValidateOps(rs.dyn.NumVertices(), ops); err != nil {
		return d, res, err
	}
	t[1] = time.Now()
	wops := make([]wal.Op, len(ops))
	for i, o := range ops {
		wops[i] = wal.Op{Kind: wal.OpKind(o.Kind), U: o.U, V: o.V}
	}
	if _, err := rs.log.Append(wops); err != nil {
		return d, res, fmt.Errorf("wal append: %w", err)
	}
	t[2] = time.Now()
	res, err := rs.dyn.ApplyBatch(ops, threads)
	if err != nil {
		return d, res, fmt.Errorf("apply batch: %w", err)
	}
	t[3] = time.Now()
	csr, _, err := rs.dyn.ToCSR()
	if err != nil {
		return d, res, fmt.Errorf("to csr: %w", err)
	}
	t[4] = time.Now()
	rs.srv.SwapGraph(csr, name)
	t[5] = time.Now()
	for i, s := range stageNames {
		d[i] = t[i+1].Sub(t[i])
		sp.add(op, root, s, t[i], t[i+1])
	}
	sp.addID(root, op, 0, "ingest.batch", t[0], t[len(stageNames)])
	return d, res, nil
}

// serveLayers fills the serving phase's per-layer metrics: the read path
// from the traced quarter of the window's reads and the handler times, the
// write path by replaying the window's batches twice on fresh residents,
// once stage by stage and once through serve.Ingester.Apply, interleaved,
// so the stage sum can be checked against the whole apply. It returns the
// traced reads' mean latency over the untraced reads', minus 1.
func serveLayers(c config, r *run, w serveWorkload, n int, edges []graph.Edge, threads int, win window, ht *handlerTimes, info serviceInfo) (float64, error) {
	var transport, tracedLat, plainLat []float64
	var handler, hitMs, missMs [numReadKinds][]float64
	var lookups, hits [numReadKinds]float64
	var rejected float64
	for i, rd := range win.reads {
		if rd.status == http.StatusTooManyRequests {
			rejected++
		}
		if win.readErrs[i] != nil {
			continue
		}
		k := rd.kind
		lookups[k]++
		if rd.hit {
			hits[k]++
		}
		lat := float64(rd.latMs)
		op, traced := win.tracedOps[i]
		if !traced {
			plainLat = append(plainLat, lat)
			continue
		}
		tracedLat = append(tracedLat, lat)
		hd, ok := ht.get(op)
		if !ok {
			continue
		}
		transport = append(transport, lat-ms(hd))
		handler[k] = append(handler[k], ms(hd))
		if rd.hit {
			hitMs[k] = append(hitMs[k], ms(hd))
		} else {
			missMs[k] = append(missMs[k], ms(hd))
		}
	}
	r.set("http.transport_ms.p50", "ms", quantile(transport, 0.5))
	for k, name := range readNames {
		r.set("serve.handler_ms.p50."+name, "ms", quantile(handler[k], 0.5))
		r.set("serve.handler_ms.p99."+name, "ms", quantile(handler[k], 0.99))
		r.set("serve.cache.lookups."+name, "count", lookups[k])
		// An endpoint with no traced hit (or miss, or no read at all)
		// reports 0 for those rows.
		var ratio float64
		if lookups[k] > 0 {
			ratio = hits[k] / lookups[k]
		}
		r.set("serve.cache.hit_ratio."+name, "ratio", ratio)
		r.set("serve.hit_ms.p50."+name, "ms", quantile(hitMs[k], 0.5))
		r.set("serve.miss_ms.p50."+name, "ms", quantile(missMs[k], 0.5))
	}
	r.set("serve.rejected", "count", rejected)
	var overhead float64
	if len(tracedLat) > 0 && len(plainLat) > 0 {
		overhead = sum(tracedLat)/float64(len(tracedLat))/(sum(plainLat)/float64(len(plainLat))) - 1
	}

	var lag []float64
	var sent [][]dynamic.Op
	for _, b := range win.batches {
		lag = append(lag, ms(b.lag))
		if b.err == nil {
			sent = append(sent, b.ops)
		}
	}
	r.set("gen.write_lag_p99_ms", "ms", quantile(lag, 0.99))
	if len(sent) == 0 {
		r.op(failf("no update batch was accepted"))
		return overhead, nil
	}

	staged, applied, err := replayResidents(c, w.profile, n, edges, threads)
	if err != nil {
		return overhead, err
	}
	defer staged.close()
	defer applied.close()
	bytes0 := staged.log.Stats().Bytes
	var stages [len(stageNames)][]float64
	var stageSum, apply, repaired []float64
	sp := ht.sp
	for i, ops := range sent {
		runStaged := func() {
			d, res, err := stagedApply(sp, staged, w.profile, ops, threads)
			r.op(err)
			var total time.Duration
			for s := range d {
				stages[s] = append(stages[s], ms(d[s]))
				total += d[s]
			}
			stageSum = append(stageSum, ms(total))
			repaired = append(repaired, float64(res.Repaired))
		}
		runApply := func() {
			t0 := time.Now()
			_, err := applied.in.Apply(context.Background(), ops)
			t1 := time.Now()
			sp.add(sp.op(), 0, "serve.ingester.apply", t0, t1)
			r.op(err)
			apply = append(apply, ms(t1.Sub(t0)))
		}
		if i%2 == 0 {
			runStaged()
			runApply()
		} else {
			runApply()
			runStaged()
		}
	}
	if got, want := staged.dyn.Triangles(), applied.in.Info().Triangles; got != want || got != info.Ingest.Triangles {
		r.op(failf("after replay: staged %d, applied %d, served %d triangles", got, want, info.Ingest.Triangles))
	} else {
		r.op(nil)
	}

	for s, name := range stageNames {
		r.set(name+"_ms", "ms", quantile(stages[s], 0.5))
	}
	r.set("dynamic.repaired_per_batch", "count", median(repaired))
	r.set("wal.bytes_per_batch", "bytes", float64(staged.log.Stats().Bytes-bytes0)/float64(len(sent)))
	coverage := median(stageSum) / median(apply)
	r.set("trace.stage_coverage", "ratio", coverage)
	if coverage < 0.8 || coverage > 1.25 {
		fmt.Fprintf(c.log, "perfbench: WARNING: the timed write stages sum to %.2f× serve.Ingester.Apply; the stage list no longer matches the write path\n", coverage)
	}
	return overhead, nil
}

// replayResidents builds two fresh residents on the base edge list: one
// driven stage by stage, one through its Ingester.
func replayResidents(c config, name string, n int, edges []graph.Edge, threads int) (*resident, *resident, error) {
	var rs [2]*resident
	for i := range rs {
		g, err := cncount.NewGraphParallel(n, edges, threads)
		if err == nil {
			rs[i], err = newResident(c, name, g, threads)
		}
		if err != nil {
			if i == 1 {
				rs[0].close()
			}
			return nil, nil, err
		}
	}
	return rs[0], rs[1], nil
}
