package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"gstored"
	"gstored/internal/engine"
	"gstored/internal/remote"
	"gstored/internal/server"
	"gstored/internal/workload"
)

// rpc-mixed: a writable, cache-less server over a database whose 12
// sites live on two loopback RPC workers, driven by two closed-loop
// clients mixing complex reads with insert/delete batches.
const (
	rpcUniversities = 8
	rpcClients      = 2
	rpcBatch        = 16
	// rpcWriteEvery makes one operation in ten a write.
	rpcWriteEvery = 10
	// rpcMainShare is the share of the run given to the main phase; the
	// capacity phase fills the rest.
	rpcMainShare = 0.7
	// Tail percentiles at the run length of 40 s keep about 20 samples
	// beyond them: ~1500 reads, ~750 per class, ~300 updates.
	rpcReadTailP   = 0.98
	rpcClassTailP  = 0.97
	rpcUpdateTailP = 0.93
	// rpcLimitMs is the latency limit on the read tail.
	rpcLimitMs = 500
	// rpcSliceOps is each client's fixed work in one slice of the
	// capacity phase, about a second and a half in all; at least
	// rpcCapacitySlices slices run.
	rpcSliceOps       = 40
	rpcCapacitySlices = 5
	// rpcTraceLoad caps the load of a traced run: the replays after it
	// take about twice as long as the load, and a run must end within
	// three minutes.
	rpcTraceLoad = 30 * time.Second
)

// rpcEnv is one rpc-mixed deployment: workers, database and server.
type rpcEnv struct {
	ds      *workload.Dataset
	db      *gstored.DB
	http    *httpEnv
	workers []*remote.Worker
	wg      sync.WaitGroup
}

func openRPC() (*rpcEnv, error) {
	e := &rpcEnv{ds: lubm(rpcUniversities)}
	addrs, ws, err := startWorkers(2, &e.wg)
	e.workers = ws
	if err != nil {
		e.close()
		return nil, err
	}
	if e.db, err = gstored.Open(e.ds.Graph, gstored.Config{Workers: addrs}); err != nil {
		e.close()
		return nil, err
	}
	if e.http, err = startHTTP(e.db, server.Config{Writable: true, CacheEntries: -1}, rpcClients); err != nil {
		e.close()
		return nil, err
	}
	return e, nil
}

func (e *rpcEnv) close() {
	if e.http != nil {
		e.http.close()
	}
	if e.db != nil {
		_ = e.db.Close() // teardown; the workers stop next
	}
	stopWorkers(e.workers, &e.wg)
}

// rpcReads are the read templates: LQ1 and LQ7 as in Table I, LQ3 and
// LQ6 over every university.
type rpcReads struct {
	lq1, lq7 op
}

// pick returns the read for turn n: the templates take turns, so every
// stretch of reads has the same mix, and the seed picks the
// universities. Clients start on different turns.
func (rr rpcReads) pick(n int, rng *rand.Rand) op {
	switch n % 4 {
	case 0:
		return rr.lq1
	case 1:
		return rr.lq7
	case 2:
		return lq3(rng.Intn(rpcUniversities))
	default:
		return lq6(rng.Intn(rpcUniversities), rpcUniversities)
	}
}

func (rr rpcReads) all() []op {
	out := []op{rr.lq1, rr.lq7}
	for u := 0; u < rpcUniversities; u++ {
		out = append(out, lq3(u), lq6(u, rpcUniversities))
	}
	return out
}

func rpcMixed(r *runner) error {
	ctx := context.Background()
	var env *rpcEnv
	setup, err := medianSeconds(setupRepeats(r), func() error {
		if env != nil {
			env.close()
		}
		var err error
		env, err = openRPC()
		return err
	})
	if err != nil {
		return err
	}
	defer env.close()
	r.set("setup_s", setup)

	var reads rpcReads
	if reads.lq1, err = benchOp(env.ds, "LQ1"); err != nil {
		return err
	}
	if reads.lq7, err = benchOp(env.ds, "LQ7"); err != nil {
		return err
	}
	or, err := newOracle(env.ds.Graph)
	if err != nil {
		return err
	}
	for _, o := range reads.all() {
		if _, err := or.answer(o.text); err != nil {
			return err
		}
	}
	or.release()
	r.logf("LUBM %d universities: %d triples on 12 sites over 2 RPC workers; closed loop, %d clients; 1 op in %d writes %d triples; limit p99 <= %d ms",
		rpcUniversities, len(env.ds.Graph.Triples), rpcClients, rpcWriteEvery, rpcBatch, rpcLimitMs)

	c := &rpcClient{r: r, env: env, or: or, reads: reads}
	if r.traced {
		return rpcTraced(ctx, r, c)
	}

	peak := startHeapPeak()
	before, err := env.http.scrape(ctx)
	if err != nil {
		return err
	}
	var lat recorder
	mainDur := time.Duration(float64(r.dur) * rpcMainShare)
	start := time.Now()
	ops := c.run(ctx, rpcClients, 0, start.Add(mainDur), &lat, nil, nil, nil, 0)
	elapsed := time.Since(start)
	after, err := env.http.scrape(ctx)
	if err != nil {
		return err
	}
	// Every slice replays the same operations, so slices differ only in
	// how fast the machine ran them.
	var capLat recorder
	capacity := quantile(sliceRates(rpcCapacitySlices, start.Add(r.dur), func() int {
		return c.run(ctx, rpcClients, rpcSliceOps, time.Time{}, &capLat, nil, nil, nil, 100)
	}), 0.5)
	r.set("mem_peak_mb", peak.end())

	s := lat.samples()
	rd := values(s, selective, unselective)
	upd := values(s, update)
	// Medians are geometric means of each template's median: a pooled
	// median would fall in the gap between two templates of very
	// different cost. Tails are pooled, with enough samples beyond them.
	selP50, _, _ := classLatency(s, selective, rpcClassTailP)
	unP50, _, _ := classLatency(s, unselective, rpcClassTailP)
	readP50, _, _ := classLatency(s, "", rpcReadTailP)
	r.set("selective_p50_ms", selP50)
	r.set("selective_tail_ms", quantile(values(s, selective), rpcClassTailP))
	r.set("unselective_p50_ms", unP50)
	r.set("unselective_tail_ms", quantile(values(s, unselective), rpcClassTailP))
	r.set("read_p50_ms", readP50)
	r.set("read_tail_ms", quantile(rd, rpcReadTailP))
	r.set("update_p50_ms", quantile(upd, 0.5))
	r.set("update_tail_ms", quantile(upd, rpcUpdateTailP))
	r.set("ops_per_s", float64(ops)/elapsed.Seconds())
	r.set("max_ops_per_s", capacity)
	r.set("ship_kb_per_query", shipKBPerQuery(before, after))
	r.logf("samples: %d reads (min %d per template), %d updates; capacity read p%.0f %.1f ms",
		len(rd), min(minCount(s, selective), minCount(s, unselective)), len(upd), rpcReadTailP*100,
		quantile(values(capLat.samples(), selective, unselective), rpcReadTailP))
	return nil
}

// rpcClient runs the rpc-mixed operation stream.
type rpcClient struct {
	r     *runner
	env   *rpcEnv
	or    *oracle
	reads rpcReads
}

// run drives n closed-loop clients until deadline, or for count
// operations each when count > 0, and returns the operations completed.
// Client i draws from random stream base+i and writes on its own
// predicate. With a tracer, every request gets a client span and reads
// are collected for replay; gaps, when non-nil, receives the generator's
// own time between one operation's end and the next one's start.
func (c *rpcClient) run(ctx context.Context, n, count int, deadline time.Time, lat, gaps *recorder, t *tracer, hops *httpOps, base int64) int {
	var wg sync.WaitGroup
	var mu sync.Mutex
	done := 0
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(client int) {
			defer wg.Done()
			rng := newRand(c.r.seed, base+10+int64(client))
			k, reads := 0, 0
			var prevEnd time.Time
			for j := 0; ; j++ {
				now := time.Now()
				if (count > 0 && j >= count) || (count == 0 && !now.Before(deadline)) {
					break
				}
				if gaps != nil && !prevEnd.IsZero() {
					gaps.add("gap", "", now.Sub(prevEnd))
				}
				var ok bool
				if j%rpcWriteEvery == rpcWriteEvery-1 {
					ok = c.write(ctx, client, rng, lat, t)
				} else {
					ok = c.read(ctx, c.reads.pick(client+reads, rng), lat, t, hops)
					reads++
				}
				if ok {
					k++
				}
				prevEnd = time.Now()
			}
			mu.Lock()
			done += k
			mu.Unlock()
		}(i)
	}
	wg.Wait()
	return done
}

func (c *rpcClient) read(ctx context.Context, o op, lat *recorder, t *tracer, hops *httpOps) bool {
	c.r.attempted.Add(1)
	start := time.Now()
	body, cache, err := c.env.http.query(ctx, o.text)
	end := time.Now()
	if err != nil {
		c.r.failOp(o.name, err)
		return false
	}
	if !bytes.Equal(body, c.or.want[o.text].json) {
		c.r.wrongOp(o.name)
		return false
	}
	lat.add(o.name, o.class, end.Sub(start))
	if t != nil {
		id := t.newID()
		t.put(id, "request", 0, id, start, end, false)
		hops.add(httpOp{req: id, text: o.text, rt: end.Sub(start), cache: cache})
	}
	return true
}

// write inserts a batch, reads it back, deletes it and reads again.
func (c *rpcClient) write(ctx context.Context, client int, rng *rand.Rand, lat *recorder, t *tracer) bool {
	b := newWriteBatch(rng, client, rpcBatch, rpcUniversities)
	for _, verb := range []string{"INSERT", "DELETE"} {
		c.r.attempted.Add(1)
		start := time.Now()
		err := c.env.http.update(ctx, b.text(verb))
		end := time.Now()
		if err != nil {
			c.r.failOp(verb, err)
			return false
		}
		lat.add(verb, update, end.Sub(start))
		if t != nil {
			id := t.newID()
			t.put(id, "update", 0, id, start, end, false)
		}
		want := b.pairs()
		if verb == "DELETE" {
			want = map[string]bool{}
		}
		c.r.attempted.Add(1)
		body, _, err := c.env.http.query(ctx, b.readback())
		if err != nil {
			c.r.failOp("readback", err)
			return false
		}
		got, err := readbackPairs(body)
		if err != nil || !samePairs(got, want) {
			c.r.wrongOp(fmt.Sprintf("readback after %s on %s", verb, b.pred))
			return false
		}
	}
	return true
}

func rpcTraced(ctx context.Context, r *runner, c *rpcClient) error {
	env := c.env
	if err := r.setupLayers([]*gstored.Graph{env.ds.Graph}); err != nil {
		return err
	}
	t := newTracer()
	// Phase A, untraced: the reference for the tracing overhead and the
	// generator's own time between operations.
	var plain, gaps recorder
	load := min(r.dur, rpcTraceLoad)
	aDur := load / 3
	c.run(ctx, rpcClients, 0, time.Now().Add(aDur), &plain, &gaps, nil, nil, 0)

	before, err := env.http.scrape(ctx)
	if err != nil {
		return err
	}
	var traced recorder
	var hops httpOps
	mark := markRuntime()
	ops := c.run(ctx, rpcClients, 0, time.Now().Add(load-aDur), &traced, nil, t, &hops, 50)
	r.setRuntime(mark, ops)
	after, err := env.http.scrape(ctx)
	if err != nil {
		return err
	}

	probe, err := newProbeSites(ctx, env.db.Distributed())
	if err != nil {
		return err
	}
	defer probe.close()
	et := &engineTracer{probe: probe, remote: true, cfg: engine.Config{Mode: engine.Full}}
	recs, err := replayHTTP(ctx, t, et, env.db, c.or, hops.list())
	if err != nil {
		return err
	}
	var texts []string
	for _, o := range c.reads.all() {
		texts = append(texts, o.text)
	}
	counts, err := et.countPass(ctx, env.db, texts)
	if err != nil {
		return err
	}
	r.setEngineLayers(recs, counts)
	r.setServerLayers(recs, before, after)
	if err := r.modeAblation(ctx, []ablationOp{{env.db, c.reads.lq1}, {env.db, c.reads.lq7}}); err != nil {
		return err
	}
	_, upd := r.updateProbe(ctx, env.db, newRand(r.seed, 9), rpcUniversities, updatePairs/3, rpcBatch)
	r.setUpdateLayers(upd)

	r.set("loadgen.late_tail_ms", quantile(values(gaps.samples(), ""), 0.99))
	r.set("loadgen.backlog_peak", 0)
	r.set("trace.overhead_pct", overheadPct(plain.samples(), traced.samples()))
	return r.finishTrace(t)
}
