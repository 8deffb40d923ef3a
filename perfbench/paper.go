package main

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"gstored"
	"gstored/internal/engine"
	"gstored/internal/server"
	"gstored/internal/workload"
)

// paper-engine: the in-process library path on the paper's datasets at
// the Table I–III scales, one closed-loop client running the 12 complex
// queries round-robin.
const (
	paperUniversities = 8
	// paperMainShare is the share of the run given to the main phase;
	// paperCapacityShare is the share of the rest given to capacity
	// slices, the update blocks taking most of what is left.
	paperMainShare     = 0.7
	paperCapacityShare = 0.75
	// paperSegments is the number of rounds the run is cut into.
	paperSegments = 5
	// paperTailP is the per-query tail percentile: a 40 s run gives each
	// query 30 to 40 samples, so p70 keeps about ten beyond it.
	paperTailP = 0.70
	// paperReadTailP is the pooled tail percentile (~500 samples).
	paperReadTailP = 0.95
	// paperLimitMs is the latency limit on the pooled read tail of the
	// capacity phase.
	paperLimitMs = 3000
	// updatePairs sizes the update probe (300 updates; on paper-engine
	// in paperSegments blocks of 60); updateTailP is its tail percentile.
	updatePairs = 150
	updateTailP = 0.90
)

// paperQueries are the 12 complex queries of Tables I–III; the number
// is the dataset (LUBM, YAGO2, BTC).
var paperQueries = []struct {
	ds   int
	name string
}{
	{0, "LQ1"}, {0, "LQ3"}, {0, "LQ6"}, {0, "LQ7"},
	{1, "YQ1"}, {1, "YQ2"}, {1, "YQ3"}, {1, "YQ4"},
	{2, "BQ4"}, {2, "BQ5"}, {2, "BQ6"}, {2, "BQ7"},
}

type paperSet struct {
	ds *workload.Dataset
	db *gstored.DB
	or *oracle
	et *engineTracer
}

type paperOp struct {
	set  *paperSet
	op   op
	want []gstored.Row
}

func paperDatasets() []*workload.Dataset {
	return []*workload.Dataset{
		lubm(paperUniversities),
		workload.NewYAGO(workload.YAGOConfig{Scale: 1}),
		workload.NewBTC(workload.BTCConfig{Scale: 1}),
	}
}

func paperEngine(r *runner) error {
	ctx := context.Background()
	var sets []*paperSet
	setup, err := medianSeconds(setupRepeats(r), func() error {
		sets = nil
		for _, ds := range paperDatasets() {
			db, err := gstored.Open(ds.Graph, gstored.Config{})
			if err != nil {
				return err
			}
			sets = append(sets, &paperSet{ds: ds, db: db})
		}
		return nil
	})
	if err != nil {
		return err
	}
	r.set("setup_s", setup)

	var ops []paperOp
	for _, pq := range paperQueries {
		set := sets[pq.ds]
		if set.or == nil {
			if set.or, err = newOracle(set.ds.Graph); err != nil {
				return err
			}
		}
		o, err := benchOp(set.ds, pq.name)
		if err != nil {
			return err
		}
		want, err := set.or.answer(o.text)
		if err != nil {
			return err
		}
		ops = append(ops, paperOp{set: set, op: o, want: want.res.Rows})
	}
	for _, set := range sets {
		set.or.release()
	}
	// The seed orders the round-robin.
	perm := newRand(r.seed, 1).Perm(len(ops))
	shuffled := make([]paperOp, len(ops))
	for i, j := range perm {
		shuffled[i] = ops[j]
	}
	ops = shuffled
	r.logf("datasets: LUBM %d, YAGO2 %d, BTC %d triples; 12 queries round-robin, seeded order from %s; closed loop, 1 client",
		len(sets[0].ds.Graph.Triples), len(sets[1].ds.Graph.Triples), len(sets[2].ds.Graph.Triples), ops[0].op.name)

	if r.traced {
		return paperTraced(ctx, r, sets, ops)
	}

	// The run is cut into paperSegments rounds: a segment of the main
	// phase, a block of the update probe, then capacity slices. The
	// update and capacity metrics are medians over blocks and slices
	// from the whole run, so a change in the machine's speed partway
	// through moves them little. The heap peak is sampled during the
	// main phase only.
	peak := startHeapPeak()
	ship := map[string]float64{}
	segDur := time.Duration(float64(r.dur) * paperMainShare / paperSegments)
	capDur := time.Duration(float64(r.dur) * (1 - paperMainShare) * paperCapacityShare / paperSegments)
	var lat, capLat recorder
	var updP50, updTail, capRates []float64
	nUpd := 0
	updRng := newRand(r.seed, 9)
	n, next := 0, 0
	var elapsed time.Duration
	for seg := 0; seg < paperSegments; seg++ {
		peak.paused.Store(false)
		segStart := time.Now()
		done, nx := paperLoop(ctx, r, ops, next, segStart.Add(segDur), &lat, nil, func(o paperOp, res *gstored.Result) {
			if _, ok := ship[o.op.name]; !ok {
				ship[o.op.name] = float64(res.Stats.TotalShipment) / 1024
			}
		})
		elapsed += time.Since(segStart)
		n, next = n+done, nx
		peak.paused.Store(true)
		upd, _ := r.updateProbe(ctx, sets[0].db, updRng, paperUniversities, updatePairs/paperSegments, rpcBatch)
		nUpd += len(upd)
		updP50 = append(updP50, quantile(upd, 0.5))
		updTail = append(updTail, quantile(upd, updateTailP))
		capRates = append(capRates, sliceRates(1, time.Now().Add(capDur), func() int {
			return paperCapacitySlice(ctx, r, ops, &capLat)
		})...)
	}
	r.set("mem_peak_mb", peak.end())
	capacity := quantile(capRates, 0.5)
	capTail := quantile(values(capLat.samples(), selective, unselective), paperReadTailP)

	s := lat.samples()
	selP50, selTail, _ := classLatency(s, selective, paperTailP)
	unP50, unTail, _ := classLatency(s, unselective, paperTailP)
	reads := values(s, selective, unselective)
	// All 12 queries, the same way as each class: a pooled median would
	// fall between two queries of very different cost.
	readP50, readTail, _ := classLatency(s, "", paperTailP)
	r.set("selective_p50_ms", selP50)
	r.set("selective_tail_ms", selTail)
	r.set("unselective_p50_ms", unP50)
	r.set("unselective_tail_ms", unTail)
	r.set("read_p50_ms", readP50)
	r.set("read_tail_ms", readTail)
	r.set("update_p50_ms", quantile(updP50, 0.5))
	r.set("update_tail_ms", quantile(updTail, 0.5))
	r.set("ops_per_s", float64(n)/elapsed.Seconds())
	r.set("max_ops_per_s", capacity)
	var shipVals []float64
	for _, v := range ship {
		shipVals = append(shipVals, v)
	}
	r.set("ship_kb_per_query", mean(shipVals))
	r.logf("samples: %d reads (min %d per query, tail p%.0f), %d updates (tail: median over blocks of p%.0f); capacity pooled read p%.0f %.1f ms (limit %d ms)",
		len(reads), min(minCount(s, selective), minCount(s, unselective)), paperTailP*100, nUpd, updateTailP*100, paperReadTailP*100, capTail, paperLimitMs)
	return nil
}

// query runs one paper-engine operation, checks its answer and records
// its latency; it returns nil when the operation failed.
func (o paperOp) query(ctx context.Context, r *runner, lat *recorder) *gstored.Result {
	r.attempted.Add(1)
	start := time.Now()
	res, err := o.set.db.QueryContext(ctx, o.op.text)
	d := time.Since(start)
	if err != nil {
		r.failOp(o.op.name, err)
		return nil
	}
	if !sameRows(res.Rows, o.want) {
		r.wrongOp(o.op.name)
		return nil
	}
	lat.add(o.op.name, o.op.class, d)
	return res
}

// paperLoop is the closed-loop client: it runs ops round-robin from
// position from until deadline and returns the number of operations
// completed and the position to go on from. gaps, when non-nil, receives
// the generator's own time between one answer and the next send.
func paperLoop(ctx context.Context, r *runner, ops []paperOp, from int, deadline time.Time, lat *recorder, gaps *[]float64, each func(paperOp, *gstored.Result)) (int, int) {
	done := 0
	var prevEnd time.Time
	i := from
	for ; time.Now().Before(deadline); i++ {
		o := ops[i%len(ops)]
		if gaps != nil && !prevEnd.IsZero() {
			*gaps = append(*gaps, ms(time.Since(prevEnd)))
		}
		res := o.query(ctx, r, lat)
		prevEnd = time.Now()
		if res == nil {
			continue
		}
		if each != nil {
			each(o, res)
		}
		done++
	}
	return done, i
}

// paperCapacitySlice is one slice of fixed work — one round-robin cycle
// for each of nproc closed-loop clients at staggered offsets — and
// returns the operations completed.
func paperCapacitySlice(ctx context.Context, r *runner, ops []paperOp, lat *recorder) int {
	clients := runtime.GOMAXPROCS(0)
	var wg sync.WaitGroup
	var done atomic.Int64
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			first := c * len(ops) / clients
			for i := first; i < first+len(ops); i++ {
				if ops[i%len(ops)].query(ctx, r, lat) != nil {
					done.Add(1)
				}
			}
		}(c)
	}
	wg.Wait()
	return int(done.Load())
}

func paperTraced(ctx context.Context, r *runner, sets []*paperSet, ops []paperOp) error {
	var graphs []*gstored.Graph
	for _, s := range sets {
		graphs = append(graphs, s.ds.Graph)
	}
	if err := r.setupLayers(graphs); err != nil {
		return err
	}
	var probes []*probeSites
	defer func() {
		for _, p := range probes {
			p.close()
		}
	}()
	for _, s := range sets {
		p, err := newProbeSites(ctx, s.db.Distributed())
		if err != nil {
			return err
		}
		probes = append(probes, p)
		s.et = &engineTracer{probe: p, cfg: engine.Config{Mode: engine.Full}}
	}
	t := newTracer()

	// Phase A, untraced: the reference for the tracing overhead and the
	// generator's own time between operations.
	var plain recorder
	var gaps []float64
	aDur := r.dur / 3
	paperLoop(ctx, r, ops, 0, time.Now().Add(aDur), &plain, &gaps, nil)

	// Phase B, traced: each operation runs through recording sites.
	var traced recorder
	var recs []opRec
	mark := markRuntime()
	deadline := time.Now().Add(r.dur - aDur)
	for i := 0; time.Now().Before(deadline); i++ {
		o := ops[i%len(ops)]
		r.attempted.Add(1)
		id := t.newID()
		start := time.Now()
		q, p, k, err := parseAndKey(t, id, id, o.set.db.Graph.Dict, o.op.text, false)
		if err != nil {
			return err
		}
		run, err := o.set.et.execute(ctx, q)
		end := time.Now()
		t.put(id, "request", 0, id, start, end, false)
		if err != nil {
			r.failOp(o.op.name, err)
			continue
		}
		if !sameRows(run.res.Rows, o.want) {
			r.wrongOp(o.op.name)
			continue
		}
		traced.add(o.op.name, o.op.class, end.Sub(start))
		obs, err := o.set.et.observe(ctx, t, id, id, q, run, false)
		if err != nil {
			return err
		}
		recs = append(recs, opRec{parse: p, key: k, engine: obs})
	}
	r.setRuntime(mark, len(recs))

	var counts []stages
	for _, s := range sets {
		var texts []string
		for _, o := range ops {
			if o.set == s {
				texts = append(texts, o.op.text)
			}
		}
		c, err := s.et.countPass(ctx, s.db, texts)
		if err != nil {
			return err
		}
		counts = append(counts, c...)
	}
	r.setEngineLayers(recs, counts)

	var unsel []ablationOp
	for _, o := range ops {
		if o.op.class == unselective {
			unsel = append(unsel, ablationOp{o.set.db, o.op})
		}
	}
	if err := r.modeAblation(ctx, unsel); err != nil {
		return err
	}
	if err := paperServerProbe(ctx, r, t, sets[0], ops); err != nil {
		return err
	}
	_, upd := r.updateProbe(ctx, sets[0].db, newRand(r.seed, 9), paperUniversities, updatePairs/3, rpcBatch)
	r.setUpdateLayers(upd)

	r.set("loadgen.late_tail_ms", quantile(gaps, 0.99))
	r.set("loadgen.backlog_peak", 0)
	r.set("trace.overhead_pct", overheadPct(plain.samples(), traced.samples()))
	return r.finishTrace(t)
}

// paperServerProbe serves the LUBM database over HTTP and sends each
// LUBM query twice (a miss, then a hit), so the server layers have a
// figure on the library workload too.
func paperServerProbe(ctx context.Context, r *runner, t *tracer, set *paperSet, ops []paperOp) error {
	env, err := startHTTP(set.db, server.Config{}, runtime.GOMAXPROCS(0))
	if err != nil {
		return err
	}
	defer env.close()
	before, err := env.scrape(ctx)
	if err != nil {
		return err
	}
	var hops []httpOp
	for pass := 0; pass < 2; pass++ {
		for _, o := range ops {
			if o.set != set {
				continue
			}
			want, err := set.or.answer(o.op.text)
			if err != nil {
				return err
			}
			r.attempted.Add(1)
			id := t.newID()
			start := time.Now()
			body, cache, err := env.query(ctx, o.op.text)
			end := time.Now()
			t.put(id, "request", 0, id, start, end, false)
			if err != nil {
				r.failOp(o.op.name, err)
				continue
			}
			if string(body) != string(want.json) {
				r.wrongOp(o.op.name + " over HTTP")
				continue
			}
			hops = append(hops, httpOp{req: id, text: o.op.text, rt: end.Sub(start), cache: cache})
		}
	}
	after, err := env.scrape(ctx)
	if err != nil {
		return err
	}
	recs, err := replayHTTP(ctx, t, set.et, set.db, set.or, hops)
	if err != nil {
		return err
	}
	r.setServerLayers(recs, before, after)
	return nil
}

// overheadPct compares the traced and untraced latency of the same
// operations: the geometric mean over operation names of the ratio of
// medians, as a percentage above 1.
func overheadPct(plain, traced []sample) float64 {
	med := func(s []sample) map[string]float64 {
		by := map[string][]float64{}
		for _, x := range s {
			by[x.name] = append(by[x.name], x.ms)
		}
		out := map[string]float64{}
		for k, v := range by {
			out[k] = quantile(v, 0.5)
		}
		return out
	}
	a, b := med(plain), med(traced)
	var ratios []float64
	for k, v := range b {
		if u, ok := a[k]; ok && u > 0 {
			ratios = append(ratios, v/u)
		}
	}
	if len(ratios) == 0 {
		return 0
	}
	return (geomean(ratios) - 1) * 100
}

// finishTrace writes the spans and logs the self time per span name.
func (r *runner) finishTrace(t *tracer) error {
	path := fmt.Sprintf("%s-seed%d", r.name, r.seed)
	if err := t.write(spansDir, path); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	for name, v := range t.selfTimes() {
		r.logf("self time %-24s %10.1f ms", name, v)
	}
	return nil
}

func setupRepeats(r *runner) int {
	if r.traced {
		return 1
	}
	return 5
}
