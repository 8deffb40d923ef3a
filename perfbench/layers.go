package main

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"sort"
	"sync"
	"time"

	"gstored"
	"gstored/internal/engine"
	"gstored/internal/fragment"
	"gstored/internal/partition"
	"gstored/internal/query"
	"gstored/internal/rdf"
	"gstored/internal/server"
	"gstored/internal/sparql"
	"gstored/internal/store"
)

// opRec is what the traced run learned about one operation. Times are
// milliseconds.
type opRec struct {
	rt, parse, key, json float64 // rt: client round trip (HTTP ops)
	engine               *engineObs
}

// engineObs is one engine execution through recording sites, with its
// stages replayed and its partial stage timed on both deployments.
type engineObs struct {
	exec, candWall, partialWall float64
	skew                        float64
	hasSkew                     bool
	st                          stages
	rpcPartial, localPartial    float64
	wireKB, msgs                float64
}

// engineTracer runs traced engine executions for one distributed graph.
type engineTracer struct {
	probe  *probeSites
	remote bool // the workload's own sites are remote
	cfg    engine.Config
}

// execute runs q on the workload's own deployment through recording
// sites.
func (et *engineTracer) execute(ctx context.Context, q *query.Graph) (recorded, error) {
	own := et.probe.local
	if et.remote {
		own = et.probe.remote
	}
	return executeRecorded(ctx, et.probe.dist, own, q, et.cfg)
}

// observe records the spans of rec under parent, runs q again on the
// other deployment, and replays the coordinator stages. replay marks
// the execution's spans as replays (HTTP operations, whose engine run
// happened inside the server).
func (et *engineTracer) observe(ctx context.Context, t *tracer, parent, req int64, q *query.Graph, rec recorded, replay bool) (*engineObs, error) {
	execID := t.add("engine.execute", parent, req, rec.start, rec.end, replay)
	for _, c := range rec.c.calls {
		t.add("cluster."+c.stage, execID, req, c.start, c.end, replay)
	}
	other := et.probe.remote
	if et.remote {
		other = et.probe.local
	}
	alt, err := executeRecorded(ctx, et.probe.dist, other, q, et.cfg)
	if err != nil {
		return nil, err
	}
	obs := &engineObs{exec: ms(rec.end.Sub(rec.start))}
	cw, _ := rec.c.stageWall("candidates")
	pw, _ := rec.c.stageWall("partial")
	obs.candWall, obs.partialWall = ms(cw), ms(pw)
	obs.skew, obs.hasSkew = rec.c.skew()
	remoteRec, localRec := alt, rec
	if et.remote {
		remoteRec, localRec = rec, alt
	}
	_, rpc := remoteRec.c.stageWall("partial")
	_, loc := localRec.c.stageWall("partial")
	obs.rpcPartial, obs.localPartial = ms(rpc), ms(loc)
	wire, msgs := remoteRec.c.wire()
	obs.wireKB, obs.msgs = float64(wire)/1024, float64(msgs)

	start := time.Now()
	obs.st = replayStages(et.probe.dist, rec.c, et.cfg.EvalWorkers)
	t.add("replay.stages", execID, req, start, time.Now(), true)
	return obs, nil
}

// countPass replays the stages of each distinct query once, in sorted
// text order, so the count metrics are a function of the seed alone.
func (et *engineTracer) countPass(ctx context.Context, db *gstored.DB, texts []string) ([]stages, error) {
	sorted := append([]string(nil), texts...)
	sort.Strings(sorted)
	var out []stages
	seen := map[string]bool{}
	for _, text := range sorted {
		if seen[text] {
			continue
		}
		seen[text] = true
		q, err := sparql.ParseReadOnly(text, db.Graph.Dict)
		if err != nil {
			return nil, err
		}
		rec, err := executeRecorded(ctx, et.probe.dist, et.probe.local, q, et.cfg)
		if err != nil {
			return nil, err
		}
		out = append(out, replayStages(et.probe.dist, rec.c, et.cfg.EvalWorkers))
	}
	return out, nil
}

// parseAndKey times the two front-end layers on one query text.
func parseAndKey(t *tracer, parent, req int64, dict *rdf.Dictionary, text string, replay bool) (*query.Graph, float64, float64, error) {
	start := time.Now()
	q, err := sparql.ParseReadOnly(text, dict)
	mid := time.Now()
	if err != nil {
		return nil, 0, 0, err
	}
	_ = query.CanonicalKey(q)
	end := time.Now()
	t.add("sparql.parse", parent, req, start, mid, replay)
	t.add("query.canonical_key", parent, req, mid, end, replay)
	return q, ms(mid.Sub(start)), ms(end.Sub(mid)), nil
}

// setEngineLayers reports the engine-side per-layer metrics as means
// per operation of ops, and the count metrics from the count pass.
func (r *runner) setEngineLayers(ops []opRec, counts []stages) {
	n := float64(max(len(ops), 1))
	var parse, key, exec, candWall, partialWall, skew float64
	var skewN, remoteN int
	var st stages
	var rpc, loc, wire, msgs float64
	for _, o := range ops {
		parse += o.parse
		key += o.key
		e := o.engine
		if e == nil {
			continue
		}
		exec += e.exec
		candWall += e.candWall
		partialWall += e.partialWall
		if e.hasSkew {
			skew += e.skew
			skewN++
		}
		st.add(e.st)
		rpc += e.rpcPartial
		loc += e.localPartial
		wire += e.wireKB
		msgs += e.msgs
		remoteN++
	}
	r.set("sparql.parse_us", parse*1000/n)
	r.set("query.canonical_key_us", key*1000/n)
	r.set("engine.execute_ms", exec/n)
	r.set("cluster.candidates_wall_ms", candWall/n)
	r.set("cluster.partial_wall_ms", partialWall/n)
	r.set("engine.coordinator_ms", (exec-candWall-partialWall)/n)
	r.set("engine.residual_ms", (exec-st.total())/n)
	r.set("cluster.site_skew", skew/float64(max(skewN, 1)))
	r.set("store.match_ms", st.matchCrit/n)
	r.set("candidates.site_ms", st.candCrit/n)
	r.set("candidates.union_ms", st.candUnion/n)
	r.set("candidates.ship_kb", st.candShipKB/n)
	r.set("partial.compute_ms", st.partialCrit/n)
	r.set("partial.busy_ms", st.partialBusy/n)
	r.set("partial.alloc_mb", st.partialAllocMB/n)
	r.set("lec.compute_ms", st.lecCompute/n)
	r.set("lec.prune_ms", st.lecPrune/n)
	r.set("lec.ship_kb", st.lecShipKB/n)
	r.set("assembly.assemble_ms", st.assemble/n)
	r.set("assembly.ship_kb", st.asmShipKB/n)
	r.set("assembly.alloc_mb", st.asmAllocMB/n)
	rn := float64(max(remoteN, 1))
	r.set("remote.partial_rpc_ms", rpc/rn)
	r.set("remote.partial_local_ms", loc/rn)
	r.set("remote.wire_kb_per_query", wire/rn)
	r.set("remote.messages_per_query", msgs/rn)

	var c stages
	for _, x := range counts {
		c.add(x)
	}
	cn := float64(max(len(counts), 1))
	r.set("store.local_matches", float64(c.localMatches)/cn)
	r.set("partial.lpm", float64(c.lpm)/cn)
	r.set("lec.features", float64(c.features)/cn)
	r.set("assembly.join_attempts", float64(c.joinAttempts)/cn)
	r.set("lec.retained_ratio", safeDiv(float64(c.retained), float64(c.lpm)))
	r.set("assembly.yield", safeDiv(float64(c.crossing), float64(c.joinAttempts)))
	r.set("candidates.pass_ratio", safeDiv(float64(c.admitted), float64(c.tested)))
	r.logf("count pass: %d queries, lpm=%d features=%d retained=%d join_attempts=%d crossing=%d tested=%d admitted=%d",
		len(counts), c.lpm, c.features, c.retained, c.joinAttempts, c.crossing, c.tested, c.admitted)
}

// setServerLayers reports the server-side per-layer metrics over HTTP
// operations: the client round trip split into the replayed parse, key,
// engine and JSON calls and the residual the server adds around them.
func (r *runner) setServerLayers(ops []opRec, before, after scrape) {
	n := float64(max(len(ops), 1))
	var rt, parse, key, exec, js float64
	for _, o := range ops {
		rt += o.rt
		parse += o.parse
		key += o.key
		js += o.json
		if o.engine != nil {
			exec += o.engine.exec
		}
	}
	r.set("server.round_trip_ms", rt/n)
	r.set("server.write_json_ms", js/n)
	r.set("server.overhead_ms", (rt-parse-key-exec-js)/n)
	hits := after["gstored_cache_hits_total"] - before["gstored_cache_hits_total"]
	misses := after["gstored_cache_misses_total"] - before["gstored_cache_misses_total"]
	r.set("server.cache_hit_rate", safeDiv(hits, hits+misses))
	r.set("server.evictions_per_op", (after["gstored_cache_evictions_total"]-before["gstored_cache_evictions_total"])/n)
	r.set("server.coalesced_rate", (after["gstored_singleflight_waiters_total"]-before["gstored_singleflight_waiters_total"])/n)
	r.logf("accounting per HTTP op: round trip %.3f ms = parse %.3f + key %.3f + engine %.3f + json %.3f + server overhead %.3f",
		rt/n, parse/n, key/n, exec/n, js/n, (rt-parse-key-exec-js)/n)
}

func safeDiv(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// setupLayers times the set-up layers on g (median of three) and the
// extra cost of shipping fragments to two loopback workers.
func (r *runner) setupLayers(graphs []*gstored.Graph) error {
	var index, assign, build, ship []float64
	for rep := 0; rep < 3; rep++ {
		var ix, as, bd, sh float64
		for _, g := range graphs {
			start := time.Now()
			st := store.FromGraph(g)
			ix += ms(time.Since(start))
			start = time.Now()
			a, err := partition.Hash{}.Partition(st, 12)
			if err != nil {
				return err
			}
			as += ms(time.Since(start))
			start = time.Now()
			if _, err := fragment.Build(st, a); err != nil {
				return err
			}
			bd += ms(time.Since(start))
			d, err := shipCost(g)
			if err != nil {
				return err
			}
			sh += d
		}
		index, assign, build, ship = append(index, ix), append(assign, as), append(build, bd), append(ship, sh)
	}
	r.set("store.index_ms", quantile(index, 0.5))
	r.set("partition.assign_ms", quantile(assign, 0.5))
	r.set("fragment.build_ms", quantile(build, 0.5))
	r.set("remote.ship_fragments_ms", quantile(ship, 0.5))
	return nil
}

// shipCost is worker-mode Open minus in-process Open of g, in ms.
func shipCost(g *gstored.Graph) (float64, error) {
	start := time.Now()
	db, err := gstored.Open(g, gstored.Config{})
	if err != nil {
		return 0, err
	}
	local := ms(time.Since(start))
	_ = db.Close() // in-process: no-op
	var wg sync.WaitGroup
	addrs, ws, err := startWorkers(2, &wg)
	defer stopWorkers(ws, &wg)
	if err != nil {
		return 0, err
	}
	start = time.Now()
	wdb, err := gstored.Open(g, gstored.Config{Workers: addrs})
	if err != nil {
		return 0, err
	}
	wired := ms(time.Since(start))
	_ = wdb.Close() // teardown; the workers stop next
	return wired - local, nil
}

// updateRec is one DB.Update with its replayed layers (ms).
type updateRec struct {
	total, apply, delta float64
	touched             int
}

// updateProbe runs n insert/delete pairs of batches of the given size through
// DB.Update, checks each by reading it back, and returns the latency
// of every update. Traced, it also replays Store.Apply and
// Distributed.ApplyDelta on the same delta.
func (r *runner) updateProbe(ctx context.Context, db *gstored.DB, rng *rand.Rand, universities, n, batch int) ([]float64, []updateRec) {
	var lat []float64
	var recs []updateRec
	for i := 0; i < n; i++ {
		b := newWriteBatch(rng, 9, batch, universities)
		for _, verb := range []string{"INSERT", "DELETE"} {
			pre := db.Distributed()
			r.attempted.Add(1)
			start := time.Now()
			_, err := db.Update(ctx, b.text(verb))
			d := time.Since(start)
			if err != nil {
				r.failOp("update", err)
				continue
			}
			lat = append(lat, ms(d))
			want := b.pairs()
			if verb == "DELETE" {
				want = map[string]bool{}
			}
			r.attempted.Add(1)
			if err := checkReadback(ctx, db, b, want); err != nil {
				r.wrongOp(err.Error())
			}
			if r.traced {
				recs = append(recs, replayUpdate(db, pre, b, verb == "INSERT", ms(d)))
			}
		}
	}
	return lat, recs
}

// checkReadback compares the batch predicate's triples with want.
func checkReadback(ctx context.Context, db *gstored.DB, b writeBatch, want map[string]bool) error {
	res, err := db.QueryContext(ctx, b.readback())
	if err != nil {
		return err
	}
	got := map[string]bool{}
	dict := db.Graph.Dict
	res.EachProjected(func(row gstored.Row) bool {
		got[dict.MustDecode(row[0]).Value+" "+dict.MustDecode(row[1]).Value] = true
		return true
	})
	if len(got) != len(want) {
		return fmt.Errorf("readback of %s: %d triples, want %d", b.pred, len(got), len(want))
	}
	for k := range want {
		if !got[k] {
			return fmt.Errorf("readback of %s: missing %s", b.pred, k)
		}
	}
	return nil
}

// replayUpdate repeats the index and fragment maintenance of one update
// on the generation that preceded it.
func replayUpdate(db *gstored.DB, pre *fragment.Distributed, b writeBatch, insert bool, total float64) updateRec {
	dict := db.Graph.Dict
	p := dict.Encode(rdf.NewIRI(b.pred))
	var ts []rdf.Triple
	var ends []rdf.TermID
	for j, s := range b.subjects {
		t := rdf.Triple{S: dict.Encode(rdf.NewIRI(s)), P: p, O: dict.Encode(rdf.NewLiteral(b.objects[j]))}
		ts = append(ts, t)
		ends = append(ends, t.S, t.O)
	}
	sort.Slice(ts, func(i, j int) bool { return ts[i].Less(ts[j]) })
	var ins, del []rdf.Triple
	if insert {
		ins = ts
	} else {
		del = ts
	}
	start := time.Now()
	st := pre.Global.Apply(ins, del)
	apply := ms(time.Since(start))
	a := pre.Assignment
	if insert {
		a = a.WithVertices(dict, ends)
	}
	start = time.Now()
	_, touched, err := pre.ApplyDelta(st, a, ins, del)
	delta := ms(time.Since(start))
	if err != nil {
		touched = nil
	}
	return updateRec{total: total, apply: apply, delta: delta, touched: len(touched)}
}

// setUpdateLayers reports the update-path layers as means per update.
func (r *runner) setUpdateLayers(recs []updateRec) {
	var total, apply, delta float64
	var touched int
	for _, u := range recs {
		total += u.total
		apply += u.apply
		delta += u.delta
		touched += u.touched
	}
	n := float64(max(len(recs), 1))
	r.set("gstored.update_ms", total/n)
	r.set("store.apply_ms", apply/n)
	r.set("fragment.apply_delta_ms", delta/n)
	r.set("fragment.touched", float64(touched)/n)
	r.set("gstored.swap_ms", (total-apply-delta)/n)
}

// ablationOp is one query of the Fig. 9 ablation and its database.
type ablationOp struct {
	db *gstored.DB
	op op
}

// modeAblation runs the unselective queries once in each engine mode
// (Fig. 9): geometric-mean time and mean shipment per mode.
func (r *runner) modeAblation(ctx context.Context, ops []ablationOp) error {
	modes := []struct {
		name string
		mode gstored.Mode
	}{{"basic", gstored.ModeBasic}, {"la", gstored.ModeLA}, {"lo", gstored.ModeLO}, {"full", gstored.ModeFull}}
	for _, m := range modes {
		var times, ship []float64
		for _, o := range ops {
			q, err := o.db.ParseReadOnly(o.op.text)
			if err != nil {
				return err
			}
			start := time.Now()
			res, err := o.db.QueryGraphModeContext(ctx, q, m.mode)
			if err != nil {
				return fmt.Errorf("%s in mode %s: %w", o.op.name, m.name, err)
			}
			times = append(times, ms(time.Since(start)))
			ship = append(ship, float64(res.Stats.TotalShipment)/1024)
		}
		r.set("mode."+m.name+".unselective_ms", geomean(times))
		r.set("mode."+m.name+".ship_kb", mean(ship))
	}
	return nil
}

// httpOp is one traced HTTP request.
type httpOp struct {
	req   int64 // the request span's ID, which is also its request id
	text  string
	rt    time.Duration
	cache string // X-Cache
}

// replayHTTP splits each traced HTTP request into the calls the server
// made for it: parse, canonical key, the engine run (only when the
// request executed the engine) and JSON writing.
func replayHTTP(ctx context.Context, t *tracer, et *engineTracer, db *gstored.DB, or *oracle, ops []httpOp) ([]opRec, error) {
	var out []opRec
	for _, o := range ops {
		rec := opRec{rt: ms(o.rt)}
		q, p, k, err := parseAndKey(t, o.req, o.req, db.Graph.Dict, o.text, true)
		if err != nil {
			return nil, err
		}
		rec.parse, rec.key = p, k
		want, ok := or.want[o.text]
		if !ok {
			return nil, fmt.Errorf("no oracle answer for %q", o.text)
		}
		start := time.Now()
		if err := server.WriteResultsJSON(io.Discard, db.Graph.Dict, columns(db, q), want.res.EachProjected); err != nil {
			return nil, err
		}
		end := time.Now()
		rec.json = ms(end.Sub(start))
		t.add("server.write_json", o.req, o.req, start, end, true)
		if o.cache == "MISS" || o.cache == "BYPASS" {
			run, err := et.execute(ctx, q)
			if err != nil {
				return nil, err
			}
			if rec.engine, err = et.observe(ctx, t, o.req, o.req, q, run, true); err != nil {
				return nil, err
			}
		}
		out = append(out, rec)
	}
	return out, nil
}
