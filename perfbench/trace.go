package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"gstored/internal/assembly"
	"gstored/internal/candidates"
	"gstored/internal/cluster"
	"gstored/internal/engine"
	"gstored/internal/fragment"
	"gstored/internal/lec"
	"gstored/internal/partial"
	"gstored/internal/pool"
	"gstored/internal/query"
	"gstored/internal/rdf"
	"gstored/internal/remote"
	"gstored/internal/store"
)

// span is one timed call recorded by the traced run. Spans of one
// operation share Req; Replay marks a call the benchmark repeated after
// the operation, on inputs it captured, to split time the operation
// itself does not expose (server internals, coordinator stages).
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Req    int64  `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Replay bool   `json:"replay,omitempty"`
}

// tracer keeps spans in memory until the run ends.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	next  atomic.Int64
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// newID reserves a span ID (IDs start at 1; parent 0 is the root), so a
// span's children can name it before it ends.
func (t *tracer) newID() int64 { return t.next.Add(1) }

// put records a span under a reserved ID.
func (t *tracer) put(id int64, name string, parent, req int64, start, end time.Time, replay bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: id, Parent: parent, Req: req, Name: name,
		Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds(), Replay: replay})
}

// add records a span and returns its ID.
func (t *tracer) add(name string, parent, req int64, start, end time.Time, replay bool) int64 {
	id := t.newID()
	t.put(id, name, parent, req, start, end, replay)
	return id
}

// selfTimes sums, per span name, each span's duration minus the part of
// it that its (non-replay) children cover.
func (t *tracer) selfTimes() map[string]float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := map[int64][][2]int64{}
	for _, s := range t.spans {
		if s.Parent != 0 && !s.Replay {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	self := map[string]float64{}
	for _, s := range t.spans {
		if s.Replay {
			continue
		}
		covered := coverage(children[s.ID], s.Start, s.End)
		self[s.Name] += float64(s.End-s.Start-covered) / 1e6
	}
	return self
}

// coverage is the length of the union of intervals clipped to [lo, hi].
func coverage(iv [][2]int64, lo, hi int64) int64 {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curS, curE int64
	open := false
	for _, x := range iv {
		s, e := max(x[0], lo), min(x[1], hi)
		if e <= s {
			continue
		}
		if open && s <= curE {
			curE = max(curE, e)
			continue
		}
		if open {
			total += curE - curS
		}
		curS, curE, open = s, e, true
	}
	if open {
		total += curE - curS
	}
	return total
}

// write stores the spans as JSON lines under dir.
func (t *tracer) write(dir, name string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, name+".jsonl")
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			_ = f.Close() // already failing
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		_ = f.Close() // already failing
		return err
	}
	return f.Close()
}

// siteCall is one call recorded at the coordinator-site boundary.
type siteCall struct {
	site       int
	stage      string // "candidates" or "partial"
	start, end time.Time
	wire, msgs int64
}

// capture is what the recording sites saw during one execution.
type capture struct {
	mu    sync.Mutex
	calls []siteCall
	creq  *cluster.CandidatesRequest
	preq  *cluster.PartialRequest
}

func (c *capture) add(call siteCall, creq *cluster.CandidatesRequest, preq *cluster.PartialRequest) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.calls = append(c.calls, call)
	if creq != nil && c.creq == nil {
		c.creq = creq
	}
	if preq != nil && c.preq == nil {
		c.preq = preq
	}
}

// stageWall is the wall time of one site stage, first call start to
// last call end, and the slowest site's call.
func (c *capture) stageWall(stage string) (wall, slowest time.Duration) {
	var first, last time.Time
	for _, x := range c.calls {
		if x.stage != stage {
			continue
		}
		if first.IsZero() || x.start.Before(first) {
			first = x.start
		}
		if x.end.After(last) {
			last = x.end
		}
		slowest = max(slowest, x.end.Sub(x.start))
	}
	return last.Sub(first), slowest
}

// skew is max ÷ mean of the per-site wall summed over stages.
func (c *capture) skew() (float64, bool) {
	per := map[int]time.Duration{}
	for _, x := range c.calls {
		per[x.site] += x.end.Sub(x.start)
	}
	if len(per) == 0 {
		return 0, false
	}
	var sum, top time.Duration
	for _, d := range per {
		sum += d
		top = max(top, d)
	}
	if sum == 0 {
		return 0, false
	}
	return float64(top) / (float64(sum) / float64(len(per))), true
}

func (c *capture) wire() (bytes, msgs int64) {
	for _, x := range c.calls {
		bytes += x.wire
		msgs += x.msgs
	}
	return bytes, msgs
}

// recSite records every call into the site it wraps.
type recSite struct {
	cluster.Site
	c *capture
}

func (s recSite) Candidates(ctx context.Context, req cluster.CandidatesRequest) (cluster.CandidatesReply, error) {
	start := time.Now()
	rep, err := s.Site.Candidates(ctx, req)
	s.c.add(siteCall{site: s.ID(), stage: "candidates", start: start, end: time.Now(), wire: rep.Wire, msgs: rep.WireMessages}, &req, nil)
	return rep, err
}

func (s recSite) PartialEval(ctx context.Context, req cluster.PartialRequest, emit func(row []rdf.TermID) bool) (cluster.PartialReply, error) {
	start := time.Now()
	rep, err := s.Site.PartialEval(ctx, req, emit)
	s.c.add(siteCall{site: s.ID(), stage: "partial", start: start, end: time.Now(), wire: rep.Wire, msgs: rep.WireMessages}, nil, &req)
	return rep, err
}

// recorded is one execution through recording sites.
type recorded struct {
	res        *engine.Result
	c          *capture
	start, end time.Time
}

// executeRecorded runs q on an engine whose sites record every call.
func executeRecorded(ctx context.Context, dist *fragment.Distributed, sites []cluster.Site, q *query.Graph, cfg engine.Config) (recorded, error) {
	c := &capture{}
	wrapped := make([]cluster.Site, len(sites))
	for i, s := range sites {
		wrapped[i] = recSite{Site: s, c: c}
	}
	eng := engine.NewWithSites(dist, wrapped)
	start := time.Now()
	res, err := eng.ExecuteContext(ctx, q, cfg)
	return recorded{res: res, c: c, start: start, end: time.Now()}, err
}

// stages is one coordinator-stage replay on captured inputs. Times are
// milliseconds; "crit" times are the slowest site.
type stages struct {
	candCrit, candUnion, candShipKB float64
	tested, admitted                int
	matchCrit                       float64
	localMatches                    int
	partialCrit, partialBusy        float64
	lpm                             int
	partialAllocMB                  float64
	lecCompute, lecPrune            float64
	features, retained              int
	lecShipKB                       float64
	assemble                        float64
	joinAttempts, crossing          int
	asmShipKB, asmAllocMB           float64
}

// add sums o into s field by field.
func (s *stages) add(o stages) {
	s.candCrit += o.candCrit
	s.candUnion += o.candUnion
	s.candShipKB += o.candShipKB
	s.tested += o.tested
	s.admitted += o.admitted
	s.matchCrit += o.matchCrit
	s.localMatches += o.localMatches
	s.partialCrit += o.partialCrit
	s.partialBusy += o.partialBusy
	s.lpm += o.lpm
	s.partialAllocMB += o.partialAllocMB
	s.lecCompute += o.lecCompute
	s.lecPrune += o.lecPrune
	s.features += o.features
	s.retained += o.retained
	s.lecShipKB += o.lecShipKB
	s.assemble += o.assemble
	s.joinAttempts += o.joinAttempts
	s.crossing += o.crossing
	s.asmShipKB += o.asmShipKB
	s.asmAllocMB += o.asmAllocMB
}

// total is the replayed time on the execution's blocking path.
func (s stages) total() float64 {
	return s.candCrit + s.candUnion + s.matchCrit + s.partialCrit + s.lecCompute + s.lecPrune + s.assemble
}

// replayStages repeats the stages of one Full-mode execution with the
// layers' public functions, one site after another, on the request the
// recording sites captured.
//
// Sites replay one after another, each on its own evaluation pool as
// wide as the engine's (a site alone on the machine), so "crit" is the
// slowest site's time and busy the sum over sites.
func replayStages(dist *fragment.Distributed, c *capture, width int) stages {
	var st stages
	preq := c.preq
	if preq == nil {
		return st
	}
	q := preq.Query
	k := len(dist.Fragments)
	p := pool.New(width)
	var tested, admitted atomic.Int64
	if preq.Star {
		for _, f := range dist.Fragments {
			frag := f
			center := preq.Center
			vf := func(qv int, u rdf.TermID) bool { return qv != center || frag.IsInternal(u) }
			start := time.Now()
			var local atomic.Int64
			frag.Store.MatchFunc(q, store.MatchOptions{VertexFilter: vf, Order: preq.Order, Pool: p}, func(store.Binding) bool {
				local.Add(1)
				return true
			})
			st.localMatches += int(local.Load())
			st.matchCrit = max(st.matchCrit, ms(time.Since(start)))
		}
		return st
	}

	var filter func(int, rdf.TermID) bool
	if c.creq != nil {
		bits := c.creq.Bits
		vecs := make([]*candidates.SiteVectors, k)
		for i, f := range dist.Fragments {
			start := time.Now()
			vecs[i] = candidates.ComputeSite(f, q, bits)
			st.candCrit = max(st.candCrit, ms(time.Since(start)))
		}
		start := time.Now()
		union, err := candidates.Union(vecs, q, bits)
		st.candUnion = ms(time.Since(start))
		if err == nil {
			ship := union.ShipmentBytes() * k
			for _, v := range vecs {
				ship += v.ShipmentBytes()
			}
			st.candShipKB = float64(ship) / 1024
			ef := union.Filter()
			filter = func(qv int, u rdf.TermID) bool {
				tested.Add(1)
				ok := ef(qv, u)
				if ok {
					admitted.Add(1)
				}
				return ok
			}
		}
	}

	var pms []*partial.Match
	for _, f := range dist.Fragments {
		frag := f
		internal := func(qv int, u rdf.TermID) bool { return frag.IsInternal(u) }
		var local atomic.Int64
		start := time.Now()
		frag.Store.MatchFunc(q, store.MatchOptions{VertexFilter: internal, Order: preq.Order, Pool: p}, func(store.Binding) bool {
			local.Add(1)
			return true
		})
		st.matchCrit = max(st.matchCrit, ms(time.Since(start)))
		st.localMatches += int(local.Load())

		a0 := allocBytes()
		start = time.Now()
		got, err := partial.Compute(frag, q, partial.Options{ExtendedFilter: filter, MaxMatches: preq.MaxMatches, EdgeRank: preq.EdgeRank, Pool: p})
		d := ms(time.Since(start))
		st.partialAllocMB += float64(allocBytes()-a0) / (1 << 20)
		st.partialCrit = max(st.partialCrit, d)
		st.partialBusy += d
		if err == nil {
			pms = append(pms, got...)
		}
	}
	st.lpm = len(pms)
	st.tested, st.admitted = int(tested.Load()), int(admitted.Load())

	start := time.Now()
	features, featureOf := lec.Compute(pms)
	st.lecCompute = ms(time.Since(start))
	st.features = len(features)
	start = time.Now()
	verdict := lec.Prune(features, q)
	st.lecPrune = ms(time.Since(start))
	lecShip := ((len(features) + 7) / 8) * k
	for _, f := range features {
		lecShip += f.EstimateBytes(len(q.Vertices))
	}
	st.lecShipKB = float64(lecShip) / 1024
	var kept []*partial.Match
	asmShip := 0
	for i, pm := range pms {
		if verdict.Retained[featureOf[i]] {
			kept = append(kept, pm)
			asmShip += pm.EstimateBytes()
		}
	}
	st.retained = len(kept)
	st.asmShipKB = float64(asmShip) / 1024

	a0 := allocBytes()
	start = time.Now()
	_, as := assembly.Assemble(kept, q, assembly.Options{UseLEC: true})
	st.assemble = ms(time.Since(start))
	st.asmAllocMB = float64(allocBytes()-a0) / (1 << 20)
	st.joinAttempts = as.JoinAttempts
	st.crossing = as.Results
	return st
}

// probeSites hosts a distributed graph twice: in-process LocalSites and
// remote.Sites served by two loopback workers of this process, so the
// same site request can be timed on both sides of the RPC boundary.
type probeSites struct {
	dist    *fragment.Distributed
	local   []cluster.Site
	remote  []cluster.Site
	workers []*remote.Worker
	coord   *remote.Coordinator
	wg      sync.WaitGroup
}

func newProbeSites(ctx context.Context, dist *fragment.Distributed) (*probeSites, error) {
	p := &probeSites{dist: dist, local: cluster.LocalSites(dist, 1)}
	addrs, err := p.startWorkers(2)
	if err != nil {
		p.close()
		return nil, err
	}
	p.coord, err = remote.Connect(addrs...)
	if err != nil {
		p.close()
		return nil, err
	}
	for i, f := range dist.Fragments {
		s, err := p.coord.NewSite(i).SwapGeneration(ctx, cluster.GenerationSwap{Phase: cluster.SwapPrepare, Epoch: 1, Fragment: f})
		if err == nil {
			s, err = s.SwapGeneration(ctx, cluster.GenerationSwap{Phase: cluster.SwapCommit, Epoch: 1})
		}
		if err != nil {
			p.close()
			return nil, fmt.Errorf("ship probe fragment %d: %w", i, err)
		}
		p.remote = append(p.remote, s)
	}
	return p, nil
}

func (p *probeSites) startWorkers(n int) ([]string, error) {
	addrs, ws, err := startWorkers(n, &p.wg)
	p.workers = ws
	return addrs, err
}

func (p *probeSites) close() {
	if p.coord != nil {
		_ = p.coord.Close() // probe teardown; nothing to report
	}
	stopWorkers(p.workers, &p.wg)
}

// startWorkers serves n empty gstored workers on loopback listeners;
// wg tracks their serve goroutines.
func startWorkers(n int, wg *sync.WaitGroup) ([]string, []*remote.Worker, error) {
	var addrs []string
	var ws []*remote.Worker
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return addrs, ws, err
		}
		w := remote.NewWorker(0)
		ws = append(ws, w)
		addrs = append(addrs, ln.Addr().String())
		wg.Add(1)
		go func() {
			defer wg.Done()
			_ = w.Serve(ln) // returns nil after Close; a listener error leaves the coordinator to report failed calls
		}()
	}
	return addrs, ws, nil
}

// stopWorkers closes the workers and waits until they stopped serving.
func stopWorkers(ws []*remote.Worker, wg *sync.WaitGroup) {
	for _, w := range ws {
		_ = w.Close() // teardown; connection errors are moot
	}
	wg.Wait()
}
