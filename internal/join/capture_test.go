package join_test

import (
	"context"
	"sync"
	"testing"

	"gstored/internal/assembly"
	"gstored/internal/cluster"
	"gstored/internal/engine"
	"gstored/internal/fragment"
	"gstored/internal/lec"
	"gstored/internal/partial"
	"gstored/internal/partition"
	"gstored/internal/query"
	"gstored/internal/rdf"
	"gstored/internal/store"
	"gstored/internal/workload"
)

// capture is the input of one query's two join searches: its local
// partial matches as the coordinator receives them in Full mode at
// EvalWorkers 1, their LEC features, and the partial matches pruning
// retains.
type capture struct {
	q        *query.Graph
	features []*lec.Feature
	kept     []*partial.Match
}

// recSite keeps the partial matches its site returns.
type recSite struct {
	cluster.Site
	mu  *sync.Mutex
	pms [][]*partial.Match
}

func (s recSite) PartialEval(ctx context.Context, req cluster.PartialRequest, emit func([]rdf.TermID) bool) (cluster.PartialReply, error) {
	rep, err := s.Site.PartialEval(ctx, req, emit)
	s.mu.Lock()
	s.pms[s.ID()] = rep.Matches
	s.mu.Unlock()
	return rep, err
}

var (
	capturesOnce sync.Once
	captures     map[string]*capture
	capturesErr  error
)

// loadCaptures records LQ7 on LUBM 8 universities and YQ3 on YAGO2 scale
// 1, each hash-partitioned over 12 sites.
func loadCaptures(tb testing.TB) map[string]*capture {
	tb.Helper()
	capturesOnce.Do(func() {
		captures = map[string]*capture{}
		for _, c := range []struct {
			ds    *workload.Dataset
			query string
		}{
			{workload.NewLUBM(workload.LUBMConfig{Universities: 8}), "LQ7"},
			{workload.NewYAGO(workload.YAGOConfig{Scale: 1}), "YQ3"},
		} {
			cp, err := record(c.ds, c.query)
			if err != nil {
				capturesErr = err
				return
			}
			captures[c.query] = cp
		}
	})
	if capturesErr != nil {
		tb.Fatal(capturesErr)
	}
	return captures
}

func record(ds *workload.Dataset, name string) (*capture, error) {
	bq, err := ds.Query(name)
	if err != nil {
		return nil, err
	}
	q, err := bq.Parse(ds.Graph.Dict)
	if err != nil {
		return nil, err
	}
	d, err := fragment.BuildWith(store.FromGraph(ds.Graph), partition.Hash{}, 12)
	if err != nil {
		return nil, err
	}
	var mu sync.Mutex
	pms := make([][]*partial.Match, len(d.Fragments))
	var sites []cluster.Site
	for _, s := range cluster.LocalSites(d, 1) {
		sites = append(sites, recSite{Site: s, mu: &mu, pms: pms})
	}
	if _, err := engine.NewWithSites(d, sites).Execute(q, engine.Config{Mode: engine.Full, EvalWorkers: 1}); err != nil {
		return nil, err
	}
	var all []*partial.Match
	for _, ms := range pms {
		all = append(all, ms...)
	}
	features, featureOf := lec.Compute(all)
	verdict := lec.Prune(features, q)
	cp := &capture{q: q, features: features}
	for i, pm := range all {
		if verdict.Retained[featureOf[i]] {
			cp.kept = append(cp.kept, pm)
		}
	}
	return cp, nil
}

// Allocation ceilings on the captures. The kernel allocates as its
// buffers and tables grow, not per join state; Assemble adds one row and
// one dedup key per distinct result. Each ceiling is the count measured
// when the kernel landed plus 25% headroom for map growth: LQ7 Prune 108,
// Assemble 1,992 (926 results); YQ3 Prune 444, Assemble 13,584 (6,522
// results). The string-keyed searches they replaced allocated 105,673 /
// 266,829 and 722,251 / 1,867,313 times.
var allocCeilings = map[string]struct{ prune, assemble float64 }{
	"LQ7": {prune: 135, assemble: 2490},
	"YQ3": {prune: 555, assemble: 16980},
}

func TestAllocCeilings(t *testing.T) {
	if testing.Short() {
		t.Skip("builds LUBM 8 and YAGO2")
	}
	for name, cp := range loadCaptures(t) {
		ceil := allocCeilings[name]
		prune := testing.AllocsPerRun(3, func() { lec.Prune(cp.features, cp.q) })
		asm := testing.AllocsPerRun(3, func() { assembly.Assemble(cp.kept, cp.q, assembly.Options{UseLEC: true}) })
		_, st := assembly.Assemble(cp.kept, cp.q, assembly.Options{UseLEC: true})
		t.Logf("%s: %d features, %d retained partial matches, %d results: Prune %.0f allocs, Assemble %.0f allocs",
			name, len(cp.features), len(cp.kept), st.Results, prune, asm)
		if prune > ceil.prune {
			t.Errorf("%s: lec.Prune allocates %.0f times, ceiling %.0f", name, prune, ceil.prune)
		}
		if asm > ceil.assemble {
			t.Errorf("%s: assembly.Assemble allocates %.0f times, ceiling %.0f", name, asm, ceil.assemble)
		}
	}
}

func BenchmarkPrune(b *testing.B) {
	for _, name := range []string{"LQ7", "YQ3"} {
		cp := loadCaptures(b)[name]
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				lec.Prune(cp.features, cp.q)
			}
		})
	}
}

func BenchmarkAssemble(b *testing.B) {
	for _, name := range []string{"LQ7", "YQ3"} {
		cp := loadCaptures(b)[name]
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				assembly.Assemble(cp.kept, cp.q, assembly.Options{UseLEC: true})
			}
		})
	}
}
