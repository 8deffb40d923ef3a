// Benchmarks regenerating every table and figure of the paper's evaluation
// (Section VIII). Run with:
//
//	go test -bench=. -benchmem
//
// Each BenchmarkTable*/BenchmarkFig* target corresponds to one table or
// figure (the per-experiment index is in DESIGN.md); custom metrics report
// the data shipment and result counts the paper tabulates, so the paper's
// rows can be read off the benchmark output. Absolute times come from the
// simulator — the shapes, not the magnitudes, are the reproduction target
// (recorded figures: perfbench/README.md).
package gstored

import (
	"fmt"
	"testing"

	"gstored/internal/engine"
	"gstored/internal/exp"
	"gstored/internal/fragment"
	"gstored/internal/partition"
	"gstored/internal/store"
	"gstored/internal/workload"
)

const benchSites = 12

func benchLUBM() *workload.Dataset { return workload.NewLUBM(workload.LUBMConfig{Universities: 8}) }
func benchYAGO() *workload.Dataset { return workload.NewYAGO(workload.YAGOConfig{Scale: 1}) }
func benchBTC() *workload.Dataset  { return workload.NewBTC(workload.BTCConfig{Scale: 1}) }

// benchStageTable runs one Table I/II/III experiment per query.
func benchStageTable(b *testing.B, ds *workload.Dataset) {
	st := store.FromGraph(ds.Graph)
	d, err := fragment.BuildWith(st, partition.Hash{}, benchSites)
	if err != nil {
		b.Fatal(err)
	}
	eng := engine.New(d)
	for _, bq := range ds.Queries {
		q, err := bq.Parse(ds.Graph.Dict)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(bq.Name, func(b *testing.B) {
			var last engine.Stats
			for i := 0; i < b.N; i++ {
				res, err := eng.Execute(q, engine.Config{Mode: engine.Full})
				if err != nil {
					b.Fatal(err)
				}
				last = res.Stats
			}
			b.ReportMetric(float64(last.TotalShipment)/1024, "shipKB")
			b.ReportMetric(float64(last.NumPartialMatches), "LPMs")
			b.ReportMetric(float64(last.NumMatches), "matches")
			b.ReportMetric(float64(last.NumCrossingMatches), "crossing")
		})
	}
}

// BenchmarkTableI reproduces Table I: per-stage evaluation on LUBM.
func BenchmarkTableI(b *testing.B) { benchStageTable(b, benchLUBM()) }

// BenchmarkTableII reproduces Table II: per-stage evaluation on YAGO2.
func BenchmarkTableII(b *testing.B) { benchStageTable(b, benchYAGO()) }

// BenchmarkTableIII reproduces Table III: per-stage evaluation on BTC.
func BenchmarkTableIII(b *testing.B) { benchStageTable(b, benchBTC()) }

// BenchmarkTableIV reproduces Table IV: CostPartitioning of the three
// strategies on YAGO2 and LUBM.
func BenchmarkTableIV(b *testing.B) {
	for _, ds := range []*workload.Dataset{benchYAGO(), benchLUBM()} {
		st := store.FromGraph(ds.Graph)
		for _, strat := range []partition.Strategy{partition.Hash{}, partition.SemanticHash{}, partition.Metis{}} {
			b.Run(ds.Name+"/"+strat.Name(), func(b *testing.B) {
				var cost partition.CostBreakdown
				for i := 0; i < b.N; i++ {
					a, err := strat.Partition(st, benchSites)
					if err != nil {
						b.Fatal(err)
					}
					cost = partition.Cost(st, a)
				}
				b.ReportMetric(cost.Cost, "cost")
				b.ReportMetric(float64(cost.NumCrossing), "crossing")
			})
		}
	}
}

// BenchmarkFig9 reproduces Fig. 9: the Basic/LA/LO/Full ablation on the
// complex queries of LUBM and YAGO2.
func BenchmarkFig9(b *testing.B) {
	for _, ds := range []*workload.Dataset{benchLUBM(), benchYAGO()} {
		st := store.FromGraph(ds.Graph)
		d, err := fragment.BuildWith(st, partition.Hash{}, benchSites)
		if err != nil {
			b.Fatal(err)
		}
		eng := engine.New(d)
		for _, bq := range ds.Queries {
			if bq.Shape != workload.ShapeComplex {
				continue
			}
			q, err := bq.Parse(ds.Graph.Dict)
			if err != nil {
				b.Fatal(err)
			}
			for _, mode := range []engine.Mode{engine.Basic, engine.LA, engine.LO, engine.Full} {
				b.Run(fmt.Sprintf("%s/%s/%v", ds.Name, bq.Name, mode), func(b *testing.B) {
					var ship int64
					for i := 0; i < b.N; i++ {
						res, err := eng.Execute(q, engine.Config{Mode: mode})
						if err != nil {
							b.Fatal(err)
						}
						ship = res.Stats.TotalShipment
					}
					b.ReportMetric(float64(ship)/1024, "shipKB")
				})
			}
		}
	}
}

// BenchmarkFig10 reproduces Fig. 10: full-system evaluation under each
// partitioning strategy.
func BenchmarkFig10(b *testing.B) {
	for _, ds := range []*workload.Dataset{benchLUBM(), benchYAGO()} {
		st := store.FromGraph(ds.Graph)
		for _, strat := range []partition.Strategy{partition.Hash{}, partition.SemanticHash{}, partition.Metis{}} {
			d, err := fragment.BuildWith(st, strat, benchSites)
			if err != nil {
				b.Fatal(err)
			}
			eng := engine.New(d)
			for _, bq := range ds.Queries {
				if bq.Shape != workload.ShapeComplex {
					continue
				}
				q, err := bq.Parse(ds.Graph.Dict)
				if err != nil {
					b.Fatal(err)
				}
				b.Run(fmt.Sprintf("%s/%s/%s", ds.Name, bq.Name, strat.Name()), func(b *testing.B) {
					var lecKB float64
					for i := 0; i < b.N; i++ {
						res, err := eng.Execute(q, engine.Config{Mode: engine.Full})
						if err != nil {
							b.Fatal(err)
						}
						lecKB = float64(res.Stats.LECShipment) / 1024
					}
					b.ReportMetric(lecKB, "lecKB")
				})
			}
		}
	}
}

// BenchmarkFig11 reproduces Fig. 11: scalability across LUBM sizes.
func BenchmarkFig11(b *testing.B) {
	for _, scale := range []int{4, 8, 16} {
		ds := workload.NewLUBM(workload.LUBMConfig{Universities: scale})
		st := store.FromGraph(ds.Graph)
		d, err := fragment.BuildWith(st, partition.Hash{}, benchSites)
		if err != nil {
			b.Fatal(err)
		}
		eng := engine.New(d)
		for _, bq := range ds.Queries {
			q, err := bq.Parse(ds.Graph.Dict)
			if err != nil {
				b.Fatal(err)
			}
			b.Run(fmt.Sprintf("%dU/%s", scale, bq.Name), func(b *testing.B) {
				b.ReportMetric(float64(ds.Graph.Len()), "triples")
				for i := 0; i < b.N; i++ {
					if _, err := eng.Execute(q, engine.Config{Mode: engine.Full}); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkFig12 reproduces Fig. 12: gStoreD under three partitionings
// versus DREAM, S2RDF, CliqueSquare and S2X. The cloud baselines' reported
// times include their simulated job overheads, so compare the printed
// repTimeMS metric (not ns/op) against the paper's bars.
func BenchmarkFig12(b *testing.B) {
	for _, ds := range []*workload.Dataset{benchYAGO(), benchLUBM(), benchBTC()} {
		c, err := exp.RunComparison(ds, benchSites)
		if err != nil {
			b.Fatal(err)
		}
		for _, qn := range c.Queries {
			for _, sys := range c.Systems {
				cell := c.Cells[qn][sys]
				b.Run(fmt.Sprintf("%s/%s/%s", ds.Name, qn, sys), func(b *testing.B) {
					if cell.Err != nil {
						b.Skipf("system failed (paper reports such failures too): %v", cell.Err)
					}
					b.ReportMetric(float64(cell.Time.Microseconds())/1000, "repTimeMS")
				})
			}
		}
	}
}

// ---------------------------------------------------------------------------
// Micro-benchmarks of the core algorithmic components.

// BenchmarkPartialEvaluation measures local-partial-match enumeration per
// fragment (the Stage-1 cost of Tables I-III).
func BenchmarkPartialEvaluation(b *testing.B) {
	ds := benchLUBM()
	st := store.FromGraph(ds.Graph)
	d, err := fragment.BuildWith(st, partition.Hash{}, benchSites)
	if err != nil {
		b.Fatal(err)
	}
	eng := engine.New(d)
	bq, _ := ds.Query("LQ1")
	q, err := bq.Parse(ds.Graph.Dict)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Execute(q, engine.Config{Mode: engine.Basic}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAssemblyLECvsBasic contrasts Algorithm 3 with the [18] join on
// the same partial matches (the Section V claim).
func BenchmarkAssemblyLECvsBasic(b *testing.B) {
	ds := benchLUBM()
	st := store.FromGraph(ds.Graph)
	d, err := fragment.BuildWith(st, partition.Hash{}, benchSites)
	if err != nil {
		b.Fatal(err)
	}
	eng := engine.New(d)
	bq, _ := ds.Query("LQ7")
	q, err := bq.Parse(ds.Graph.Dict)
	if err != nil {
		b.Fatal(err)
	}
	for _, mode := range []engine.Mode{engine.Basic, engine.LA} {
		b.Run(mode.String(), func(b *testing.B) {
			var joins int
			for i := 0; i < b.N; i++ {
				res, err := eng.Execute(q, engine.Config{Mode: mode})
				if err != nil {
					b.Fatal(err)
				}
				joins = res.Stats.JoinAttempts
			}
			b.ReportMetric(float64(joins), "joinAttempts")
		})
	}
}

// BenchmarkStoreMatch measures the centralized matcher (the gStore role).
func BenchmarkStoreMatch(b *testing.B) {
	ds := benchLUBM()
	st := store.FromGraph(ds.Graph)
	bq, _ := ds.Query("LQ1")
	q, err := bq.Parse(ds.Graph.Dict)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st.Match(q)
	}
}

// BenchmarkSPARQLParse measures the parser.
func BenchmarkSPARQLParse(b *testing.B) {
	ds := benchLUBM()
	bq, _ := ds.Query("LQ1")
	for i := 0; i < b.N; i++ {
		if _, err := bq.Parse(ds.Graph.Dict); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPartitioners measures the three strategies on the LUBM graph.
func BenchmarkPartitioners(b *testing.B) {
	ds := benchLUBM()
	st := store.FromGraph(ds.Graph)
	for _, strat := range []partition.Strategy{partition.Hash{}, partition.SemanticHash{}, partition.Metis{}} {
		b.Run(strat.Name(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := strat.Partition(st, benchSites); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
