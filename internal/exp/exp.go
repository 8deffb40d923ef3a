// Package exp is the experiment harness: one runner per table and figure
// of the paper's evaluation (Section VIII), each producing the same rows
// or series the paper reports, rendered as aligned text tables.
//
// The per-experiment index lives in DESIGN.md; perfbench/README.md
// describes the recorded benchmark of the paper's workloads.
package exp

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"gstored/internal/baselines"
	"gstored/internal/engine"
	"gstored/internal/fragment"
	"gstored/internal/partition"
	"gstored/internal/store"
	"gstored/internal/workload"
)

// DefaultSites is the paper's cluster size.
const DefaultSites = 12

// buildEngine partitions ds with the strategy and returns an engine.
func buildEngine(ds *workload.Dataset, strat partition.Strategy, sites int) (*engine.Engine, *fragment.Distributed, error) {
	st := store.FromGraph(ds.Graph)
	d, err := fragment.BuildWith(st, strat, sites)
	if err != nil {
		return nil, nil, err
	}
	return engine.New(d), d, nil
}

func ms(d time.Duration) float64 { return float64(d.Microseconds()) / 1000.0 }
func kb(b int64) float64         { return float64(b) / 1024.0 }

// ---------------------------------------------------------------------------
// Tables I-III: evaluation of each stage.

// StageRow is one benchmark query's stage breakdown.
type StageRow struct {
	Query     string
	Shape     string
	Selective bool
	Stats     engine.Stats
	Err       error
}

// StageTable reproduces Table I/II/III for one dataset.
type StageTable struct {
	Dataset string
	Sites   int
	Rows    []StageRow
}

// RunStageTable evaluates every benchmark query of ds under the full
// system (hash partitioning, the paper's default) and collects per-stage
// statistics.
func RunStageTable(ds *workload.Dataset, sites int) (*StageTable, error) {
	eng, _, err := buildEngine(ds, partition.Hash{}, sites)
	if err != nil {
		return nil, err
	}
	t := &StageTable{Dataset: ds.Name, Sites: sites}
	for _, bq := range ds.Queries {
		q, err := bq.Parse(ds.Graph.Dict)
		if err != nil {
			return nil, err
		}
		res, err := eng.Execute(q, engine.Config{Mode: engine.Full})
		row := StageRow{Query: bq.Name, Shape: bq.Shape, Selective: bq.Selective, Err: err}
		if err == nil {
			row.Stats = res.Stats
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

// Render formats the table with the paper's column structure.
func (t *StageTable) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Evaluation of Each Stage on %s (%d sites)\n", t.Dataset, t.Sites)
	fmt.Fprintf(&b, "%-5s %-4s %-9s | %9s %9s | %9s | %9s %9s | %9s %9s | %9s | %8s %8s %8s\n",
		"Query", "Sel", "Shape",
		"CandTime", "CandKB", "LPMTime", "LECTime", "LECKB", "AsmTime", "AsmKB", "Total",
		"#LPM", "#Cross", "#Match")
	for _, r := range t.Rows {
		if r.Err != nil {
			fmt.Fprintf(&b, "%-5s ERROR: %v\n", r.Query, r.Err)
			continue
		}
		sel := ""
		if r.Selective {
			sel = "*"
		}
		s := r.Stats
		fmt.Fprintf(&b, "%-5s %-4s %-9s | %9.1f %9.1f | %9.1f | %9.1f %9.1f | %9.1f %9.1f | %9.1f | %8d %8d %8d\n",
			r.Query, sel, r.Shape,
			ms(s.CandidatesTime), kb(s.CandidatesShipment),
			ms(s.PartialTime),
			ms(s.LECTime), kb(s.LECShipment),
			ms(s.AssemblyTime), kb(s.AssemblyShipment),
			ms(s.TotalTime),
			s.NumPartialMatches, s.NumCrossingMatches, s.NumMatches)
	}
	b.WriteString("Sel * = query contains selective triple patterns (paper's checkmark column).\n")
	return b.String()
}

// ---------------------------------------------------------------------------
// Fig. 9: evaluation of the different optimizations (ablation).

// AblationCell is one (query, mode) measurement.
type AblationCell struct {
	Time     time.Duration
	Shipment int64
	Stats    engine.Stats
	Err      error
}

// Ablation reproduces Fig. 9 for one dataset: response time per non-star
// query under the four engine modes.
type Ablation struct {
	Dataset string
	Queries []string
	Modes   []engine.Mode
	Cells   map[string]map[engine.Mode]AblationCell
}

// RunAblation executes every complex benchmark query of ds under all four
// modes (star queries bypass the optimizations, as in the paper).
func RunAblation(ds *workload.Dataset, sites int) (*Ablation, error) {
	eng, _, err := buildEngine(ds, partition.Hash{}, sites)
	if err != nil {
		return nil, err
	}
	a := &Ablation{
		Dataset: ds.Name,
		Modes:   []engine.Mode{engine.Basic, engine.LA, engine.LO, engine.Full},
		Cells:   map[string]map[engine.Mode]AblationCell{},
	}
	for _, bq := range ds.Queries {
		if bq.Shape != workload.ShapeComplex {
			continue
		}
		q, err := bq.Parse(ds.Graph.Dict)
		if err != nil {
			return nil, err
		}
		a.Queries = append(a.Queries, bq.Name)
		a.Cells[bq.Name] = map[engine.Mode]AblationCell{}
		for _, mode := range a.Modes {
			res, err := eng.Execute(q, engine.Config{Mode: mode})
			cell := AblationCell{Err: err}
			if err == nil {
				cell.Time = res.Stats.TotalTime
				cell.Shipment = res.Stats.TotalShipment
				cell.Stats = res.Stats
			}
			a.Cells[bq.Name][mode] = cell
		}
	}
	return a, nil
}

// Render formats the ablation like Fig. 9's grouped bars.
func (a *Ablation) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Evaluation of Different Optimizations on %s (response time, ms)\n", a.Dataset)
	fmt.Fprintf(&b, "%-6s", "Query")
	for _, m := range a.Modes {
		fmt.Fprintf(&b, " %14s", m)
	}
	b.WriteString("\n")
	for _, qn := range a.Queries {
		fmt.Fprintf(&b, "%-6s", qn)
		for _, m := range a.Modes {
			c := a.Cells[qn][m]
			if c.Err != nil {
				fmt.Fprintf(&b, " %14s", "FAIL")
				continue
			}
			fmt.Fprintf(&b, " %14.1f", ms(c.Time))
		}
		b.WriteString("\n")
	}
	return b.String()
}

// ---------------------------------------------------------------------------
// Table IV + Fig. 10: partitioning strategies.

// PartitioningCell is one (strategy, query) measurement.
type PartitioningCell struct {
	Time        time.Duration
	LECShipment int64
	Err         error
}

// Partitionings reproduces Table IV (costs) and Fig. 10 (per-query
// evaluation under each strategy).
type Partitionings struct {
	Dataset    string
	Strategies []string
	Costs      map[string]partition.CostBreakdown
	Queries    []string
	Cells      map[string]map[string]PartitioningCell
}

// RunPartitionings evaluates hash, semantic-hash and METIS partitionings
// of ds: their Section VII costs and the full system's behaviour on the
// complex queries.
func RunPartitionings(ds *workload.Dataset, sites int) (*Partitionings, error) {
	p := &Partitionings{
		Dataset: ds.Name,
		Costs:   map[string]partition.CostBreakdown{},
		Cells:   map[string]map[string]PartitioningCell{},
	}
	st := store.FromGraph(ds.Graph)
	for _, strat := range []partition.Strategy{partition.Hash{}, partition.SemanticHash{}, partition.Metis{}} {
		p.Strategies = append(p.Strategies, strat.Name())
		a, err := strat.Partition(st, sites)
		if err != nil {
			return nil, err
		}
		p.Costs[strat.Name()] = partition.Cost(st, a)
		d, err := fragment.Build(st, a)
		if err != nil {
			return nil, err
		}
		eng := engine.New(d)
		for _, bq := range ds.Queries {
			if bq.Shape != workload.ShapeComplex {
				continue
			}
			q, err := bq.Parse(ds.Graph.Dict)
			if err != nil {
				return nil, err
			}
			if p.Cells[bq.Name] == nil {
				p.Cells[bq.Name] = map[string]PartitioningCell{}
				p.Queries = append(p.Queries, bq.Name)
			}
			res, err := eng.Execute(q, engine.Config{Mode: engine.Full})
			cell := PartitioningCell{Err: err}
			if err == nil {
				cell.Time = res.Stats.TotalTime
				cell.LECShipment = res.Stats.LECShipment
			}
			p.Cells[bq.Name][strat.Name()] = cell
		}
	}
	sort.Strings(p.Queries)
	return p, nil
}

// RenderCosts formats the Table IV rows.
func (p *Partitionings) RenderCosts() string {
	var b strings.Builder
	fmt.Fprintf(&b, "CostPartitioning on %s\n", p.Dataset)
	for _, s := range p.Strategies {
		c := p.Costs[s]
		fmt.Fprintf(&b, "%-14s cost=%.3g  E_F(V)=%.3g  maxFragEdges=%d  crossing=%d\n",
			s, c.Cost, c.EV, c.MaxFragmentEdges, c.NumCrossing)
	}
	return b.String()
}

// Render formats the Fig. 10 series.
func (p *Partitionings) Render() string {
	var b strings.Builder
	b.WriteString(p.RenderCosts())
	fmt.Fprintf(&b, "Evaluation under each partitioning (time ms / LEC shipment KB)\n%-6s", "Query")
	for _, s := range p.Strategies {
		fmt.Fprintf(&b, " %22s", s)
	}
	b.WriteString("\n")
	for _, qn := range p.Queries {
		fmt.Fprintf(&b, "%-6s", qn)
		for _, s := range p.Strategies {
			c := p.Cells[qn][s]
			if c.Err != nil {
				fmt.Fprintf(&b, " %22s", "FAIL")
				continue
			}
			fmt.Fprintf(&b, " %12.1f/%9.1f", ms(c.Time), kb(c.LECShipment))
		}
		b.WriteString("\n")
	}
	return b.String()
}

// ---------------------------------------------------------------------------
// Fig. 11: scalability.

// Scalability reproduces Fig. 11: response time per query across dataset
// scales.
type Scalability struct {
	Scales  []int // universities
	Triples []int
	Queries []string
	Shapes  map[string]string
	// Times[query][i] is the response time at Scales[i].
	Times map[string][]time.Duration
}

// RunScalability evaluates the LUBM benchmark at increasing scales.
func RunScalability(scales []int, sites int) (*Scalability, error) {
	s := &Scalability{Scales: scales, Times: map[string][]time.Duration{}, Shapes: map[string]string{}}
	for _, sc := range scales {
		ds := workload.NewLUBM(workload.LUBMConfig{Universities: sc})
		s.Triples = append(s.Triples, ds.Graph.Len())
		eng, _, err := buildEngine(ds, partition.Hash{}, sites)
		if err != nil {
			return nil, err
		}
		for _, bq := range ds.Queries {
			q, err := bq.Parse(ds.Graph.Dict)
			if err != nil {
				return nil, err
			}
			res, err := eng.Execute(q, engine.Config{Mode: engine.Full})
			if err != nil {
				return nil, err
			}
			if _, ok := s.Times[bq.Name]; !ok {
				s.Queries = append(s.Queries, bq.Name)
				s.Shapes[bq.Name] = bq.Shape
			}
			s.Times[bq.Name] = append(s.Times[bq.Name], res.Stats.TotalTime)
		}
	}
	return s, nil
}

// Render formats the two Fig. 11 panels (star vs other queries).
func (s *Scalability) Render() string {
	var b strings.Builder
	b.WriteString("Scalability on LUBM (response time, ms)\n")
	fmt.Fprintf(&b, "%-7s", "Scale")
	for i, sc := range s.Scales {
		fmt.Fprintf(&b, " %7du(%6dt)", sc, s.Triples[i])
	}
	b.WriteString("\n")
	for _, panel := range []string{workload.ShapeStar, workload.ShapeComplex} {
		fmt.Fprintf(&b, "-- %s queries --\n", panel)
		for _, qn := range s.Queries {
			if s.Shapes[qn] != panel {
				continue
			}
			fmt.Fprintf(&b, "%-7s", qn)
			for _, d := range s.Times[qn] {
				fmt.Fprintf(&b, " %16.1f", ms(d))
			}
			b.WriteString("\n")
		}
	}
	return b.String()
}

// ---------------------------------------------------------------------------
// Fig. 12: online performance comparison.

// ComparisonCell is one (system, query) measurement.
type ComparisonCell struct {
	Time time.Duration
	Err  error
}

// Comparison reproduces Fig. 12 for one dataset: gStoreD over each
// partitioning versus DREAM, S2RDF, CliqueSquare and S2X.
type Comparison struct {
	Dataset string
	Systems []string
	Queries []string
	Cells   map[string]map[string]ComparisonCell
}

// RunComparison executes every benchmark query of ds on every system.
func RunComparison(ds *workload.Dataset, sites int) (*Comparison, error) {
	c := &Comparison{Dataset: ds.Name, Cells: map[string]map[string]ComparisonCell{}}
	st := store.FromGraph(ds.Graph)

	type sysFn struct {
		name string
		run  func(bq workload.BenchQuery) (time.Duration, error)
	}
	var systems []sysFn

	// The comparators need a deployment only for the global store.
	hashAssign, err := (partition.Hash{}).Partition(st, sites)
	if err != nil {
		return nil, err
	}
	hashDist, err := fragment.Build(st, hashAssign)
	if err != nil {
		return nil, err
	}
	for _, base := range []baselines.System{
		baselines.DREAM{Graph: hashDist},
		baselines.S2RDF{Graph: hashDist},
		baselines.CliqueSquare{Graph: hashDist},
		baselines.S2X{Graph: hashDist},
	} {
		base := base
		systems = append(systems, sysFn{name: base.Name(), run: func(bq workload.BenchQuery) (time.Duration, error) {
			q, err := bq.Parse(ds.Graph.Dict)
			if err != nil {
				return 0, err
			}
			_, stats, err := base.Execute(q)
			if err != nil {
				return 0, err
			}
			return stats.ReportedTime, nil
		}})
	}
	for _, strat := range []partition.Strategy{partition.Hash{}, partition.SemanticHash{}, partition.Metis{}} {
		d, err := fragment.BuildWith(st, strat, sites)
		if err != nil {
			return nil, err
		}
		eng := engine.New(d)
		systems = append(systems, sysFn{name: "gStoreD-" + strat.Name(), run: func(bq workload.BenchQuery) (time.Duration, error) {
			q, err := bq.Parse(ds.Graph.Dict)
			if err != nil {
				return 0, err
			}
			res, err := eng.Execute(q, engine.Config{Mode: engine.Full})
			if err != nil {
				return 0, err
			}
			return res.Stats.TotalTime, nil
		}})
	}

	for _, s := range systems {
		c.Systems = append(c.Systems, s.name)
	}
	for _, bq := range ds.Queries {
		c.Queries = append(c.Queries, bq.Name)
		c.Cells[bq.Name] = map[string]ComparisonCell{}
		for _, s := range systems {
			d, err := s.run(bq)
			c.Cells[bq.Name][s.name] = ComparisonCell{Time: d, Err: err}
		}
	}
	return c, nil
}

// Render formats the Fig. 12 panel for the dataset.
func (c *Comparison) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Online Performance Comparison on %s (reported time, ms)\n", c.Dataset)
	fmt.Fprintf(&b, "%-6s", "Query")
	for _, s := range c.Systems {
		fmt.Fprintf(&b, " %22s", s)
	}
	b.WriteString("\n")
	for _, qn := range c.Queries {
		fmt.Fprintf(&b, "%-6s", qn)
		for _, s := range c.Systems {
			cell := c.Cells[qn][s]
			if cell.Err != nil {
				fmt.Fprintf(&b, " %22s", "FAIL")
				continue
			}
			fmt.Fprintf(&b, " %22.1f", ms(cell.Time))
		}
		b.WriteString("\n")
	}
	return b.String()
}
