// Package assembly joins local partial matches into complete crossing
// matches (Section V) with the join search of package join, in one of two
// ways with identical results:
//
//   - LEC: Algorithm 3 — candidate join partners are found through a
//     crossing-edge index.
//   - Basic: the partitioning-based join of Peng et al. [18] that the
//     paper's gStoreD-Basic ablation uses — partners are discovered by
//     scanning all partial matches and testing joinability pairwise.
//
// Joins always re-check serialization-vector compatibility, as required by
// the join conditions of [18] (see DESIGN.md fidelity note 1).
package assembly

import (
	"cmp"
	"slices"

	"gstored/internal/join"
	"gstored/internal/partial"
	"gstored/internal/query"
	"gstored/internal/rdf"
)

// Result is one complete crossing match: a fully bound vector plus edge
// variable bindings.
type Result struct {
	Vec      []rdf.TermID
	EdgeVars []rdf.TermID
}

// Key canonically identifies the result row (binary: 4 bytes per vector
// slot, then per edge-variable slot).
func (r Result) Key() string {
	return string(partial.AppendTerms(partial.AppendTerms(nil, r.Vec), r.EdgeVars))
}

// Stats reports work performed by an assembly run.
type Stats struct {
	JoinAttempts int // pairwise compatibility tests
	States       int // intermediate join states materialized
	Results      int // complete matches (after dedup)
}

// Options tunes Assemble.
type Options struct {
	// UseLEC selects the LEC-feature-based Algorithm 3 over the baseline
	// join of [18].
	UseLEC bool
	// Cancel, when non-nil, is polled periodically; returning true
	// abandons the assembly, returning nil results (the partial stats
	// still reflect the work done before cancellation).
	Cancel func() bool
	// Emit, when non-nil, receives each complete crossing match as it is
	// discovered (deduplicated, in discovery order) instead of the match
	// being accumulated; Assemble then returns nil results and callers
	// own whatever Emit built. Returning false stops the assembly early.
	// Stats.Results still counts the emitted matches.
	Emit func(Result) bool
}

// LEC assembles pms with the LEC-feature-based Algorithm 3.
func LEC(pms []*partial.Match, q *query.Graph) ([]Result, Stats) {
	return Assemble(pms, q, Options{UseLEC: true})
}

// Basic assembles pms with the baseline join of [18].
func Basic(pms []*partial.Match, q *query.Graph) ([]Result, Stats) {
	return Assemble(pms, q, Options{})
}

// Assemble joins the partial matches into complete crossing matches,
// sorted by Vec then EdgeVars unless Emit takes them.
func Assemble(pms []*partial.Match, q *query.Graph, opts Options) ([]Result, Stats) {
	var stats Stats
	items := make([]join.Item, len(pms))
	for i, pm := range pms {
		items[i] = join.Item{Sign: pm.Sign, Crossing: pm.Crossing, Vec: pm.Vec, EdgeVars: pm.EdgeVars}
	}
	// Complete matches are deduplicated by row key: distinct member sets
	// can assemble into identical rows.
	seen := make(map[string]bool)
	var key []byte
	var out []Result
	js, err := join.Search(items, q, join.Options{Indexed: opts.UseLEC, Cancel: opts.Cancel}, func(_ []int32, vec, edgeVars []rdf.TermID) bool {
		key = partial.AppendTerms(partial.AppendTerms(key[:0], vec), edgeVars)
		if seen[string(key)] {
			return true
		}
		seen[string(key)] = true
		row := append(append(make([]rdf.TermID, 0, len(vec)+len(edgeVars)), vec...), edgeVars...)
		r := Result{Vec: row[:len(vec):len(vec)], EdgeVars: row[len(vec):]}
		stats.Results++
		if opts.Emit != nil {
			return opts.Emit(r)
		}
		out = append(out, r)
		return true
	})
	stats.JoinAttempts, stats.States = js.Attempts, js.States
	if err != nil || opts.Emit != nil {
		return nil, stats
	}
	slices.SortFunc(out, func(a, b Result) int {
		return cmp.Or(slices.Compare(a.Vec, b.Vec), slices.Compare(a.EdgeVars, b.EdgeVars))
	})
	return out, stats
}

// GroupBySign builds the LEC-feature-based local partial match groups of
// Definition 11 (used for reporting and by tests; the assembly itself
// enforces sign disjointness per join, which subsumes Theorem 5's
// same-group-never-joins rule).
func GroupBySign(pms []*partial.Match) map[uint64][]int {
	groups := make(map[uint64][]int)
	for i, pm := range pms {
		groups[pm.Sign] = append(groups[pm.Sign], i)
	}
	return groups
}
