// Package lec implements the paper's central contribution: local partial
// match equivalence classes (Definitions 6-7), their compact LEC features
// (Definition 8, Algorithm 1), LECSign groups and the join graph
// (Definition 10), and the LEC-feature-based pruning of irrelevant partial
// matches (Definition 9, Theorem 4, Algorithm 2).
package lec

import (
	"encoding/binary"
	"errors"
	"sort"

	"gstored/internal/join"
	"gstored/internal/partial"
	"gstored/internal/query"
	"gstored/internal/rdf"
)

// Feature is a LEC feature LF([PM]) = {F, g, LECSign}: the fragment
// identifier, the mapping from crossing edges to query edges, and the
// bitstring marking internally matched query vertices.
type Feature struct {
	Frag int
	// Mappings is the function g, sorted like partial.Match.Crossing.
	Mappings []partial.CrossEdge
	Sign     uint64
	// PMs indexes the partial matches belonging to this equivalence class
	// (positions into the slice passed to Compute).
	PMs []int
}

// EstimateBytes approximates the wire size of the feature for data-shipment
// accounting: fragment id + 16 bytes per mapping + the LECSign bitstring
// (Section IV-D: O(|E_Q| + |V_Q|) per feature).
func (f *Feature) EstimateBytes(numQueryVertices int) int {
	return 4 + 16*len(f.Mappings) + (numQueryVertices+7)/8
}

// Compute runs Algorithm 1: a linear scan grouping partial matches into
// equivalence classes keyed by (fragment, g) in binary (the sign is
// implied, Theorem 1). Features are returned in first-seen order;
// FeatureOf[i] gives the feature index of pms[i].
func Compute(pms []*partial.Match) (features []*Feature, featureOf []int) {
	index := make(map[string]int)
	featureOf = make([]int, len(pms))
	var key []byte
	for i, pm := range pms {
		key = partial.AppendCrossing(binary.LittleEndian.AppendUint32(key[:0], uint32(pm.Frag)), pm.Crossing)
		fi, ok := index[string(key)]
		if !ok {
			fi = len(features)
			index[string(key)] = fi
			features = append(features, &Feature{Frag: pm.Frag, Mappings: pm.Crossing, Sign: pm.Sign})
		}
		features[fi].PMs = append(features[fi].PMs, i)
		featureOf[i] = fi
	}
	return features, featureOf
}

// Joinable implements Definition 9 on two original (un-joined) features:
// different fragments, at least one shared crossing-edge mapping, no query
// edge mapped to two different crossing edges, and disjoint LECSigns.
func Joinable(a, b *Feature) bool {
	if a.Frag == b.Frag {
		return false
	}
	if a.Sign&b.Sign != 0 {
		return false
	}
	shared := false
	for _, ma := range a.Mappings {
		for _, mb := range b.Mappings {
			if ma.QEdge != mb.QEdge {
				continue
			}
			if ma == mb {
				shared = true
			} else {
				return false // same query edge, different crossing edge
			}
		}
	}
	return shared
}

// Group is a LEC feature group (Definition 10): features sharing a LECSign.
// Theorem 5: two features with equal signs are never joinable, so joins
// only happen across groups.
type Group struct {
	Sign     uint64
	Features []int // indices into the feature slice
}

// GroupBySign partitions features into LECSign groups, ordered by
// ascending sign.
func GroupBySign(features []*Feature) []Group {
	bySign := make(map[uint64]*Group)
	for i, f := range features {
		g, ok := bySign[f.Sign]
		if !ok {
			g = &Group{Sign: f.Sign}
			bySign[f.Sign] = g
		}
		g.Features = append(g.Features, i)
	}
	out := make([]Group, 0, len(bySign))
	for _, g := range bySign {
		out = append(out, *g)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Sign < out[j].Sign })
	return out
}

// JoinGraph builds the group-level join graph: vertices are groups, with
// an edge when some pair of their features is joinable. Returned as an
// adjacency matrix.
func JoinGraph(features []*Feature, groups []Group) [][]bool {
	n := len(groups)
	adj := make([][]bool, n)
	for i := range adj {
		adj[i] = make([]bool, n)
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if groupsJoinable(features, groups[i], groups[j]) {
				adj[i][j], adj[j][i] = true, true
			}
		}
	}
	return adj
}

func groupsJoinable(features []*Feature, a, b Group) bool {
	for _, fi := range a.Features {
		for _, fj := range b.Features {
			if Joinable(features[fi], features[fj]) {
				return true
			}
		}
	}
	return false
}

// PruneResult reports the outcome of Prune.
type PruneResult struct {
	// Retained[i] is true when features[i] can contribute to a complete
	// match (the set RS of Algorithm 2, provenance-precise).
	Retained []bool
	// States counts the join states explored.
	States int
	// Overflowed reports that the state cap was hit and pruning degraded
	// to retaining everything (safe, just not effective).
	Overflowed bool
}

// maxPruneStates caps the feature-join state space; beyond it Prune keeps
// every feature (conservative).
const maxPruneStates = 1 << 20

// Prune is PruneWith without cancellation.
func Prune(features []*Feature, q *query.Graph) PruneResult {
	res, _ := PruneWith(features, q, nil) // fails only on cancel
	return res
}

// PruneWith implements Algorithm 2 with the join search of package join:
// every connected, sign-disjoint, mapping-consistent combination of
// features is grown from its minimum-index member; when a combination's
// signs union to all-ones (Theorem 4), its members are retained. Partial
// matches whose features are not retained can be discarded before
// shipment (Theorem 3/4 guarantee no final match is lost).
//
// Each feature joins with a vector binding only its crossing-edge
// endpoints (one partial match's mappings always agree), so beyond
// Definition 9 the search also checks endpoint consistency: two mappings
// binding one query vertex to different data vertices cannot coexist in a
// match. That is strictly better pruning and remains safe, see DESIGN.md
// fidelity note 1.
//
// cancel, when non-nil, is polled periodically; once it returns true,
// PruneWith returns join.ErrCanceled and no Retained vector, since a
// partial verdict would drop features a later root still retains.
func PruneWith(features []*Feature, q *query.Graph, cancel func() bool) (PruneResult, error) {
	nv := len(q.Vertices)
	vecs := make([]rdf.TermID, len(features)*nv)
	items := make([]join.Item, len(features))
	for i, f := range features {
		vec := vecs[i*nv : (i+1)*nv]
		for _, m := range f.Mappings {
			e := q.Edges[m.QEdge]
			vec[e.From], vec[e.To] = m.S, m.O
		}
		items[i] = join.Item{Sign: f.Sign, Crossing: f.Mappings, Vec: vec}
	}
	res := PruneResult{Retained: make([]bool, len(features))}
	st, err := join.Search(items, q, join.Options{Indexed: true, Cancel: cancel, MaxStates: maxPruneStates},
		func(members []int32, _, _ []rdf.TermID) bool {
			for _, m := range members {
				res.Retained[m] = true
			}
			return true
		})
	res.States = st.States
	if errors.Is(err, join.ErrTooManyStates) {
		res.Overflowed = true
		for i := range res.Retained {
			res.Retained[i] = true
		}
	} else if err != nil {
		return PruneResult{States: st.States}, err
	}
	return res, nil
}
