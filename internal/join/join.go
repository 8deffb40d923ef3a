// Package join is the one join search behind LEC pruning (Algorithm 2)
// and assembly (Algorithm 3 and the baseline join of [18]): it finds every
// connected, sign-disjoint, mapping-consistent combination of items whose
// LECSigns cover all query vertices (Theorem 4). A combination grows from
// its minimum-index member, the root, and a per-root member-set table
// drops the other orders reaching it. Everything is keyed by integers, and
// join states reuse the buffers of popped ones, so a run allocates only
// as its buffers grow.
package join

import (
	"errors"
	"slices"

	"gstored/internal/partial"
	"gstored/internal/query"
	"gstored/internal/rdf"
)

// Item is one unit of the search: a partial match, or a LEC feature whose
// Vec holds only its crossing-edge endpoints.
type Item struct {
	Sign     uint64
	Crossing []partial.CrossEdge // at most one per query edge
	Vec      []rdf.TermID        // per query vertex; rdf.NoTerm is unbound
	EdgeVars []rdf.TermID        // per query variable; may be nil
}

// Options tunes Search.
type Options struct {
	// Indexed tries only the items sharing a crossing-edge mapping with the
	// state (LEC-feature-based pruning and assembly), not every item above
	// the root (the baseline join of [18]).
	Indexed   bool
	Cancel    func() bool // polled about every 1024 join tests; true stops with ErrCanceled
	MaxStates int         // when positive, more join states stop with ErrTooManyStates
}

// Stats reports the work a search performed.
type Stats struct {
	Attempts int // pairwise join tests
	States   int // distinct join states found
}

// Errors stopping a search.
var (
	ErrCanceled      = errors.New("join: search canceled")
	ErrTooManyStates = errors.New("join: join state limit exceeded")
)

// Complete receives a combination whose signs cover all query vertices:
// its members (ascending item indices) and merged vertex and
// edge-variable bindings, all reused after the call. Returning false
// stops the search.
type Complete func(members []int32, vec, edgeVars []rdf.TermID) bool

// Search calls complete for every complete combination of items, a single
// full-sign item included. It returns nil when the search ran to the end
// or complete stopped it.
func Search(items []Item, q *query.Graph, opts Options, complete Complete) (Stats, error) {
	s := newSearcher(items, q, opts)
	err := s.run(complete)
	return s.stats, err
}

// xref is an interned crossing-edge mapping of an item: its query edge
// and the mapping's id, from 1 (0 marks an uncovered query edge).
type xref struct{ qe, id int32 }

// state is a join state: union sign, ascending members, merged row
// (vertex bindings, then edge-variable bindings) and, per query edge, the
// id of the mapping covering it.
type state struct {
	sign    uint64
	members []int32
	row     []rdf.TermID
	qmap    []int32
}

type searcher struct {
	items []Item
	opts  Options
	nv    int
	full  uint64
	xs    []xref // item i's mappings: xs[xoff[i]:xoff[i+1]]
	xoff  []int32
	byID  []int32 // items holding mapping id, ascending: byID[idOff[id]:idOff[id+1]]
	idOff []int32
	mark  []uint64
	gen   uint64 // mark[i] == gen: item i is a member or already proposed
	cand  []int32
	stack []state // DFS stack; slots past its length keep buffers for reuse
	cur   state   // the state being extended
	child []int32 // members of the join under test
	out   []rdf.TermID
	seen  memberSet
	stats Stats
	work  int // steps of work done; Cancel is next polled at poll
	poll  int
}

func newSearcher(items []Item, q *query.Graph, opts Options) *searcher {
	nv, w := len(q.Vertices), len(q.Vertices)+len(q.Vars)
	s := &searcher{
		items: items, opts: opts, nv: nv,
		full: ^uint64(0) >> (64 - uint(nv)),
		xoff: make([]int32, len(items)+1),
		mark: make([]uint64, len(items)),
		cur:  state{row: make([]rdf.TermID, w), qmap: make([]int32, len(q.Edges))},
		out:  make([]rdf.TermID, w),
	}
	// Intern the mappings, then index their holders by a counting sort.
	ids := make(map[partial.CrossEdge]int32, len(items))
	for i, it := range items {
		for _, c := range it.Crossing {
			id, ok := ids[c]
			if !ok {
				id = int32(len(ids) + 1)
				ids[c] = id
			}
			s.xs = append(s.xs, xref{int32(c.QEdge), id})
		}
		s.xoff[i+1] = int32(len(s.xs))
	}
	if opts.Indexed {
		s.idOff = make([]int32, len(ids)+2)
		for _, x := range s.xs {
			s.idOff[x.id+1]++
		}
		for id := 1; id < len(s.idOff); id++ {
			s.idOff[id] += s.idOff[id-1]
		}
		next := slices.Clone(s.idOff)
		s.byID = make([]int32, len(s.xs))
		for i := range items {
			for _, x := range s.xs[s.xoff[i]:s.xoff[i+1]] {
				s.byID[next[x.id]] = int32(i)
				next[x.id]++
			}
		}
	}
	return s
}

func (s *searcher) run(complete Complete) error {
	for root := range s.items {
		s.seen.reset()
		s.cur.sign, s.cur.members = 0, s.cur.members[:0]
		clear(s.cur.row) // rdf.NoTerm is 0
		clear(s.cur.qmap)
		s.child = append(s.child[:0], int32(root))
		if !s.join(int32(root), complete) {
			return nil
		}
		for len(s.stack) > 0 {
			n := len(s.stack) - 1
			s.cur, s.stack[n] = s.stack[n], s.cur
			s.stack = s.stack[:n]
			cands := s.candidates(root)
			if s.canceled(1 + len(cands)) {
				return ErrCanceled
			}
			for _, c := range cands {
				s.stats.Attempts++
				if !s.joinable(c) {
					continue
				}
				i, _ := slices.BinarySearch(s.cur.members, c)
				s.child = append(append(append(s.child[:0], s.cur.members[:i]...), c), s.cur.members[i:]...)
				if !s.seen.add(hashMembers(s.child), s.child) {
					continue
				}
				s.stats.States++
				if s.opts.MaxStates > 0 && s.stats.States > s.opts.MaxStates {
					return ErrTooManyStates
				}
				if !s.join(c, complete) {
					return nil
				}
			}
		}
	}
	return nil
}

// canceled counts steps of work and polls Cancel once per 1024 of them.
func (s *searcher) canceled(steps int) bool {
	if s.work += steps; s.opts.Cancel == nil || s.work < s.poll {
		return false
	}
	s.poll = s.work + 1024
	return s.opts.Cancel()
}

// join stacks the join of the current state with item c, whose members
// are in s.child, or hands it to complete when its sign is full (Theorem
// 4: any further item would overlap the sign). It reports whether the
// search goes on.
func (s *searcher) join(c int32, complete Complete) bool {
	it := &s.items[c]
	final := s.cur.sign|it.Sign == s.full
	row := s.out
	if final {
		copy(row, s.cur.row)
	} else {
		s.stack = slices.Grow(s.stack, 1)[:len(s.stack)+1] // reuses a popped slot's buffers
		st := &s.stack[len(s.stack)-1]
		st.sign = s.cur.sign | it.Sign
		st.members = append(st.members[:0], s.child...)
		st.qmap = append(st.qmap[:0], s.cur.qmap...)
		for _, x := range s.xs[s.xoff[c]:s.xoff[c+1]] {
			st.qmap[x.qe] = x.id
		}
		st.row = append(st.row[:0], s.cur.row...)
		row = st.row
	}
	for j, v := range it.Vec {
		if v != rdf.NoTerm {
			row[j] = v
		}
	}
	for j, v := range it.EdgeVars {
		if v != rdf.NoTerm {
			row[s.nv+j] = v
		}
	}
	return !final || complete(s.child, row[:s.nv], row[s.nv:])
}

// candidates proposes the items above root that are not members of the
// current state: those sharing a crossing-edge mapping with it when
// indexed, all of them otherwise.
func (s *searcher) candidates(root int) []int32 {
	s.gen++
	for _, m := range s.cur.members {
		s.mark[m] = s.gen
	}
	s.cand = s.cand[:0]
	if !s.opts.Indexed {
		for i := root + 1; i < len(s.items); i++ {
			if s.mark[i] != s.gen {
				s.cand = append(s.cand, int32(i))
			}
		}
		return s.cand
	}
	for _, id := range s.cur.qmap {
		if id == 0 {
			continue
		}
		holders := s.byID[s.idOff[id]:s.idOff[id+1]]
		lo, _ := slices.BinarySearch(holders, int32(root+1))
		for _, i := range holders[lo:] {
			if s.mark[i] != s.gen {
				s.mark[i] = s.gen
				s.cand = append(s.cand, i)
			}
		}
	}
	return s.cand
}

// joinable applies the join conditions of Definition 9 and [18] to the
// current state and item c: disjoint LECSigns, a shared crossing-edge
// mapping, no query edge covered by two mappings, and agreement wherever
// both bind a vertex or edge variable.
func (s *searcher) joinable(c int32) bool {
	it := &s.items[c]
	if s.cur.sign&it.Sign != 0 {
		return false
	}
	shared := false
	for _, x := range s.xs[s.xoff[c]:s.xoff[c+1]] {
		switch s.cur.qmap[x.qe] {
		case 0:
		case x.id:
			shared = true
		default:
			return false
		}
	}
	return shared && agree(s.cur.row, it.Vec) && agree(s.cur.row[s.nv:], it.EdgeVars)
}

// agree reports whether row and binds agree wherever both are bound.
func agree(row, binds []rdf.TermID) bool {
	for j, v := range binds {
		if v != rdf.NoTerm && row[j] != rdf.NoTerm && row[j] != v {
			return false
		}
	}
	return true
}

// memberSet deduplicates the member sets of one root by a 64-bit hash,
// checked member by member on a hash match. Entries are numbered from 1.
type memberSet struct {
	first map[uint64]int32 // hash -> newest entry with that hash
	next  []int32          // entry k: next[k-1] is the next older one with its hash
	off   []int32          // entry k: members mem[off[k-1]:off[k]]
	mem   []int32
}

func (m *memberSet) reset() {
	// A large map is dropped rather than cleared: clear costs its capacity.
	if len(m.first) > 1024 || m.first == nil {
		m.first = make(map[uint64]int32)
	}
	clear(m.first)
	m.next, m.off, m.mem = m.next[:0], append(m.off[:0], 0), m.mem[:0]
}

func hashMembers(members []int32) uint64 {
	h := uint64(len(members))
	for _, x := range members {
		h = (h ^ uint64(x)) * 0x9e3779b97f4a7c15
		h ^= h >> 29
	}
	return h
}

// add inserts members under their hash h, reporting whether they were
// absent.
func (m *memberSet) add(h uint64, members []int32) bool {
	for e := m.first[h]; e > 0; e = m.next[e-1] {
		if slices.Equal(m.mem[m.off[e-1]:m.off[e]], members) {
			return false
		}
	}
	m.next = append(m.next, m.first[h])
	m.first[h] = int32(len(m.next))
	m.mem = append(m.mem, members...)
	m.off = append(m.off, int32(len(m.mem)))
	return true
}
