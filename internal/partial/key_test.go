package partial

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"gstored/internal/rdf"
)

// decodeMatch builds a match of a query with nv vertices and ne variables
// from src, read cyclically. Values come from tiny ranges so that two
// decoded matches often agree on some fields and differ on others.
func decodeMatch(src []byte, nv, ne int) *Match {
	i := 0
	next := func(n int) int {
		if len(src) == 0 {
			return 0
		}
		b := int(src[i%len(src)])
		i++
		return b % n
	}
	m := &Match{Frag: next(3), MatchedEdges: uint64(next(4))}
	for j := 0; j < nv; j++ {
		m.Vec = append(m.Vec, rdf.TermID(next(3)))
	}
	for j := 0; j < ne; j++ {
		m.EdgeVars = append(m.EdgeVars, rdf.TermID(next(3)))
	}
	for j, n := 0, 1+next(3); j < n; j++ {
		m.Crossing = append(m.Crossing, CrossEdge{QEdge: next(3), S: rdf.TermID(next(2)), P: rdf.TermID(next(2)), O: rdf.TermID(next(2))})
	}
	return m
}

func sameMatch(a, b *Match) bool {
	return a.Frag == b.Frag && slices.Equal(a.Vec, b.Vec) && slices.Equal(a.EdgeVars, b.EdgeVars) &&
		a.MatchedEdges == b.MatchedEdges && slices.Equal(a.Crossing, b.Crossing)
}

// checkKey reports a mismatch between key equality and field equality.
func checkKey(t *testing.T, a, b *Match) {
	t.Helper()
	if (a.Key() == b.Key()) != sameMatch(a, b) {
		t.Fatalf("key equality %v but field equality %v:\n%+v\n%+v", a.Key() == b.Key(), sameMatch(a, b), a, b)
	}
}

// TestMatchKeyInjectiveProperty: two matches of one query share a Key
// exactly when Frag, Vec, EdgeVars, MatchedEdges and Crossing are all
// equal.
func TestMatchKeyInjectiveProperty(t *testing.T) {
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		nv, ne := 1+r.Intn(6), r.Intn(4)
		buf := make([]byte, 32)
		var ms []*Match
		for i := 0; i < 40; i++ {
			r.Read(buf)
			ms = append(ms, decodeMatch(buf, nv, ne))
		}
		for _, a := range ms {
			for _, b := range ms {
				if (a.Key() == b.Key()) != sameMatch(a, b) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func FuzzMatchKey(f *testing.F) {
	f.Add(uint8(4), []byte{1, 2, 0, 1}, []byte{1, 2, 0, 1})
	f.Add(uint8(9), []byte{0, 1, 2, 3, 4, 5}, []byte{0, 1, 2, 3, 4, 6})
	f.Add(uint8(23), []byte{2}, []byte{2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 1})
	f.Fuzz(func(t *testing.T, shape uint8, a, b []byte) {
		nv, ne := 1+int(shape)%6, int(shape)/6%4
		checkKey(t, decodeMatch(a, nv, ne), decodeMatch(b, nv, ne))
	})
}
