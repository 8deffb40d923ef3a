package join

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"gstored/internal/fragment"
	"gstored/internal/paperexample"
	"gstored/internal/partial"
	"gstored/internal/rdf"
)

// TestMemberSetKeyProperty: within one root, add reports a member set as
// new exactly when no equal set was added before — under the real hash
// and under a hash folded to four values, which forces every lookup
// through the member-by-member collision check.
func TestMemberSetKeyProperty(t *testing.T) {
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		var m memberSet
		for _, fold := range []bool{false, true} {
			for root := 0; root < 3; root++ {
				m.reset()
				ref := map[string]bool{}
				for i := 0; i < 300; i++ {
					set := randomSet(r)
					key := fmt.Sprint(set)
					h := hashMembers(set)
					if fold {
						h &= 3
					}
					if m.add(h, set) == ref[key] {
						return false
					}
					ref[key] = true
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// randomSet draws an ascending set of 1–4 members below 12, so draws
// repeat often.
func randomSet(r *rand.Rand) []int32 {
	var set []int32
	for _, m := range r.Perm(12)[:1+r.Intn(4)] {
		set = append(set, int32(m))
	}
	slices.Sort(set)
	return set
}

// paperItems returns the running example's eight partial matches as join
// items.
func paperItems(t testing.TB) (*paperexample.Example, []Item) {
	t.Helper()
	ex := paperexample.New()
	d, err := fragment.Build(ex.Store, ex.Assignment)
	if err != nil {
		t.Fatal(err)
	}
	var items []Item
	for _, f := range d.Fragments {
		ms, err := partial.Compute(f, ex.Query, partial.Options{})
		if err != nil {
			t.Fatal(err)
		}
		for _, pm := range ms {
			items = append(items, Item{Sign: pm.Sign, Crossing: pm.Crossing, Vec: pm.Vec, EdgeVars: pm.EdgeVars})
		}
	}
	return ex, items
}

// TestSearchPaperExample: indexed and scan candidates find the same four
// complete rows of the running example; the index tries fewer joins.
func TestSearchPaperExample(t *testing.T) {
	ex, items := paperItems(t)
	var stats [2]Stats
	for i, indexed := range []bool{true, false} {
		rows := map[string]bool{}
		st, err := Search(items, ex.Query, Options{Indexed: indexed}, func(_ []int32, vec, _ []rdf.TermID) bool {
			rows[fmt.Sprint(vec)] = true
			return true
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(rows) != len(paperexample.ExpectedCrossingMatches) {
			t.Errorf("indexed=%v: %d distinct rows, want %d", indexed, len(rows), len(paperexample.ExpectedCrossingMatches))
		}
		stats[i] = st
	}
	if stats[0].Attempts >= stats[1].Attempts {
		t.Errorf("indexed attempts %d not below scan attempts %d", stats[0].Attempts, stats[1].Attempts)
	}
}

func TestSearchCancelAndStateCap(t *testing.T) {
	ex, items := paperItems(t)
	keep := func([]int32, []rdf.TermID, []rdf.TermID) bool { return true }
	if _, err := Search(items, ex.Query, Options{Indexed: true, Cancel: func() bool { return true }}, keep); !errors.Is(err, ErrCanceled) {
		t.Errorf("canceled search: err = %v, want ErrCanceled", err)
	}
	st, err := Search(items, ex.Query, Options{Indexed: true, MaxStates: 1}, keep)
	if !errors.Is(err, ErrTooManyStates) || st.States != 2 {
		t.Errorf("capped search: err = %v, states = %d; want ErrTooManyStates after 2", err, st.States)
	}
	calls := 0
	if _, err := Search(items, ex.Query, Options{Indexed: true}, func([]int32, []rdf.TermID, []rdf.TermID) bool {
		calls++
		return false
	}); err != nil || calls != 1 {
		t.Errorf("stopped search: err = %v after %d calls, want nil after 1", err, calls)
	}
}
