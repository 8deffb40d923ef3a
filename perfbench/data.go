package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"strings"

	"gstored"
	"gstored/internal/server"
	"gstored/internal/workload"
)

const (
	ub     = "http://swat.cse.lehigh.edu/onto/univ-bench.owl#"
	prefix = "PREFIX ub: <" + ub + ">\n"
	// notePred prefixes the predicates benchmark writes use; no read
	// touches them.
	notePred = "http://perfbench.example/note"
)

// lubm generates the LUBM dataset with the generator's own seed: the
// data of a workload is fixed, and the run seed drives only its load
// (query order, constants, arrival times, write batches), so runs on
// different seeds measure the same work.
func lubm(universities int) *workload.Dataset {
	return workload.NewLUBM(workload.LUBMConfig{Universities: universities})
}

// op is one read of a workload: a query text with its template name
// and selectivity class.
type op struct {
	name, class, text string
}

// LUBM query templates. Constants pick universities of the generated
// graph; every instance keeps its template's shape.

// lq3 is empty by construction: no full professor holds a doctorate
// from the university they work at.
func lq3(u int) op {
	univ := workload.LubmUniversityURI(u)
	return op{"LQ3t", selective, prefix + "SELECT ?x ?d WHERE { ?x ub:doctoralDegreeFrom <" + univ + "> . ?x ub:worksFor ?d . ?d ub:subOrganizationOf <" + univ + "> }"}
}

// lq6 asks for the students of university b with an undergraduate
// degree from one of the universities the generator links b to, so
// every instance has answers.
func lq6(b, universities int) op {
	a := (b + 1 + 2*(b%4)) % universities
	return op{"LQ6t", selective, prefix + "SELECT ?x ?d WHERE { ?x ub:undergraduateDegreeFrom <" + workload.LubmUniversityURI(a) + "> . ?x ub:memberOf ?d . ?d ub:subOrganizationOf <" + workload.LubmUniversityURI(b) + "> }"}
}

// benchOp returns the named query of a generated dataset as an op.
func benchOp(ds *workload.Dataset, name string) (op, error) {
	bq, err := ds.Query(name)
	if err != nil {
		return op{}, err
	}
	class := unselective
	if bq.Selective {
		class = selective
	}
	return op{name, class, bq.SPARQL}, nil
}

// expected is the oracle's answer to one query text.
type expected struct {
	res  *gstored.Result
	json []byte // the SPARQL JSON document the server must send
}

// oracle answers queries with a width-1 in-process engine: sequential
// evaluation and ordered delivery, the repository's reference
// semantics.
type oracle struct {
	db   *gstored.DB
	want map[string]*expected
}

func newOracle(g *gstored.Graph) (*oracle, error) {
	db, err := gstored.Open(g, gstored.Config{EvalWorkers: 1})
	if err != nil {
		return nil, fmt.Errorf("open oracle: %w", err)
	}
	return &oracle{db: db, want: map[string]*expected{}}, nil
}

// answer computes (once) the expected answer of text.
func (o *oracle) answer(text string) (*expected, error) {
	if e, ok := o.want[text]; ok {
		return e, nil
	}
	if o.db == nil {
		return nil, fmt.Errorf("oracle: no answer for %q", text)
	}
	q, err := o.db.ParseReadOnly(text)
	if err != nil {
		return nil, fmt.Errorf("oracle parse: %w", err)
	}
	res, err := o.db.QueryGraphContext(context.Background(), q)
	if err != nil {
		return nil, fmt.Errorf("oracle query: %w", err)
	}
	var buf bytes.Buffer
	if err := server.WriteResultsJSON(&buf, o.db.Graph.Dict, columns(o.db, q), res.EachProjected); err != nil {
		return nil, err
	}
	e := &expected{res: res, json: buf.Bytes()}
	o.want[text] = e
	return e, nil
}

// release drops the oracle's database once every answer is computed,
// so its indexes do not weigh on the measured process's heap.
func (o *oracle) release() { o.db = nil }

// columns are the projected variable names as the server writes them.
func columns(db *gstored.DB, q *gstored.QueryGraph) []string {
	var vars []string
	for _, c := range db.Columns(q) {
		vars = append(vars, strings.TrimPrefix(c, "?"))
	}
	return vars
}

func sameRows(a, b []gstored.Row) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				return false
			}
		}
	}
	return true
}

// writeBatch is a fixed-size set of triples attached to existing LUBM
// students on a predicate no read uses.
type writeBatch struct {
	pred     string
	subjects []string
	objects  []string
}

func newWriteBatch(rng *rand.Rand, client, size, universities int) writeBatch {
	b := writeBatch{pred: fmt.Sprintf("%s%d", notePred, client)}
	for j := 0; j < size; j++ {
		s := fmt.Sprintf("http://www.Department%d.University%d.edu/UndergraduateStudent%d", rng.Intn(3), rng.Intn(universities), rng.Intn(20))
		b.subjects = append(b.subjects, s)
		b.objects = append(b.objects, fmt.Sprintf("w%d-%d", client, j))
	}
	return b
}

func (b writeBatch) text(verb string) string {
	var sb strings.Builder
	sb.WriteString(verb + " DATA {\n")
	for j, s := range b.subjects {
		fmt.Fprintf(&sb, "<%s> <%s> %q .\n", s, b.pred, b.objects[j])
	}
	sb.WriteString("}")
	return sb.String()
}

// readback is the query that lists the batch predicate's triples.
func (b writeBatch) readback() string {
	return "SELECT ?s ?o WHERE { ?s <" + b.pred + "> ?o }"
}

// pairs is the batch as "subject object" strings, the form readbacks
// are compared in.
func (b writeBatch) pairs() map[string]bool {
	m := map[string]bool{}
	for j, s := range b.subjects {
		m[s+" "+b.objects[j]] = true
	}
	return m
}
