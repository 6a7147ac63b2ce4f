package sql

import (
	"strings"
	"testing"

	"divlaws/internal/datagen"
	"divlaws/internal/plan"
)

const explainQ1 = `SELECT s#, color
FROM supplies AS s DIVIDE BY parts AS p ON s.p# = p.p#`

func explainDB() *DB {
	supplies, parts := datagen.SuppliersParts{
		Suppliers: 25, Parts: 15, Colors: 3, AvgSupplied: 7, Seed: 1,
	}.Generate()
	db := NewDB()
	db.Register("supplies", supplies)
	db.Register("parts", parts)
	return db
}

func TestExplainParallelShowsPartitioning(t *testing.T) {
	db := explainDB()
	ex, err := db.Explain(explainQ1, ExplainOptions{
		Optimize: true, AllowDataDependent: true,
		Workers: 4, ParallelThreshold: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(ex.Report, "ParallelGreatDivide[") {
		t.Errorf("report lacks parallel operator:\n%s", ex.Report)
	}
	if !strings.Contains(ex.Report, "partitioning: hash(") {
		t.Errorf("report lacks partitioning line:\n%s", ex.Report)
	}
	if !strings.Contains(ex.Report, "workers=4") {
		t.Errorf("report lacks worker count:\n%s", ex.Report)
	}

	// The parallelized plan must return the same rows as the plain
	// query path.
	want, err := db.Query(explainQ1)
	if err != nil {
		t.Fatal(err)
	}
	if got := plan.Eval(ex.Plan); !got.EquivalentTo(want) {
		t.Errorf("parallel plan returned %d rows, want %d", got.Len(), want.Len())
	}
}

func TestExplainSequentialHasNoPartitioning(t *testing.T) {
	db := explainDB()
	ex, err := db.Explain(explainQ1, ExplainOptions{Optimize: true, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(ex.Report, "partitioning:") {
		t.Errorf("sequential explain mentions partitioning:\n%s", ex.Report)
	}
	if !strings.Contains(ex.Report, "-- logical plan --") {
		t.Errorf("report lacks logical plan section:\n%s", ex.Report)
	}
}

func TestExplainJoinUnderDivision(t *testing.T) {
	// A derived-table join feeding a division: the report must show
	// the join (a filtered product) below and the division above.
	db := explainDB()
	q := `SELECT j.s#
FROM (SELECT s1.s#, s1.p# FROM supplies AS s1, parts AS p1 WHERE s1.p# = p1.p#) AS j
DIVIDE BY parts AS p ON j.p# = p.p#`
	ex, err := db.Explain(q, ExplainOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, op := range []string{"Product", "Select[", "GreatDivide"} {
		if !strings.Contains(ex.Report, op) {
			t.Fatalf("plan lacks the expected %s operator:\n%s", op, ex.Report)
		}
	}

	// The explained plan must return the right rows.
	want, err := db.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if got := plan.Eval(ex.Plan); !got.EquivalentTo(want) {
		t.Errorf("explained plan returned %d rows, want %d", got.Len(), want.Len())
	}
}

func TestExplainParallelizeOnly(t *testing.T) {
	db := explainDB()
	ex, err := db.Explain(explainQ1, ExplainOptions{Workers: 2, ParallelThreshold: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Without Optimize the law rules must not fire, but the
	// parallelization pass still must.
	for _, line := range strings.Split(ex.Report, "\n") {
		if strings.Contains(line, "applied") && !strings.Contains(line, "Parallelize") {
			t.Errorf("law rule fired without Optimize: %s", line)
		}
	}
	if !strings.Contains(ex.Report, "Parallelize(Law 2/c2") {
		t.Errorf("parallelize pass did not fire:\n%s", ex.Report)
	}
}
