package sql

import (
	"context"
	"math/rand"
	"strings"
	"testing"

	"divlaws/internal/exec"
	"divlaws/internal/plan"
)

// The decorrelated plan, run by the engine, must return exactly what
// nested iteration returns — on every undetected shape, the paper's
// two NOT EXISTS patterns bound without detection, and the corners of
// the binding rules — over the random databases of the detector test.
func TestDecorrelationMatchesNestedIteration(t *testing.T) {
	texts := append([]string{
		// The float inequality of TestCorrelatedQueryOverFloats.
		`SELECT id FROM m AS outer_m WHERE EXISTS (
            SELECT * FROM m AS inner_m WHERE inner_m.score > outer_m.score)`,
		// Uncorrelated, reusing the outer alias: the inner s1 shadows.
		`SELECT s#, p# FROM supplies AS s1 WHERE EXISTS (
            SELECT * FROM parts AS s1 WHERE s1.color = 0)`,
		// EXISTS under OR, and under NOT (…).
		`SELECT s#, p# FROM supplies AS s1 WHERE s1.p# = 2 OR EXISTS (
            SELECT * FROM parts AS p WHERE p.p# = s1.p# AND p.color = 1)`,
		`SELECT s#, p# FROM supplies AS s1 WHERE NOT (s1.s# = 1 AND EXISTS (
            SELECT * FROM parts AS p WHERE p.p# = s1.p# AND p.color <> 2))`,
		// LIMIT 0 inside a NOT EXISTS, at one and at two levels.
		`SELECT DISTINCT s# FROM supplies AS s1 WHERE NOT EXISTS (
            SELECT * FROM parts AS p WHERE p.p# = s1.p# LIMIT 0)`,
		`SELECT DISTINCT s#, color FROM supplies AS s1, parts AS p1 WHERE NOT EXISTS (
            SELECT * FROM parts AS p2 WHERE p2.color = p1.color AND NOT EXISTS (
              SELECT * FROM supplies AS s2 WHERE s2.p# = p2.p# AND s2.s# = s1.s#) LIMIT 0)`,
		// A positive LIMIT, DISTINCT, a select list and ORDER BY inside
		// the subquery change nothing.
		`SELECT s# FROM supplies AS s1 WHERE EXISTS (
            SELECT DISTINCT color FROM parts AS p WHERE p.p# = s1.p# ORDER BY color LIMIT 1)`,
		// Q2 as NOT EXISTS, and Q3, with detection off.
		`SELECT DISTINCT s# FROM supplies AS s1 WHERE NOT EXISTS (
            SELECT * FROM parts AS p2 WHERE p2.color = 1 AND NOT EXISTS (
              SELECT * FROM supplies AS s2 WHERE s2.p# = p2.p# AND s2.s# = s1.s#))`,
		queryQ3,
	}, undetected...)
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 10; trial++ {
		db := randomSuppliersDB(rng)
		for _, text := range texts {
			q, err := Parse(text)
			if err != nil {
				t.Fatal(err)
			}
			want := db.nestedQuery(t, q)
			node, err := db.Bind(q)
			if err != nil {
				t.Fatalf("%s: %v", text, err)
			}
			got, err := exec.Run(context.Background(), exec.Compile(node, nil))
			if err != nil {
				t.Fatalf("%s: %v", text, err)
			}
			if !got.EquivalentTo(want) {
				t.Fatalf("trial %d: %s\nengine:\n%v\nnested iteration:\n%v\nplan:\n%s",
					trial, text, got, want, plan.Format(node))
			}
		}
	}
}

// Q3 without detection is the paper's own comparison: two anti-joins
// and no predicate that runs a subquery.
func TestQ3BindsToAntiSemiJoins(t *testing.T) {
	node, err := suppliersDB().Plan(queryQ3)
	if err != nil {
		t.Fatal(err)
	}
	anti := 0
	plan.Transform(node, func(n plan.Node) plan.Node {
		switch x := n.(type) {
		case *plan.AntiSemiJoin:
			anti++
		case *plan.Select:
			if strings.Contains(x.String(), "EXISTS") {
				t.Errorf("a Select still evaluates a subquery: %s", x)
			}
		}
		return n
	})
	if anti != 2 {
		t.Errorf("%d AntiSemiJoin nodes, want 2:\n%s", anti, plan.Format(node))
	}
}

// Every subquery shape the decorrelation does not cover is a bind
// error: the failure happens at Plan, never while the query runs.
func TestCorrelatedSubqueryBindErrors(t *testing.T) {
	db := suppliersDB()
	for _, text := range []string{
		// Unknown columns, at one and at two levels.
		`SELECT s# FROM supplies AS s1 WHERE EXISTS (
            SELECT * FROM parts AS p WHERE p.nosuch = s1.p#)`,
		`SELECT s# FROM supplies AS s1 WHERE NOT EXISTS (
            SELECT * FROM parts AS p WHERE NOT EXISTS (
              SELECT * FROM supplies AS s2 WHERE s2.p# = p.p# AND s2.s# = s9.s#))`,
		// Unknown table.
		`SELECT s# FROM supplies AS s1 WHERE EXISTS (SELECT * FROM nosuch AS n)`,
		// Correlated GROUP BY, HAVING and aggregate.
		`SELECT s# FROM supplies AS s1 WHERE EXISTS (
            SELECT color FROM parts AS p WHERE p.p# = s1.p# GROUP BY color)`,
		`SELECT s# FROM supplies AS s1 WHERE EXISTS (
            SELECT color FROM parts AS p GROUP BY color HAVING color = s1.p#)`,
		`SELECT s# FROM supplies AS s1 WHERE EXISTS (
            SELECT count(*) FROM parts AS p WHERE p.p# = s1.p#)`,
		// A correlated derived table.
		`SELECT s# FROM supplies AS s1 WHERE EXISTS (
            SELECT * FROM (SELECT p# FROM parts AS p WHERE p.p# = s1.p#) AS d)`,
		// EXISTS inside DIVIDE BY … ON.
		`SELECT s# FROM supplies AS s DIVIDE BY parts AS p
            ON s.p# = p.p# AND EXISTS (SELECT * FROM parts AS q)`,
		// A column ambiguous in the subquery's own FROM, though the
		// outer query would bind it.
		`SELECT p# FROM parts AS p1 WHERE EXISTS (
            SELECT * FROM supplies AS a, supplies AS b WHERE p# = 'p1')`,
	} {
		if _, err := db.Plan(text); err == nil {
			t.Errorf("Plan(%s) should fail", text)
		}
	}
}

// An uncorrelated aggregate subquery binds whole: a global count is
// one row even over an empty input, so EXISTS holds.
func TestUncorrelatedAggregateSubquery(t *testing.T) {
	db := suppliersDB()
	got, err := db.Query(`SELECT p# FROM parts WHERE EXISTS (
        SELECT count(*) FROM supplies AS s WHERE s.s# = 'nobody')`)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 5 {
		t.Errorf("%d parts, want all 5", got.Len())
	}
}
