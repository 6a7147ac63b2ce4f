package sql

import (
	"fmt"
	"math/rand"
	"testing"

	"divlaws/internal/plan"
	"divlaws/internal/relation"
	"divlaws/internal/schema"
	"divlaws/internal/value"
)

func TestDetectGreatDivideOnQ3(t *testing.T) {
	db := suppliersDB()
	node, detected, err := db.PlanWithDetection(queryQ3)
	if err != nil {
		t.Fatal(err)
	}
	if !detected {
		t.Fatal("Q3 should be detected as a great divide")
	}
	if countGreatDivides(node) != 1 {
		t.Fatalf("detected plan lacks a great divide:\n%s", plan.Format(node))
	}
	// The rewritten plan must compute exactly Q3's (= Q1's) answer.
	got := plan.Eval(node)
	if !got.EquivalentTo(q1Expected()) {
		t.Errorf("detected plan = %v, want %v", got, q1Expected())
	}
}

func TestDetectSmallDivideAllBlueParts(t *testing.T) {
	db := suppliersDB()
	const q = `
SELECT DISTINCT s#
FROM supplies AS s1
WHERE NOT EXISTS (
  SELECT * FROM parts AS p2
  WHERE p2.color = 'blue' AND NOT EXISTS (
    SELECT * FROM supplies AS s2
    WHERE s2.p# = p2.p# AND s2.s# = s1.s#))`
	node, detected, err := db.PlanWithDetection(q)
	if err != nil {
		t.Fatal(err)
	}
	if !detected {
		t.Fatal("single-table pattern should be detected as a small divide")
	}
	if countSmallDivides(node) != 1 {
		t.Fatalf("detected plan lacks a small divide:\n%s", plan.Format(node))
	}
	got := plan.Eval(node)
	want := relation.FromRows(schema.New("s#"), [][]any{{"s2"}, {"s3"}})
	if !got.Equal(want) {
		t.Errorf("detected = %v, want %v", got, want)
	}
	// And it must agree with the anti-semi-join fallback.
	fallback, err := db.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if !got.EquivalentTo(fallback) {
		t.Errorf("detector disagrees with fallback: %v vs %v", got, fallback)
	}
}

func TestDetectSmallDivideEmptyRestriction(t *testing.T) {
	// Restriction matching nothing: NOT EXISTS over the empty set is
	// vacuously true, so all suppliers qualify; division by the empty
	// divisor must agree.
	db := suppliersDB()
	const q = `
SELECT DISTINCT s#
FROM supplies AS s1
WHERE NOT EXISTS (
  SELECT * FROM parts AS p2
  WHERE p2.color = 'no-such-color' AND NOT EXISTS (
    SELECT * FROM supplies AS s2
    WHERE s2.p# = p2.p# AND s2.s# = s1.s#))`
	node, detected, err := db.PlanWithDetection(q)
	if err != nil || !detected {
		t.Fatalf("detected=%t err=%v", detected, err)
	}
	got := plan.Eval(node)
	fallback, err := db.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if !got.EquivalentTo(fallback) {
		t.Errorf("empty-restriction mismatch: %v vs %v", got, fallback)
	}
	if got.Len() != 4 {
		t.Errorf("all 4 suppliers should qualify, got %v", got)
	}
}

// randomSuppliersDB draws a small random instance of the §4 schema,
// plus m(id, score) with float scores.
func randomSuppliersDB(rng *rand.Rand) *DB {
	supplies := relation.New(schema.New("s#", "p#"))
	for i := 0; i < 12+rng.Intn(20); i++ {
		supplies.Insert(relation.Tuple{
			value.Int(int64(rng.Intn(5))), value.Int(int64(rng.Intn(6))),
		})
	}
	parts := relation.New(schema.New("p#", "color"))
	for p := 0; p < 6; p++ {
		parts.Insert(relation.Tuple{
			value.Int(int64(p)), value.Int(int64(rng.Intn(3))),
		})
	}
	m := relation.New(schema.New("id", "score"))
	for id := 0; id < 6; id++ {
		m.Insert(relation.Tuple{value.Int(int64(id)), value.Float(float64(rng.Intn(4)) / 2)})
	}
	db := NewDB()
	db.Register("supplies", supplies)
	db.Register("parts", parts)
	db.Register("m", m)
	return db
}

func TestDetectorAgreesWithFallbackOnRandomData(t *testing.T) {
	// The strongest guarantee: on random databases the detected plan
	// and the anti-semi-join plan return identical rows.
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 10; trial++ {
		db := randomSuppliersDB(rng)
		node, detected, err := db.PlanWithDetection(queryQ3)
		if err != nil || !detected {
			t.Fatalf("trial %d: detected=%t err=%v", trial, detected, err)
		}
		got := plan.Eval(node)
		fallback, err := db.Query(queryQ3)
		if err != nil {
			t.Fatal(err)
		}
		if !got.EquivalentTo(fallback) {
			t.Fatalf("trial %d: detector wrong\ndetected:\n%v\nfallback:\n%v", trial, got, fallback)
		}
	}
}

// undetected are query shapes the division detector must decline;
// each still binds, to the anti-semi-join plan where it has EXISTS.
var undetected = []string{
	// Plain queries.
	`SELECT s# FROM supplies`,
	`SELECT s#, color FROM supplies AS s, parts AS p WHERE s.p# = p.p#`,
	// Single NOT EXISTS (anti-join, not division).
	`SELECT DISTINCT s# FROM supplies AS s1 WHERE NOT EXISTS (
            SELECT * FROM parts AS p WHERE p.p# = s1.p#)`,
	// EXISTS instead of NOT EXISTS at the outer level.
	`SELECT DISTINCT s#, color FROM supplies AS s1, parts AS p1 WHERE EXISTS (
            SELECT * FROM parts AS p2 WHERE p2.color = p1.color AND NOT EXISTS (
              SELECT * FROM supplies AS s2 WHERE s2.p# = p2.p# AND s2.s# = s1.s#))`,
	// Inequality correlation: not a containment test.
	`SELECT DISTINCT s#, color FROM supplies AS s1, parts AS p1 WHERE NOT EXISTS (
            SELECT * FROM parts AS p2 WHERE p2.color = p1.color AND NOT EXISTS (
              SELECT * FROM supplies AS s2 WHERE s2.p# < p2.p# AND s2.s# = s1.s#))`,
	// Middle query over the wrong table.
	`SELECT DISTINCT s#, color FROM supplies AS s1, parts AS p1 WHERE NOT EXISTS (
            SELECT * FROM supplies AS x WHERE x.s# = s1.s# AND NOT EXISTS (
              SELECT * FROM supplies AS s2 WHERE s2.p# = x.p# AND s2.s# = s1.s#))`,
	// Missing candidate correlation (inner references only y2).
	`SELECT DISTINCT s#, color FROM supplies AS s1, parts AS p1 WHERE NOT EXISTS (
            SELECT * FROM parts AS p2 WHERE p2.color = p1.color AND NOT EXISTS (
              SELECT * FROM supplies AS s2 WHERE s2.p# = p2.p#))`,
	// OR in the chain.
	`SELECT DISTINCT s#, color FROM supplies AS s1, parts AS p1 WHERE NOT EXISTS (
            SELECT * FROM parts AS p2 WHERE p2.color = p1.color OR NOT EXISTS (
              SELECT * FROM supplies AS s2 WHERE s2.p# = p2.p# AND s2.s# = s1.s#))`,
}

func TestDetectorDeclinesNonPatterns(t *testing.T) {
	db := suppliersDB()
	for _, q := range undetected {
		parsed, err := Parse(q)
		if err != nil {
			t.Fatalf("parse %q: %v", q, err)
		}
		if node, ok := db.DetectDivision(parsed); ok {
			t.Errorf("detector should decline %q, produced:\n%s", q, plan.Format(node))
		}
	}
}

func TestDetectorDeclinesPartialCoverage(t *testing.T) {
	// supplies3 has an extra column the correlation does not cover:
	// the NOT EXISTS pools elements across regions, division would
	// group by (s#, region) — semantics differ, so decline.
	db := NewDB()
	db.Register("supplies3", relation.FromRows(schema.New("s#", "region", "p#"), [][]any{
		{"s1", "east", "p1"}, {"s1", "west", "p2"},
	}))
	db.Register("parts", relation.FromRows(schema.New("p#", "color"), [][]any{
		{"p1", "red"}, {"p2", "red"},
	}))
	const q = `
SELECT DISTINCT s#, color
FROM supplies3 AS s1, parts AS p1
WHERE NOT EXISTS (
  SELECT * FROM parts AS p2
  WHERE p2.color = p1.color AND NOT EXISTS (
    SELECT * FROM supplies3 AS s2
    WHERE s2.p# = p2.p# AND s2.s# = s1.s#))`
	parsed, err := Parse(q)
	if err != nil {
		t.Fatal(err)
	}
	if node, ok := db.DetectDivision(parsed); ok {
		t.Errorf("partial coverage must be declined, produced:\n%s", plan.Format(node))
	}
	// The fallback still answers it (slowly).
	if _, err := db.Query(q); err != nil {
		t.Errorf("fallback must still work: %v", err)
	}
}

func TestDetectorDeclinesSelectingElementColumn(t *testing.T) {
	// Selecting s1.p# (the element column) is outside the quotient
	// schema; the detector must decline rather than drop it.
	db := suppliersDB()
	const q = `
SELECT DISTINCT p#, color
FROM supplies AS s1, parts AS p1
WHERE NOT EXISTS (
  SELECT * FROM parts AS p2
  WHERE p2.color = p1.color AND NOT EXISTS (
    SELECT * FROM supplies AS s2
    WHERE s2.p# = p2.p# AND s2.s# = s1.s#))`
	parsed, err := Parse(q)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := db.DetectDivision(parsed); ok {
		t.Error("selecting the element column must be declined")
	}
}

// A placeholder bound by SubstituteParams restricts the divisor just
// as a literal does: the parametrised small-divide pattern must be
// detected and must plan to the same quotient, colour by colour.
func TestDetectSmallDivideBoundPlaceholder(t *testing.T) {
	db := suppliersDB()
	const pattern = `
SELECT DISTINCT s#
FROM supplies AS s1
WHERE NOT EXISTS (
  SELECT * FROM parts AS p2
  WHERE p2.color = %s AND NOT EXISTS (
    SELECT * FROM supplies AS s2
    WHERE s2.p# = p2.p# AND s2.s# = s1.s#))`
	param, err := Parse(fmt.Sprintf(pattern, "?"))
	if err != nil {
		t.Fatal(err)
	}
	for _, color := range []string{"blue", "red", "green", "mauve"} {
		bound, err := SubstituteParams(param, []value.Value{value.String(color)})
		if err != nil {
			t.Fatal(err)
		}
		node, detected, err := db.PlanQueryWithDetection(bound)
		if err != nil {
			t.Fatal(err)
		}
		if !detected || countSmallDivides(node) != 1 {
			t.Fatalf("color = ? (%s) not detected as a small divide:\n%s", color, plan.Format(node))
		}
		literal, litDetected, err := db.PlanWithDetection(fmt.Sprintf(pattern, "'"+color+"'"))
		if err != nil || !litDetected {
			t.Fatalf("literal form: detected=%v err=%v", litDetected, err)
		}
		if got, want := plan.Eval(node), plan.Eval(literal); !got.Equal(want) {
			t.Errorf("%s: parametrised = %v, literal = %v", color, got, want)
		}
	}
	// An unbound placeholder is still no restriction the detector accepts.
	if _, ok := db.DetectDivision(param); ok {
		t.Error("unsubstituted ? must not be detected")
	}
}
