package sql

import (
	"strings"
	"testing"

	"divlaws/internal/plan"
)

// TestOrderByBindsSortNode pins the tentpole shape: ORDER BY is a
// physical plan.Sort over the query block's output, with resolved
// keys and directions — no presentation-level validate-and-discard.
func TestOrderByBindsSortNode(t *testing.T) {
	db := suppliersDB()
	node, err := db.Plan("SELECT p#, color FROM parts ORDER BY color DESC, p#")
	if err != nil {
		t.Fatal(err)
	}
	srt, ok := node.(*plan.Sort)
	if !ok {
		t.Fatalf("plan root = %T, want *plan.Sort\n%s", node, plan.Format(node))
	}
	want := []plan.SortKey{{Attr: "color", Desc: true}, {Attr: "p#"}}
	if len(srt.Keys) != len(want) {
		t.Fatalf("keys = %v, want %v", srt.Keys, want)
	}
	for i, k := range srt.Keys {
		if k != want[i] {
			t.Fatalf("key %d = %v, want %v", i, k, want[i])
		}
	}
	if !strings.Contains(plan.Format(node), "Sort[color DESC, p#]") {
		t.Fatalf("plan rendering missing Sort:\n%s", plan.Format(node))
	}
}

// TestOrderByResolvesOutputAlias checks the single sort-binding path
// sees projection aliases: the sort runs after renameOutputs.
func TestOrderByResolvesOutputAlias(t *testing.T) {
	db := suppliersDB()
	node, err := db.Plan("SELECT p# AS part FROM parts ORDER BY part")
	if err != nil {
		t.Fatal(err)
	}
	srt, ok := node.(*plan.Sort)
	if !ok {
		t.Fatalf("plan root = %T\n%s", node, plan.Format(node))
	}
	if srt.Keys[0].Attr != "part" {
		t.Fatalf("key = %v, want output alias part", srt.Keys[0])
	}
}

// TestOrderByNonOutputColumn is the widening path: a sort column the
// SELECT list projected away binds against the pre-projection schema
// — the projection is widened to carry it through the Sort and a
// final projection strips it, so the output schema is unchanged.
func TestOrderByNonOutputColumn(t *testing.T) {
	db := suppliersDB()
	node, err := db.Plan("SELECT p# FROM parts ORDER BY color DESC, p#")
	if err != nil {
		t.Fatal(err)
	}
	proj, ok := node.(*plan.Project)
	if !ok {
		t.Fatalf("plan root = %T, want the stripping *plan.Project\n%s", node, plan.Format(node))
	}
	if len(proj.Attrs) != 1 || proj.Attrs[0] != "p#" {
		t.Fatalf("strip attrs = %v, want [p#]", proj.Attrs)
	}
	srt, ok := proj.Input.(*plan.Sort)
	if !ok {
		t.Fatalf("strip input = %T, want *plan.Sort\n%s", proj.Input, plan.Format(node))
	}
	want := []plan.SortKey{{Attr: "parts.color", Desc: true}, {Attr: "p#"}}
	for i, k := range srt.Keys {
		if k != want[i] {
			t.Fatalf("key %d = %v, want %v", i, k, want[i])
		}
	}
	got, err := db.Query("SELECT p# FROM parts ORDER BY color DESC, p#")
	if err != nil {
		t.Fatal(err)
	}
	order := []string{"p1", "p2", "p5", "p3", "p4"} // red, red, green, blue, blue
	for i, tup := range got.Tuples() {
		if tup[0].AsString() != order[i] {
			t.Fatalf("row %d = %v, want %s", i, tup, order[i])
		}
	}
}

// TestOrderByNonOutputAliasedSource: referencing a projected column
// by its source name when the SELECT list renamed it sorts on the
// output alias — no widening, the Sort stays the plan root.
func TestOrderByNonOutputAliasedSource(t *testing.T) {
	db := suppliersDB()
	node, err := db.Plan("SELECT p# AS part FROM parts ORDER BY p#")
	if err != nil {
		t.Fatal(err)
	}
	srt, ok := node.(*plan.Sort)
	if !ok {
		t.Fatalf("plan root = %T, want *plan.Sort (no widening)\n%s", node, plan.Format(node))
	}
	if srt.Keys[0].Attr != "part" {
		t.Fatalf("key = %v, want the output alias part", srt.Keys[0])
	}
}

// TestOrderByUnknownColumnStillErrors: widening reaches back to the
// pre-projection schema only; a column in neither schema is still a
// binding error.
func TestOrderByUnknownColumnStillErrors(t *testing.T) {
	db := suppliersDB()
	if _, err := db.Plan("SELECT p# FROM parts ORDER BY nosuch"); err == nil {
		t.Fatal("ORDER BY on an unknown column must fail to bind")
	}
}

// TestOrderByNonOutputGrouped: the widening path through the grouped
// binder — sort on a grouping column the SELECT list dropped.
func TestOrderByNonOutputGrouped(t *testing.T) {
	db := suppliersDB()
	got, err := db.Query("SELECT count(*) AS n FROM parts GROUP BY color ORDER BY color")
	if err != nil {
		t.Fatal(err)
	}
	// blue=2, green=1, red=2 in color order; set semantics collapse
	// the two count-2 groups after the strip, preserving first-seen
	// order: [2, 1].
	tuples := got.Tuples()
	if len(tuples) != 2 {
		t.Fatalf("%d rows, want 2 after set-semantics strip\n%v", len(tuples), tuples)
	}
	if tuples[0][0].AsInt() != 2 || tuples[1][0].AsInt() != 1 {
		t.Fatalf("rows = %v, want counts [2 1]", tuples)
	}
}

// TestOrderByGroupedQuery exercises the unified path through the
// grouped binder: sort on a projected aggregate output name.
func TestOrderByGroupedQuery(t *testing.T) {
	db := suppliersDB()
	node, err := db.Plan("SELECT color, count(*) AS n FROM parts GROUP BY color ORDER BY n DESC")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := node.(*plan.Sort); !ok {
		t.Fatalf("plan root = %T, want *plan.Sort\n%s", node, plan.Format(node))
	}
	got, err := db.Query("SELECT color, count(*) AS n FROM parts GROUP BY color ORDER BY n DESC")
	if err != nil {
		t.Fatal(err)
	}
	tuples := got.Tuples()
	if len(tuples) != 3 {
		t.Fatalf("%d groups, want 3", len(tuples))
	}
	// red=2, blue=2, green=1 — descending counts, ties canonical.
	if tuples[len(tuples)-1][1].AsInt() != 1 {
		t.Fatalf("last group = %v, want the smallest count last", tuples[len(tuples)-1])
	}
}

// TestOrderByOrderedRowsCompatPath checks Eval of a Sort plan
// materializes with sorted insertion order, so even the compat path
// observes the requested order.
func TestOrderByOrderedRowsCompatPath(t *testing.T) {
	db := suppliersDB()
	got, err := db.Query("SELECT p# FROM parts ORDER BY p# DESC")
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"p5", "p4", "p3", "p2", "p1"}
	tuples := got.Tuples()
	if len(tuples) != len(want) {
		t.Fatalf("%d rows, want %d", len(tuples), len(want))
	}
	for i, tup := range tuples {
		if tup[0].AsString() != want[i] {
			t.Fatalf("row %d = %v, want %s", i, tup, want[i])
		}
	}
}

// TestDetectionPreservesOrderBy is the satellite for detect.go: the
// NOT EXISTS → division detector used to decline any query with an
// ORDER BY; with physical ordering it preserves the outer ORDER BY
// (and LIMIT) across the rewrite.
func TestDetectionPreservesOrderBy(t *testing.T) {
	db := suppliersDB()
	node, detected, err := db.PlanWithDetection(queryQ3 + " ORDER BY color, s# DESC")
	if err != nil {
		t.Fatal(err)
	}
	if !detected {
		t.Fatalf("ordered Q3 must still be detected\n%s", plan.Format(node))
	}
	srt, ok := node.(*plan.Sort)
	if !ok {
		t.Fatalf("detected plan root = %T, want *plan.Sort\n%s", node, plan.Format(node))
	}
	if len(srt.Keys) != 2 || srt.Keys[0].Desc || !srt.Keys[1].Desc {
		t.Fatalf("sort keys = %v, want [color, s# DESC]", srt.Keys)
	}
	if plan.CountDivides(node) != 1 {
		t.Fatalf("detected plan lost its division\n%s", plan.Format(node))
	}
	// Ordered result must equal the unordered division result as sets.
	want := q1Expected()
	if got := plan.Eval(node); !got.EquivalentTo(want) {
		t.Fatalf("ordered detected plan wrong:\n%v\nwant\n%v", got, want)
	}
}

// TestDetectionPreservesOrderByWithLimit covers the fused shape: an
// ordered, limited universal quantification still rewrites to a
// division, with Limit over Sort over the divide.
func TestDetectionPreservesOrderByWithLimit(t *testing.T) {
	db := suppliersDB()
	node, detected, err := db.PlanWithDetection(queryQ3 + " ORDER BY s# LIMIT 2")
	if err != nil {
		t.Fatal(err)
	}
	if !detected {
		t.Fatal("ordered+limited Q3 must still be detected")
	}
	lim, ok := node.(*plan.Limit)
	if !ok {
		t.Fatalf("plan root = %T, want *plan.Limit\n%s", node, plan.Format(node))
	}
	if _, ok := lim.Input.(*plan.Sort); !ok {
		t.Fatalf("Limit input = %T, want *plan.Sort", lim.Input)
	}
	got := plan.Eval(node)
	if got.Len() != 2 {
		t.Fatalf("%d rows, want 2", got.Len())
	}
	// Top-2 by s#: s1 appears once ("s1","red"); second row is an s2.
	for _, tup := range got.Tuples() {
		s := tup[0].AsString()
		if s != "s1" && s != "s2" {
			t.Fatalf("row %v not among the two smallest suppliers", tup)
		}
	}
}

// TestDetectionDeclinesNonQuotientOrderBy: a sort column outside the
// quotient schema (the dividend's element column p#, whose
// multiplicity division does not preserve) must decline the rewrite
// and fall back to the anti-semi-join plan, which widens its
// projection to order by it.
func TestDetectionDeclinesNonQuotientOrderBy(t *testing.T) {
	db := suppliersDB()
	q := `
SELECT DISTINCT s#
FROM supplies AS s1, parts AS p1
WHERE NOT EXISTS (
        SELECT *
        FROM parts AS p2
        WHERE p2.color = p1.color AND
              NOT EXISTS (
                SELECT *
                FROM supplies AS s2
                WHERE s2.p# = p2.p# AND
                      s2.s# = s1.s#)) ORDER BY p1.color`
	parsed, err := Parse(q)
	if err != nil {
		t.Fatal(err)
	}
	if node, detected := db.DetectDivision(parsed); detected {
		t.Fatalf("ORDER BY on a non-quotient column must decline the rewrite\n%s", plan.Format(node))
	}
	// The fallback binds the non-output sort column against the
	// pre-projection schema: widen, sort, strip. The stripped result
	// is the same quotient set the unordered statement computes.
	node, detected, err := db.PlanWithDetection(q)
	if err != nil {
		t.Fatal(err)
	}
	if detected {
		t.Fatalf("fallback plan unexpectedly detected as a division\n%s", plan.Format(node))
	}
	proj, ok := node.(*plan.Project)
	if !ok {
		t.Fatalf("plan root = %T, want the stripping *plan.Project\n%s", node, plan.Format(node))
	}
	srt, ok := proj.Input.(*plan.Sort)
	if !ok {
		t.Fatalf("strip input = %T, want *plan.Sort\n%s", proj.Input, plan.Format(node))
	}
	if len(srt.Keys) != 1 || srt.Keys[0].Attr != "p1.color" {
		t.Fatalf("sort keys = %v, want [p1.color]", srt.Keys)
	}
	want, err := db.Query(strings.TrimSuffix(strings.TrimSpace(q), "ORDER BY p1.color"))
	if err != nil {
		t.Fatal(err)
	}
	if got := plan.Eval(node); !got.EquivalentTo(want) {
		t.Fatalf("widened ordered plan wrong:\n%v\nwant\n%v", got, want)
	}
}

// TestExplainRendersTopKPartitioning checks the EXPLAIN surface: an
// ORDER BY + LIMIT over a parallelized division renders the TopK
// node and the per-partition pushdown detail.
func TestExplainRendersTopKPartitioning(t *testing.T) {
	db := suppliersDB()
	// Workers=2: the tiny parts divisor (5 rows) still clears the
	// 2-per-worker floor of the great-divide parallelization.
	ex, err := db.Explain(queryQ1+" ORDER BY s# LIMIT 2", ExplainOptions{
		Optimize: true, Workers: 2, ParallelThreshold: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	// The fused TopK is pushed below the output renames/projection,
	// so its keys are in the divide's qualified attribute space.
	if !strings.Contains(ex.Report, "TopK[k=2; s.s#]") {
		t.Fatalf("report missing pushed-down TopK node:\n%s", ex.Report)
	}
	if !strings.Contains(ex.Report, "top-k: per-partition heap(k=2)") {
		t.Fatalf("report missing top-k partitioning detail:\n%s", ex.Report)
	}
	if !strings.Contains(ex.Report, "FuseTopK(k=2)") {
		t.Fatalf("report missing FuseTopK trace:\n%s", ex.Report)
	}
	if !strings.Contains(ex.Report, "PushTopK(per-partition k=2 + merge)") {
		t.Fatalf("report missing order-aware Parallelize trace:\n%s", ex.Report)
	}

	// k=0 compiles to the generic TopKIter (subtree never opened), so
	// the report must not claim a per-partition pushdown.
	ex0, err := db.Explain(queryQ1+" ORDER BY s# LIMIT 0", ExplainOptions{
		Optimize: true, Workers: 2, ParallelThreshold: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(ex0.Report, "top-k: per-partition") || strings.Contains(ex0.Report, "PushTopK") {
		t.Fatalf("k=0 report claims a pushdown that never runs:\n%s", ex0.Report)
	}
}
