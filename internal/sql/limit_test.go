package sql

import (
	"strings"
	"testing"

	"divlaws/internal/plan"
	"divlaws/internal/relation"
	"divlaws/internal/schema"
	"divlaws/internal/value"
)

func TestParseLimit(t *testing.T) {
	cases := []struct {
		text  string
		n     int64
		has   bool
		order int // ORDER BY items, to prove clause ordering
	}{
		{"SELECT * FROM r", 0, false, 0},
		{"SELECT * FROM r LIMIT 0", 0, true, 0},
		{"SELECT * FROM r LIMIT 5", 5, true, 0},
		{"SELECT a FROM r WHERE a > 1 ORDER BY a LIMIT 10", 10, true, 1},
		{"SELECT a FROM r GROUP BY a HAVING count(*) > 2 LIMIT 3", 3, true, 0},
	}
	for _, tc := range cases {
		q, err := Parse(tc.text)
		if err != nil {
			t.Fatalf("%q: %v", tc.text, err)
		}
		if q.HasLimit != tc.has || q.Limit != tc.n {
			t.Errorf("%q: Limit = (%d, %t), want (%d, %t)", tc.text, q.Limit, q.HasLimit, tc.n, tc.has)
		}
		if len(q.OrderBy) != tc.order {
			t.Errorf("%q: OrderBy = %d items, want %d", tc.text, len(q.OrderBy), tc.order)
		}
	}
}

func TestParseLimitErrors(t *testing.T) {
	for _, text := range []string{
		"SELECT * FROM r LIMIT",       // missing count
		"SELECT * FROM r LIMIT x",     // not a number
		"SELECT * FROM r LIMIT 1.5",   // not an integer
		"SELECT * FROM r LIMIT 'a'",   // string
		"SELECT * FROM r LIMIT 5 6",   // trailing input
		"SELECT * FROM r LIMIT 5 , 6", // no comma form
	} {
		if _, err := Parse(text); err == nil {
			t.Errorf("%q: expected parse error", text)
		}
	}
}

func TestParseLimitInSubquery(t *testing.T) {
	q, err := Parse("SELECT * FROM (SELECT a FROM r LIMIT 2) AS s LIMIT 1")
	if err != nil {
		t.Fatal(err)
	}
	if !q.HasLimit || q.Limit != 1 {
		t.Fatalf("outer limit = (%d, %t)", q.Limit, q.HasLimit)
	}
	sub, ok := q.From[0].(*SubqueryTable)
	if !ok {
		t.Fatalf("From[0] = %T", q.From[0])
	}
	if !sub.Query.HasLimit || sub.Query.Limit != 2 {
		t.Fatalf("inner limit = (%d, %t)", sub.Query.Limit, sub.Query.HasLimit)
	}
}

func TestLimitParamsSurviveBinding(t *testing.T) {
	q, err := Parse("SELECT a FROM r WHERE a = ? LIMIT 7")
	if err != nil {
		t.Fatal(err)
	}
	bound, err := SubstituteParams(q, []value.Value{value.Int(1)})
	if err != nil {
		t.Fatal(err)
	}
	if !bound.HasLimit || bound.Limit != 7 {
		t.Fatalf("bound limit = (%d, %t), want (7, true)", bound.Limit, bound.HasLimit)
	}
}

func limitTestDB() *DB {
	db := NewDB()
	r := relation.New(schema.New("a", "b"))
	for i := int64(0); i < 20; i++ {
		r.Insert(relation.Tuple{value.Int(i), value.Int(i % 3)})
	}
	db.Register("r", r)
	return db
}

func TestBindLimitProducesPlanNode(t *testing.T) {
	db := limitTestDB()
	node, err := db.Plan("SELECT a FROM r LIMIT 4")
	if err != nil {
		t.Fatal(err)
	}
	lim, ok := node.(*plan.Limit)
	if !ok {
		t.Fatalf("plan root = %T, want *plan.Limit\n%s", node, plan.Format(node))
	}
	if lim.N != 4 {
		t.Fatalf("Limit N = %d", lim.N)
	}
	if !strings.Contains(plan.Format(node), "Limit[4]") {
		t.Fatalf("plan rendering missing Limit:\n%s", plan.Format(node))
	}
}

func TestQueryLimitCompatPath(t *testing.T) {
	db := limitTestDB()
	for _, tc := range []struct {
		text string
		want int
	}{
		{"SELECT a FROM r LIMIT 0", 0},
		{"SELECT a FROM r LIMIT 1", 1},
		{"SELECT a FROM r LIMIT 5", 5},
		{"SELECT a FROM r LIMIT 100", 20}, // beyond result size
	} {
		got, err := db.Query(tc.text)
		if err != nil {
			t.Fatalf("%q: %v", tc.text, err)
		}
		if got.Len() != tc.want {
			t.Errorf("%q: %d rows, want %d", tc.text, got.Len(), tc.want)
		}
	}
}

func TestDetectionPreservesOuterLimit(t *testing.T) {
	db := suppliersDB()
	node, detected, err := db.PlanWithDetection(queryQ3 + " LIMIT 1")
	if err != nil {
		t.Fatal(err)
	}
	if !detected {
		t.Fatal("Q3 with LIMIT should still be detected")
	}
	lim, ok := node.(*plan.Limit)
	if !ok {
		t.Fatalf("detected plan root = %T, want *plan.Limit\n%s", node, plan.Format(node))
	}
	if lim.N != 1 {
		t.Fatalf("Limit N = %d", lim.N)
	}
	if got := plan.Eval(node); got.Len() != 1 {
		t.Fatalf("detected plan with LIMIT 1 returned %d rows", got.Len())
	}
}

func TestDetectionDeclinesInnerLimit(t *testing.T) {
	// A LIMIT inside a NOT EXISTS block changes which subquery results
	// exist, so the division rewrite is unsound; the detector must
	// fall back to the anti-semi-join plan (which honors the inner
	// limit).
	db := suppliersDB()
	const q = `
SELECT DISTINCT s#, color
FROM supplies AS s1, parts AS p1
WHERE NOT EXISTS (
        SELECT *
        FROM parts AS p2
        WHERE p2.color = p1.color AND
              NOT EXISTS (
                SELECT *
                FROM supplies AS s2
                WHERE s2.p# = p2.p# AND
                      s2.s# = s1.s#) LIMIT 0)`
	_, detected, err := db.PlanWithDetection(q)
	if err != nil {
		t.Fatal(err)
	}
	if detected {
		t.Fatal("inner LIMIT must decline the division rewrite")
	}
}

func TestOrderByWithLimitRejected(t *testing.T) {
	// Historic name kept for continuity: ORDER BY + LIMIT is no longer
	// rejected — it binds to Limit over a physical Sort (which the
	// optimizer fuses into TopK), and the combination means the true
	// top n, not n arbitrary sorted rows.
	db := limitTestDB()
	node, err := db.Plan("SELECT a FROM r ORDER BY a DESC LIMIT 3")
	if err != nil {
		t.Fatalf("ORDER BY with LIMIT must bind now: %v", err)
	}
	lim, ok := node.(*plan.Limit)
	if !ok {
		t.Fatalf("plan root = %T, want *plan.Limit\n%s", node, plan.Format(node))
	}
	srt, ok := lim.Input.(*plan.Sort)
	if !ok {
		t.Fatalf("Limit input = %T, want *plan.Sort\n%s", lim.Input, plan.Format(node))
	}
	if len(srt.Keys) != 1 || srt.Keys[0].Attr != "a" || !srt.Keys[0].Desc {
		t.Fatalf("sort keys = %v, want [a DESC]", srt.Keys)
	}
	// The compat path must return the true top 3: the three largest a.
	got, err := db.Query("SELECT a FROM r ORDER BY a DESC LIMIT 3")
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 3 {
		t.Fatalf("%d rows, want 3", got.Len())
	}
	for i, tup := range got.Tuples() {
		if want := int64(19 - i); tup[0].AsInt() != want {
			t.Fatalf("row %d = %v, want a=%d (descending top-3)", i, tup, want)
		}
	}
	// Each clause alone stays fine.
	if _, err := db.Plan("SELECT a FROM r ORDER BY a"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Plan("SELECT a FROM r LIMIT 3"); err != nil {
		t.Fatal(err)
	}
	// Physical ordering is strict: an unresolvable sort column is an
	// error now, not a presentation-level shrug.
	if _, err := db.Plan("SELECT a FROM r ORDER BY nope"); err == nil {
		t.Fatal("ORDER BY over an unknown column must fail to bind")
	}
}

func TestLimitIterPreservesFinalTupleOnCloseError(t *testing.T) {
	// Covered at the exec level: see internal/exec (LimitBatch keeps
	// the N-th tuple and defers a teardown error); here we pin the
	// end-to-end behavior that LIMIT 1 over the compat path returns
	// its row.
	db := limitTestDB()
	got, err := db.Query("SELECT a FROM r LIMIT 1")
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 1 {
		t.Fatalf("%d rows", got.Len())
	}
}
