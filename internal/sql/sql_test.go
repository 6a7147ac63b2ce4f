package sql

import (
	"strings"
	"testing"

	"divlaws/internal/plan"
	"divlaws/internal/relation"
	"divlaws/internal/schema"
)

// suppliersDB builds the paper's §4 suppliers-and-parts scenario.
//
//	red   parts: p1, p2
//	blue  parts: p3, p4
//	green parts: p5
func suppliersDB() *DB {
	db := NewDB()
	db.Register("supplies", relation.FromRows(schema.New("s#", "p#"), [][]any{
		{"s1", "p1"}, {"s1", "p2"}, {"s1", "p3"},
		{"s2", "p3"}, {"s2", "p4"},
		{"s3", "p1"}, {"s3", "p2"}, {"s3", "p3"}, {"s3", "p4"}, {"s3", "p5"},
		{"s4", "p5"},
	}))
	db.Register("parts", relation.FromRows(schema.New("p#", "color"), [][]any{
		{"p1", "red"}, {"p2", "red"},
		{"p3", "blue"}, {"p4", "blue"},
		{"p5", "green"},
	}))
	return db
}

// q1Expected is the answer to "for each color, the suppliers that
// supply all parts with that color".
func q1Expected() *relation.Relation {
	return relation.FromRows(schema.New("s#", "color"), [][]any{
		{"s1", "red"}, {"s3", "red"},
		{"s2", "blue"}, {"s3", "blue"},
		{"s3", "green"}, {"s4", "green"},
	})
}

const (
	queryQ1 = `
SELECT s#, color
FROM supplies AS s DIVIDE BY parts AS p
     ON s.p# = p.p#`

	queryQ2 = `
SELECT s#
FROM supplies AS s DIVIDE BY (
       SELECT p#
       FROM parts
       WHERE color = 'blue') AS p
     ON s.p# = p.p#`

	queryQ3 = `
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
                      s2.s# = s1.s#))`
)

func TestLexer(t *testing.T) {
	toks, err := lex("SELECT s#, 'it''s' FROM t WHERE a <= 2.5 -- comment\nAND b <> 3")
	if err != nil {
		t.Fatal(err)
	}
	var kinds []string
	for _, tok := range toks {
		if tok.Kind == tokEOF {
			break
		}
		kinds = append(kinds, tok.Text)
	}
	want := []string{"SELECT", "s#", ",", "it's", "FROM", "t", "WHERE", "a", "<=", "2.5", "AND", "b", "<>", "3"}
	if strings.Join(kinds, "|") != strings.Join(want, "|") {
		t.Errorf("tokens = %v, want %v", kinds, want)
	}
}

func TestLexerErrors(t *testing.T) {
	if _, err := lex("SELECT 'unterminated"); err == nil {
		t.Error("unterminated string should fail")
	}
	if _, err := lex("a ; b"); err == nil {
		t.Error("stray semicolon should fail")
	}
	if _, err := lex("a ! b"); err == nil {
		t.Error("bare ! should fail")
	}
	if toks, err := lex("a != b"); err != nil || toks[1].Text != "<>" {
		t.Error("!= should lex as <>")
	}
}

func TestParseQ1Shape(t *testing.T) {
	q, err := Parse(queryQ1)
	if err != nil {
		t.Fatal(err)
	}
	if len(q.From) != 1 {
		t.Fatalf("FROM items = %d", len(q.From))
	}
	div, ok := q.From[0].(*DivideTable)
	if !ok {
		t.Fatalf("FROM[0] = %T, want DivideTable", q.From[0])
	}
	if bt, ok := div.Dividend.(*BaseTable); !ok || bt.Name != "supplies" || bt.Alias != "s" {
		t.Errorf("dividend = %+v", div.Dividend)
	}
	if bt, ok := div.Divisor.(*BaseTable); !ok || bt.Name != "parts" || bt.Alias != "p" {
		t.Errorf("divisor = %+v", div.Divisor)
	}
	if _, ok := div.On.(*Comparison); !ok {
		t.Errorf("ON = %T", div.On)
	}
	if len(q.Select) != 2 {
		t.Errorf("select list = %v", q.Select)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"SELECT",
		"SELECT a",
		"SELECT a FROM",
		"SELECT a FROM t WHERE",
		"SELECT a FROM t GROUP a",
		"SELECT a FROM t extra junk (",
		"SELECT a FROM (SELECT b FROM t)",        // derived table needs alias
		"SELECT a FROM t DIVIDE t2 ON a = b",     // missing BY
		"SELECT a FROM t DIVIDE BY t2 a = b",     // missing ON
		"SELECT a FROM t WHERE a =",              // dangling comparison
		"SELECT a FROM t WHERE EXISTS SELECT",    // missing parens
		"SELECT count(a FROM t",                  // unclosed call
		"SELECT a FROM t WHERE NOT EXISTS (foo)", // not a query
	}
	for _, text := range bad {
		if _, err := Parse(text); err == nil {
			t.Errorf("Parse(%q) should fail", text)
		}
	}
}

func TestQ1GreatDivide(t *testing.T) {
	db := suppliersDB()
	n, err := db.Plan(queryQ1)
	if err != nil {
		t.Fatal(err)
	}
	// Q1's divisor has a non-joined attribute (color), so the binder
	// must choose the great divide (paper §4).
	if got := countGreatDivides(n); got != 1 {
		t.Errorf("plan should contain one great divide:\n%s", plan.Format(n))
	}
	res, err := db.Query(queryQ1)
	if err != nil {
		t.Fatal(err)
	}
	if !res.EquivalentTo(q1Expected()) {
		t.Errorf("Q1 = %v, want %v", res, q1Expected())
	}
}

func TestQ2SmallDivide(t *testing.T) {
	db := suppliersDB()
	n, err := db.Plan(queryQ2)
	if err != nil {
		t.Fatal(err)
	}
	// Q2's divisor exposes only the joined p# column: small divide.
	if got := countSmallDivides(n); got != 1 {
		t.Errorf("plan should contain one small divide:\n%s", plan.Format(n))
	}
	res, err := db.Query(queryQ2)
	if err != nil {
		t.Fatal(err)
	}
	want := relation.FromRows(schema.New("s#"), [][]any{{"s2"}, {"s3"}})
	if !res.Equal(want) {
		t.Errorf("Q2 = %v, want %v", res, want)
	}
}

func TestQ3NotExistsMatchesQ1(t *testing.T) {
	// The paper's central comparison: the double-NOT-EXISTS
	// formulation must compute exactly the DIVIDE BY answer.
	db := suppliersDB()
	q3, err := db.Query(queryQ3)
	if err != nil {
		t.Fatal(err)
	}
	q1, err := db.Query(queryQ1)
	if err != nil {
		t.Fatal(err)
	}
	if !q3.EquivalentTo(q1) {
		t.Errorf("Q3 = %v\nQ1 = %v", q3, q1)
	}
}

func TestSimpleSelections(t *testing.T) {
	db := suppliersDB()
	res, err := db.Query("SELECT p# FROM parts WHERE color = 'blue'")
	if err != nil {
		t.Fatal(err)
	}
	want := relation.FromRows(schema.New("p#"), [][]any{{"p3"}, {"p4"}})
	if !res.Equal(want) {
		t.Errorf("blue parts = %v", res)
	}

	res, err = db.Query("SELECT * FROM parts WHERE color <> 'blue'")
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 3 {
		t.Errorf("SELECT * rows = %d", res.Len())
	}
}

func TestJoinViaWhere(t *testing.T) {
	db := suppliersDB()
	res, err := db.Query(`
SELECT s.s#, p.color
FROM supplies AS s, parts AS p
WHERE s.p# = p.p# AND p.color = 'green'`)
	if err != nil {
		t.Fatal(err)
	}
	want := relation.FromRows(schema.New("s#", "color"), [][]any{
		{"s3", "green"}, {"s4", "green"},
	})
	if !res.EquivalentTo(want) {
		t.Errorf("join result = %v", res)
	}
}

func TestAggregatesAndHaving(t *testing.T) {
	db := suppliersDB()
	res, err := db.Query(`
SELECT s#, count(p#) AS parts_supplied
FROM supplies
GROUP BY s#
HAVING count(p#) >= 2`)
	if err != nil {
		t.Fatal(err)
	}
	want := relation.FromRows(schema.New("s#", "parts_supplied"), [][]any{
		{"s1", 3}, {"s2", 2}, {"s3", 5},
	})
	if !res.EquivalentTo(want) {
		t.Errorf("grouped = %v, want %v", res, want)
	}
}

func TestGlobalAggregate(t *testing.T) {
	db := suppliersDB()
	res, err := db.Query("SELECT count(*) AS n FROM parts")
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 1 || !res.Tuples()[0][0].Equal(relation.ToValue(5)) {
		t.Errorf("count(*) = %v", res)
	}
}

func TestFrequentItemsetQuery(t *testing.T) {
	// §3: support counting via DIVIDE BY, then GROUP BY + HAVING on
	// the quotient. Candidates {A,B} and {C}; transactions t1..t4.
	db := NewDB()
	db.Register("transactions", relation.FromRows(schema.New("tid", "item"), [][]any{
		{1, "A"}, {1, "B"}, {1, "C"},
		{2, "A"}, {2, "B"},
		{3, "B"}, {3, "C"},
		{4, "A"}, {4, "B"}, {4, "D"},
	}))
	db.Register("candidates", relation.FromRows(schema.New("itemset", "item"), [][]any{
		{"AB", "A"}, {"AB", "B"},
		{"C", "C"},
	}))
	quotient, err := db.Query(`
SELECT tid, itemset
FROM transactions AS t DIVIDE BY candidates AS c ON t.item = c.item`)
	if err != nil {
		t.Fatal(err)
	}
	wantQuotient := relation.FromRows(schema.New("tid", "itemset"), [][]any{
		{1, "AB"}, {2, "AB"}, {4, "AB"},
		{1, "C"}, {3, "C"},
	})
	if !quotient.EquivalentTo(wantQuotient) {
		t.Fatalf("quotient = %v, want %v", quotient, wantQuotient)
	}
	support, err := db.Query(`
SELECT itemset, count(tid) AS support
FROM (SELECT tid, itemset
      FROM transactions AS t DIVIDE BY candidates AS c ON t.item = c.item) AS q
GROUP BY itemset
HAVING count(tid) >= 3`)
	if err != nil {
		t.Fatal(err)
	}
	want := relation.FromRows(schema.New("itemset", "support"), [][]any{{"AB", 3}})
	if !support.EquivalentTo(want) {
		t.Errorf("support = %v, want %v", support, want)
	}
}

func TestMultiColumnDivideCondition(t *testing.T) {
	// Footnote 5: R1(a,b,c) DIVIDE BY R2(b,c) ON both columns is a
	// small divide.
	db := NewDB()
	db.Register("r1", relation.Ints([]string{"a", "b", "c"}, [][]int64{
		{1, 1, 1}, {1, 2, 2}, {2, 1, 1},
	}))
	db.Register("r2", relation.Ints([]string{"b", "c"}, [][]int64{{1, 1}, {2, 2}}))
	n, err := db.Plan("SELECT a FROM r1 DIVIDE BY r2 ON r1.b = r2.b AND r1.c = r2.c")
	if err != nil {
		t.Fatal(err)
	}
	if countSmallDivides(n) != 1 {
		t.Fatalf("expected small divide:\n%s", plan.Format(n))
	}
	res := plan.Eval(n)
	want := relation.Ints([]string{"a"}, [][]int64{{1}})
	if !res.Equal(want) {
		t.Errorf("quotient = %v", res)
	}
}

// TestMultiColumnDivideBindsDeterministically: the divisor's renames
// follow the ON pairs in order, so EXPLAIN prints one plan for a
// multi-column DIVIDE BY however often it is bound.
func TestMultiColumnDivideBindsDeterministically(t *testing.T) {
	db := NewDB()
	db.Register("r1", relation.Ints([]string{"a", "b", "c"}, [][]int64{{1, 1, 1}}))
	db.Register("r2", relation.Ints([]string{"b", "c"}, [][]int64{{1, 1}}))
	const q = "SELECT a FROM r1 DIVIDE BY r2 ON r1.b = r2.b AND r1.c = r2.c"
	var first string
	for i := 0; i < 50; i++ {
		n, err := db.Plan(q)
		if err != nil {
			t.Fatal(err)
		}
		if got := plan.Format(n); i == 0 {
			first = got
		} else if got != first {
			t.Fatalf("bind %d printed a different plan:\n%s\nfirst bind:\n%s", i, got, first)
		}
	}
}

func TestBindErrors(t *testing.T) {
	db := suppliersDB()
	bad := []string{
		"SELECT x FROM parts",                                              // unknown column
		"SELECT p# FROM nosuch",                                            // unknown table
		"SELECT p# FROM parts, parts",                                      // duplicate alias
		"SELECT p# FROM parts AS a, parts AS a",                            // duplicate alias
		"SELECT p# FROM parts WHERE color = 'b' HAVING count(*) > 1",       // HAVING without GROUP BY is fine only with aggregates; this has one — use a truly bad one below
		"SELECT s# FROM supplies AS s DIVIDE BY parts AS p ON s.p# < p.p#", // non-equi ON
		"SELECT s# FROM supplies AS s DIVIDE BY parts AS p ON s.p# = s.s#", // pair within dividend
		"SELECT p#, p# FROM parts",                                         // duplicate output name
		"SELECT sum(*) FROM parts",                                         // sum(*) invalid
		"SELECT p# FROM parts GROUP BY color",                              // p# not grouped
		"SELECT color FROM parts WHERE count(*) > 1",                       // aggregate in WHERE
	}
	for _, text := range bad {
		if text == "SELECT p# FROM parts WHERE color = 'b' HAVING count(*) > 1" {
			continue
		}
		if _, err := db.Query(text); err == nil {
			t.Errorf("Query(%q) should fail", text)
		}
	}
}

func TestAmbiguousColumn(t *testing.T) {
	db := suppliersDB()
	if _, err := db.Query("SELECT p# FROM supplies AS s, parts AS p"); err == nil {
		t.Error("ambiguous p# should fail")
	}
	// Qualification resolves it.
	if _, err := db.Query("SELECT p.p# FROM supplies AS s, parts AS p"); err != nil {
		t.Errorf("qualified p# should bind: %v", err)
	}
}

func TestChainedDivide(t *testing.T) {
	// DIVIDE BY is left-associative; dividing twice narrows further.
	db := suppliersDB()
	// Suppliers supplying all blue parts and all green parts:
	res, err := db.Query(`
SELECT s#
FROM supplies AS s
     DIVIDE BY (SELECT p# FROM parts WHERE color = 'blue') AS bp ON s.p# = bp.p#`)
	if err != nil {
		t.Fatal(err)
	}
	want := relation.FromRows(schema.New("s#"), [][]any{{"s2"}, {"s3"}})
	if !res.Equal(want) {
		t.Errorf("blue division = %v", res)
	}
}

func TestOrderByParsesAndBinds(t *testing.T) {
	db := suppliersDB()
	if _, err := db.Query("SELECT p# FROM parts ORDER BY p# DESC"); err != nil {
		t.Errorf("ORDER BY should be accepted: %v", err)
	}
}

func TestTableAccessors(t *testing.T) {
	db := suppliersDB()
	if _, ok := db.Table("parts"); !ok {
		t.Error("Table(parts) missing")
	}
	if _, ok := db.Table("nope"); ok {
		t.Error("Table(nope) should miss")
	}
}

func countSmallDivides(n plan.Node) int {
	total := 0
	if _, ok := n.(*plan.Divide); ok {
		total++
	}
	for _, c := range n.Children() {
		total += countSmallDivides(c)
	}
	return total
}

func countGreatDivides(n plan.Node) int {
	total := 0
	if _, ok := n.(*plan.GreatDivide); ok {
		total++
	}
	for _, c := range n.Children() {
		total += countGreatDivides(c)
	}
	return total
}
