package sql

import (
	"testing"

	"divlaws/internal/relation"
	"divlaws/internal/schema"
)

func TestASTStringForms(t *testing.T) {
	cases := []struct {
		e    Expr
		want string
	}{
		{&ColumnRef{Table: "t", Column: "c"}, "t.c"},
		{&ColumnRef{Column: "c"}, "c"},
		{&Literal{Int: 3, Kind: 'i'}, "3"},
		{&Literal{Float: 2.5, Kind: 'f'}, "2.5"},
		{&Literal{Str: "x", Kind: 's'}, "'x'"},
		{&Comparison{Left: &ColumnRef{Column: "a"}, Op: "<", Right: &Literal{Int: 1, Kind: 'i'}}, "a < 1"},
		{&BoolOp{Op: "AND", Left: &Literal{Int: 1, Kind: 'i'}, Right: &Literal{Int: 2, Kind: 'i'}}, "(1 AND 2)"},
		{&NotExpr{Inner: &Literal{Int: 1, Kind: 'i'}}, "NOT (1)"},
		{&ExistsExpr{}, "EXISTS (...)"},
		{&ExistsExpr{Negated: true}, "NOT EXISTS (...)"},
		{&AggCall{Func: "count", Star: true}, "count(*)"},
		{&AggCall{Func: "sum", Arg: &ColumnRef{Column: "x"}}, "sum(x)"},
	}
	for _, tc := range cases {
		if got := tc.e.String(); got != tc.want {
			t.Errorf("String = %q, want %q", got, tc.want)
		}
	}
}

func TestDescribeRef(t *testing.T) {
	cases := []struct {
		ref  TableRef
		want string
	}{
		{&BaseTable{Name: "t", Alias: "t"}, "t"},
		{&BaseTable{Name: "t", Alias: "x"}, "t AS x"},
		{&SubqueryTable{Alias: "q"}, "(subquery) AS q"},
		{&DivideTable{
			Dividend: &BaseTable{Name: "a", Alias: "a"},
			Divisor:  &BaseTable{Name: "b", Alias: "b"},
		}, "a DIVIDE BY b"},
	}
	for _, tc := range cases {
		if got := describeRef(tc.ref); got != tc.want {
			t.Errorf("describeRef = %q, want %q", got, tc.want)
		}
	}
}

func TestAllComparisonOperators(t *testing.T) {
	db := suppliersDB()
	for _, op := range []string{"=", "<>", "<", "<=", ">", ">="} {
		q := "SELECT p# FROM parts WHERE p# " + op + " 'p3'"
		if _, err := db.Query(q); err != nil {
			t.Errorf("operator %s: %v", op, err)
		}
	}
}

func TestHavingVariants(t *testing.T) {
	db := suppliersDB()
	// HAVING with AND / OR / NOT and column operands.
	queries := []string{
		`SELECT s#, count(p#) AS n FROM supplies GROUP BY s#
         HAVING count(p#) >= 2 AND count(p#) <= 4`,
		`SELECT s#, count(p#) AS n FROM supplies GROUP BY s#
         HAVING count(p#) = 2 OR count(p#) = 5`,
		`SELECT s#, count(p#) AS n FROM supplies GROUP BY s#
         HAVING NOT count(p#) < 3`,
		`SELECT s#, min(p#) AS lo, max(p#) AS hi FROM supplies GROUP BY s#
         HAVING min(p#) <> max(p#)`,
		`SELECT s#, count(p#) AS n FROM supplies GROUP BY s# HAVING s# > 's1'`,
	}
	for _, q := range queries {
		if _, err := db.Query(q); err != nil {
			t.Errorf("%s: %v", q, err)
		}
	}
	// Aggregate not computed in HAVING: sum over a string column is
	// registered; missing aggregate detection happens via internal map.
	if _, err := db.Query(`SELECT s# FROM supplies GROUP BY s# HAVING avg(p#) > 1 AND count(p#) > 0`); err != nil {
		t.Errorf("HAVING-only aggregates should be computed: %v", err)
	}
}

func TestWhereBooleanShapes(t *testing.T) {
	db := suppliersDB()
	queries := []string{
		`SELECT p# FROM parts WHERE color = 'red' OR color = 'blue'`,
		`SELECT p# FROM parts WHERE NOT color = 'red'`,
		`SELECT p# FROM parts WHERE (color = 'red' AND p# <> 'p1') OR color = 'green'`,
		`SELECT p# FROM parts WHERE EXISTS (
            SELECT * FROM supplies AS s WHERE s.p# = parts.p#)`,
	}
	for _, q := range queries {
		if _, err := db.Query(q); err != nil {
			t.Errorf("%s: %v", q, err)
		}
	}
}

func TestCorrelatedQueryOverFloats(t *testing.T) {
	db := NewDB()
	db.Register("m", relation.FromRows(schema.New("id", "score"), [][]any{
		{1, 0.5}, {2, 0.9},
	}))
	res, err := db.Query(`
SELECT id FROM m AS outer_m WHERE EXISTS (
  SELECT * FROM m AS inner_m WHERE inner_m.score > outer_m.score)`)
	if err != nil {
		t.Fatal(err)
	}
	want := relation.FromRows(schema.New("id"), [][]any{{1}})
	if !res.Equal(want) {
		t.Errorf("float correlation = %v", res)
	}
}

func TestParsePredicateParenthesized(t *testing.T) {
	q, err := Parse(`SELECT a FROM t WHERE (a = 1 OR a = 2) AND a <> 3`)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := q.Where.(*BoolOp); !ok {
		t.Errorf("Where = %T", q.Where)
	}
}

func TestDetectHelpers(t *testing.T) {
	// selfJoinColumn orientation.
	l := &ColumnRef{Table: "x", Column: "c"}
	r := &ColumnRef{Table: "y", Column: "c"}
	if col, ok := selfJoinColumn(l, r, "x", "y"); !ok || col != "c" {
		t.Error("forward self-join")
	}
	if col, ok := selfJoinColumn(l, r, "y", "x"); !ok || col != "c" {
		t.Error("reversed self-join")
	}
	if _, ok := selfJoinColumn(l, &ColumnRef{Table: "y", Column: "d"}, "x", "y"); ok {
		t.Error("different columns must not self-join")
	}
	// restrictionOn shapes.
	local := &Comparison{Left: &ColumnRef{Table: "y", Column: "c"}, Op: "=", Right: &Literal{Str: "v", Kind: 's'}}
	foreign := &Comparison{Left: &ColumnRef{Table: "z", Column: "c"}, Op: "=", Right: &Literal{Str: "v", Kind: 's'}}
	if !restrictionOn(local, "y") || restrictionOn(foreign, "y") {
		t.Error("restrictionOn alias check")
	}
	if !restrictionOn(&BoolOp{Op: "AND", Left: local, Right: local}, "y") {
		t.Error("restrictionOn AND")
	}
	if !restrictionOn(&NotExpr{Inner: local}, "y") {
		t.Error("restrictionOn NOT")
	}
	if restrictionOn(&ExistsExpr{}, "y") {
		t.Error("EXISTS is not a plain restriction")
	}
}

func TestPlanWithDetectionFallsBack(t *testing.T) {
	db := suppliersDB()
	node, detected, err := db.PlanWithDetection(`SELECT p# FROM parts WHERE color = 'red'`)
	if err != nil || detected || node == nil {
		t.Errorf("plain query: detected=%t err=%v", detected, err)
	}
	if _, _, err := db.PlanWithDetection(`SELECT FROM`); err == nil {
		t.Error("parse errors must propagate")
	}
	if _, _, err := db.PlanWithDetection(`SELECT zzz FROM parts`); err == nil {
		t.Error("bind errors must propagate")
	}
}
