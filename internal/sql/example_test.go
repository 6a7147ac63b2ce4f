package sql_test

import (
	"fmt"

	"divlaws/internal/plan"
	"divlaws/internal/relation"
	"divlaws/internal/schema"
	"divlaws/internal/sql"
)

// ExampleDB_Plan binds the paper's Q2 — suppliers supplying all blue
// parts, via the proposed DIVIDE BY syntax — and evaluates the plan
// with the reference interpreter.
func ExampleDB_Plan() {
	db := sql.NewDB()
	db.Register("supplies", relation.FromRows(schema.New("s#", "p#"), [][]any{
		{"s1", "p1"},
		{"s2", "p1"}, {"s2", "p2"},
	}))
	db.Register("parts", relation.FromRows(schema.New("p#", "color"), [][]any{
		{"p1", "blue"}, {"p2", "blue"},
	}))
	node, err := db.Plan(`
SELECT s#
FROM supplies AS s DIVIDE BY (
    SELECT p# FROM parts WHERE color = 'blue') AS p
ON s.p# = p.p#`)
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Println(plan.Eval(node))
	// Output:
	// s#
	// s2
}

// ExampleDB_PlanWithDetection shows the NOT EXISTS pattern being
// rewritten to a first-class division.
func ExampleDB_PlanWithDetection() {
	db := sql.NewDB()
	db.Register("supplies", relation.FromRows(schema.New("s#", "p#"), [][]any{
		{"s1", "p1"}, {"s1", "p2"},
	}))
	db.Register("parts", relation.FromRows(schema.New("p#", "color"), [][]any{
		{"p1", "red"}, {"p2", "red"},
	}))
	_, detected, err := db.PlanWithDetection(`
SELECT DISTINCT s#, color
FROM supplies AS s1, parts AS p1
WHERE NOT EXISTS (
  SELECT * FROM parts AS p2
  WHERE p2.color = p1.color AND NOT EXISTS (
    SELECT * FROM supplies AS s2
    WHERE s2.p# = p2.p# AND s2.s# = s1.s#))`)
	fmt.Println(detected, err)
	// Output:
	// true <nil>
}
