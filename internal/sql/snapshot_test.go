package sql

import (
	"fmt"
	"testing"

	"divlaws/internal/plan"
	"divlaws/internal/relation"
	"divlaws/internal/schema"
	"divlaws/internal/value"
)

// suppliesOfSize builds supplies(s#, p#) with n rows over 40 parts.
func suppliesOfSize(n int) *relation.Relation {
	r := relation.New(schema.New("s#", "p#"))
	for i := 0; i < n; i++ {
		r.InsertOwned(relation.Tuple{
			value.String(fmt.Sprintf("s%d", i/40)),
			value.String(fmt.Sprintf("p%d", i%40)),
		})
	}
	return r
}

// Binding a table reference is a schema-only view of the registered
// relation, so a bind must cost the same objects whatever the table
// holds. Before the view, this bind re-inserted every dividend row.
func TestBindAllocationsIndependentOfCardinality(t *testing.T) {
	q, err := Parse(queryQ1)
	if err != nil {
		t.Fatal(err)
	}
	allocs := func(rows int) float64 {
		db := suppliersDB()
		supplies := suppliesOfSize(rows)
		db.Register("supplies", supplies)
		var node plan.Node
		n := testing.AllocsPerRun(20, func() {
			if node, _, err = db.PlanQueryWithDetection(q); err != nil {
				t.Fatal(err)
			}
		})
		// The bound scan must be a view of the registered storage.
		scan := findScan(node, "supplies")
		if scan == nil || &scan.Rel.Tuples()[0] != &supplies.Tuples()[0] {
			t.Errorf("%d rows: the bound scan of supplies does not share the registered tuples", rows)
		}
		return n
	}
	if small, large := allocs(1_000), allocs(100_000); small != large {
		t.Errorf("bind allocates %v objects over 1000 rows, %v over 100000", small, large)
	}
}

func findScan(n plan.Node, name string) *plan.Scan {
	if s, ok := n.(*plan.Scan); ok && s.Name == name {
		return s
	}
	for _, c := range n.Children() {
		if s := findScan(c, name); s != nil {
			return s
		}
	}
	return nil
}

// A plan's correlated subqueries are decorrelated into its nodes when
// it binds, so the whole plan — subqueries included — reads the
// catalog it was bound against, not a table registered since (the
// torn read of ROADMAP item 4(i)).
func TestCorrelatedSubqueryKeepsBindTimeCatalog(t *testing.T) {
	db := suppliersDB()
	node, err := db.Plan(queryQ3) // no detection: anti-semi-joins
	if err != nil {
		t.Fatal(err)
	}
	db.Register("parts", relation.FromRows(schema.New("p#", "color"), [][]any{{"p5", "green"}}))
	db.Register("supplies", relation.FromRows(schema.New("s#", "p#"), [][]any{{"s9", "p5"}}))
	if got := plan.Eval(node); !got.EquivalentTo(q1Expected()) {
		t.Errorf("plan bound before Register evaluated to %v, want %v", got, q1Expected())
	}
	after, err := db.Query(queryQ3)
	if err != nil {
		t.Fatal(err)
	}
	want := relation.FromRows(schema.New("s#", "color"), [][]any{{"s9", "green"}})
	if !after.EquivalentTo(want) {
		t.Errorf("query planned after Register = %v, want %v", after, want)
	}
}
