package sql

import (
	"testing"

	"divlaws/internal/plan"
	"divlaws/internal/relation"
	"divlaws/internal/schema"
)

// Query parses, binds, and evaluates a SELECT statement with the
// reference interpreter, returning the materialized result: the
// tests' compatibility path. The engine streams the same plans
// through package exec instead.
func (db *DB) Query(text string) (*relation.Relation, error) {
	n, err := db.Plan(text)
	if err != nil {
		return nil, err
	}
	return plan.Eval(n), nil
}

// nestedQuery evaluates q by nested iteration, the naive reading of
// correlated [NOT] EXISTS and the oracle the decorrelating binder is
// checked against: for every candidate tuple, the subquery's outer
// column references become the tuple's values, and the subquery is
// bound and evaluated afresh.
func (db *DB) nestedQuery(t testing.TB, q *Query) *relation.Relation {
	t.Helper()
	node, err := db.nestedPlan(t, q)
	if err != nil {
		t.Fatal(err)
	}
	return plan.Eval(node)
}

// nestedPlan binds q as bindQuery does, except that the WHERE clause
// is one Select over a nestedPred.
func (db *DB) nestedPlan(t testing.TB, q *Query) (plan.Node, error) {
	node, err := db.bindFrom(q.From)
	if err != nil {
		return nil, err
	}
	if q.Where != nil {
		node = &plan.Select{Input: node, Pred: &nestedPred{t: t, db: db, where: q.Where}}
	}
	var pre *preProjection
	if aggs := collectAggs(q); len(aggs) > 0 || len(q.GroupBy) > 0 {
		node, pre, err = db.bindGrouped(q, node, aggs)
	} else {
		node, pre, err = db.bindProjection(q, node)
	}
	if err != nil {
		return nil, err
	}
	if node, err = db.bindOrderBy(q, node, pre); err != nil {
		return nil, err
	}
	if q.HasLimit {
		node = &plan.Limit{Input: node, N: q.Limit}
	}
	return node, nil
}

// nestedPred evaluates a WHERE clause tuple by tuple, running every
// [NOT] EXISTS subquery once per tuple.
type nestedPred struct {
	t     testing.TB
	db    *DB
	where Expr
}

func (p *nestedPred) Eval(t relation.Tuple, sch schema.Schema) bool { return p.holds(p.where, t, sch) }
func (p *nestedPred) Attrs() []string                               { return nil }
func (p *nestedPred) String() string                                { return "nested(" + p.where.String() + ")" }

func (p *nestedPred) holds(e Expr, t relation.Tuple, sch schema.Schema) bool {
	switch x := e.(type) {
	case *BoolOp:
		if x.Op == "AND" {
			return p.holds(x.Left, t, sch) && p.holds(x.Right, t, sch)
		}
		return p.holds(x.Left, t, sch) || p.holds(x.Right, t, sch)
	case *NotExpr:
		return !p.holds(x.Inner, t, sch)
	case *ExistsExpr:
		node, err := p.db.nestedPlan(p.t, p.db.substituteQuery(x.Query, sch, t, nil))
		if err != nil {
			p.t.Fatalf("correlated subquery failed to bind: %v", err)
		}
		return plan.Eval(node).Empty() == x.Negated
	default:
		c, err := (&scope{sch: sch}).toPred(e, nil)
		if err != nil {
			p.t.Fatal(err)
		}
		return c.Eval(t, sch)
	}
}

// substituteQuery deep-copies q, replacing column references that
// resolve in the outer schema (and not in any enclosing subquery
// scope on the stack) with the outer tuple's values.
func (db *DB) substituteQuery(q *Query, outer schema.Schema, t relation.Tuple, stack []schema.Schema) *Query {
	// The subquery's own FROM scope shadows outer names.
	var own schema.Schema
	if from, err := db.bindFrom(q.From); err == nil {
		own = from.Schema()
	}
	stack = append(stack, own)

	out := *q
	out.Where = db.substituteExpr(q.Where, outer, t, stack)
	out.Having = db.substituteExpr(q.Having, outer, t, stack)
	return &out
}

func (db *DB) substituteExpr(e Expr, outer schema.Schema, t relation.Tuple, stack []schema.Schema) Expr {
	switch x := e.(type) {
	case *BoolOp:
		return &BoolOp{
			Op:    x.Op,
			Left:  db.substituteExpr(x.Left, outer, t, stack),
			Right: db.substituteExpr(x.Right, outer, t, stack),
		}
	case *NotExpr:
		return &NotExpr{Inner: db.substituteExpr(x.Inner, outer, t, stack)}
	case *Comparison:
		return &Comparison{
			Op:    x.Op,
			Left:  substituteScalar(x.Left, outer, t, stack),
			Right: substituteScalar(x.Right, outer, t, stack),
		}
	case *ExistsExpr:
		return &ExistsExpr{
			Negated: x.Negated,
			Query:   db.substituteQuery(x.Query, outer, t, stack),
		}
	default:
		return e
	}
}

// substituteScalar replaces an outer column reference with its value
// as a BoundArg, which carries every value kind.
func substituteScalar(e Expr, outer schema.Schema, t relation.Tuple, stack []schema.Schema) Expr {
	col, ok := e.(*ColumnRef)
	if !ok {
		return e
	}
	// Shadowed by an enclosing subquery scope? Then leave it alone.
	for _, sch := range stack {
		if _, err := resolveColumn(sch, col); err == nil {
			return e
		}
	}
	attr, err := resolveColumn(outer, col)
	if err != nil {
		return e // unresolved here; binding will report it
	}
	return &BoundArg{Val: t[outer.MustIndex(attr)]}
}
