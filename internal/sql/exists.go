package sql

import (
	"fmt"

	"divlaws/internal/plan"
	"divlaws/internal/relation"
	"divlaws/internal/schema"
	"divlaws/internal/value"
)

// existsPred implements correlated [NOT] EXISTS with nested-
// iteration semantics: for every candidate tuple, outer column
// references inside the subquery are replaced by the tuple's values
// and the subquery is bound and evaluated afresh. This is the
// naive execution strategy for the paper's query Q3 — deliberately
// so, since Q3 exists to be compared against the DIVIDE BY plan.
type existsPred struct {
	db      *DB // the catalog snapshot the enclosing query was bound against
	sub     *Query
	negated bool
}

// Eval implements pred.Predicate.
func (e *existsPred) Eval(t relation.Tuple, sch schema.Schema) bool {
	substituted := e.db.substituteQuery(e.sub, sch, t, nil)
	node, err := e.db.bindQuery(substituted)
	if err != nil {
		panic(fmt.Sprintf("sql: correlated subquery failed to bind: %v", err))
	}
	nonEmpty := !plan.Eval(node).Empty()
	return nonEmpty != e.negated
}

// Attrs implements pred.Predicate. Correlated predicates may touch
// any outer attribute, so they advertise a sentinel name that never
// appears in a real schema; this keeps rewrite laws from relocating
// them (pred.OnlyOver is always false).
func (e *existsPred) Attrs() []string { return []string{"·correlated·"} }

// String implements pred.Predicate.
func (e *existsPred) String() string {
	if e.negated {
		return "NOT EXISTS (subquery)"
	}
	return "EXISTS (subquery)"
}

// substituteQuery deep-copies q, replacing column references that
// resolve in the outer schema (and not in any enclosing subquery
// scope on the stack) with literal values from the outer tuple.
func (db *DB) substituteQuery(q *Query, outer schema.Schema, t relation.Tuple, stack []schema.Schema) *Query {
	// The subquery's own FROM scope shadows outer names.
	var own schema.Schema
	if from, err := db.bindFrom(q.From); err == nil {
		own = from.Schema()
	}
	stack = append(stack, own)

	out := &Query{
		Distinct: q.Distinct,
		Star:     q.Star,
		From:     q.From,
		GroupBy:  q.GroupBy,
		OrderBy:  q.OrderBy,
		Select:   q.Select,
		Limit:    q.Limit,
		HasLimit: q.HasLimit,
	}
	out.Where = db.substituteExpr(q.Where, outer, t, stack)
	out.Having = db.substituteExpr(q.Having, outer, t, stack)
	return out
}

func (db *DB) substituteExpr(e Expr, outer schema.Schema, t relation.Tuple, stack []schema.Schema) Expr {
	switch x := e.(type) {
	case nil:
		return nil
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
			Left:  db.substituteScalar(x.Left, outer, t, stack),
			Right: db.substituteScalar(x.Right, outer, t, stack),
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

func (db *DB) substituteScalar(e Expr, outer schema.Schema, t relation.Tuple, stack []schema.Schema) Expr {
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
	idx := outer.MustIndex(attr)
	return valueLiteral(t[idx])
}

// valueLiteral converts a runtime value back into a literal AST
// node.
func valueLiteral(v value.Value) Expr {
	switch v.Kind() {
	case value.KindInt:
		return &Literal{Int: v.AsInt(), Kind: 'i'}
	case value.KindFloat:
		return &Literal{Float: v.AsFloat(), Kind: 'f'}
	case value.KindString:
		return &Literal{Str: v.AsString(), Kind: 's'}
	default:
		panic(fmt.Sprintf("sql: cannot correlate on %s values", v.Kind()))
	}
}
