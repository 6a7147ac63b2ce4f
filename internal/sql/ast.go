package sql

import (
	"fmt"

	"divlaws/internal/value"
)

// Query is a parsed SELECT statement.
type Query struct {
	Distinct bool
	Select   []SelectItem // empty means SELECT *
	Star     bool
	From     []TableRef
	Where    Expr // nil if absent
	GroupBy  []ColumnRef
	Having   Expr // nil if absent
	OrderBy  []OrderItem
	// Limit caps the result cardinality when HasLimit is set. The
	// binder lowers it to a plan.Limit node, which the engine pushes
	// down as an early-exit signal: streaming operators beneath it
	// (parallel exchanges in particular) are cancelled once Limit
	// tuples have surfaced.
	Limit    int64
	HasLimit bool
	// Params is the number of ? placeholders in the whole statement,
	// including subqueries. It is set on the statement's outermost
	// Query by Parse; nested query blocks leave it zero.
	Params int
}

// SelectItem is one output column: a column reference or an
// aggregate call, optionally renamed.
type SelectItem struct {
	Expr Expr   // *ColumnRef or *AggCall
	As   string // optional alias
}

// OrderItem is one ORDER BY entry.
type OrderItem struct {
	Col  ColumnRef
	Desc bool
}

// TableRef is a table factor or a DIVIDE BY quotient.
type TableRef interface{ tableRef() }

// BaseTable references a catalog table with an optional alias.
type BaseTable struct {
	Name  string
	Alias string // defaults to Name
}

func (*BaseTable) tableRef() {}

// SubqueryTable is a derived table: (SELECT ...) AS alias.
type SubqueryTable struct {
	Query *Query
	Alias string
}

func (*SubqueryTable) tableRef() {}

// DivideTable is the paper's <quotient> production:
// dividend DIVIDE BY divisor ON condition.
type DivideTable struct {
	Dividend TableRef
	Divisor  TableRef
	On       Expr
}

func (*DivideTable) tableRef() {}

// Expr is a boolean or scalar expression node.
type Expr interface{ fmt.Stringer }

// ColumnRef is a possibly qualified column reference.
type ColumnRef struct {
	Table  string // optional qualifier
	Column string
}

// String renders the reference as written.
func (c *ColumnRef) String() string {
	if c.Table != "" {
		return c.Table + "." + c.Column
	}
	return c.Column
}

// Literal is a constant: int64, float64 or string payload.
type Literal struct {
	Int   int64
	Float float64
	Str   string
	Kind  byte // 'i', 'f', 's'
}

// String renders the literal in SQL syntax.
func (l *Literal) String() string {
	switch l.Kind {
	case 'i':
		return fmt.Sprintf("%d", l.Int)
	case 'f':
		return fmt.Sprintf("%g", l.Float)
	default:
		return "'" + l.Str + "'"
	}
}

// Placeholder is a positional ? parameter. Ordinal is its zero-based
// position in source order across the whole statement; the binder
// refuses queries still containing placeholders — SubstituteParams
// replaces them with BoundArg values at bind time.
type Placeholder struct {
	Ordinal int
}

// String implements Expr.
func (*Placeholder) String() string { return "?" }

// BoundArg is a placeholder after parameter binding: an
// already-typed constant carrying any value kind (including bool and
// NULL, which Literal cannot express).
type BoundArg struct {
	Val value.Value
}

// String implements Expr.
func (b *BoundArg) String() string { return b.Val.String() }

// Comparison is left op right with op in =, <>, <, <=, >, >=.
type Comparison struct {
	Left  Expr
	Op    string
	Right Expr
}

// String implements Expr.
func (c *Comparison) String() string {
	return fmt.Sprintf("%s %s %s", c.Left, c.Op, c.Right)
}

// BoolOp is AND/OR over two operands.
type BoolOp struct {
	Op          string // "AND" or "OR"
	Left, Right Expr
}

// String implements Expr.
func (b *BoolOp) String() string {
	return fmt.Sprintf("(%s %s %s)", b.Left, b.Op, b.Right)
}

// NotExpr negates an expression.
type NotExpr struct{ Inner Expr }

// String implements Expr.
func (n *NotExpr) String() string { return "NOT (" + n.Inner.String() + ")" }

// ExistsExpr is [NOT] EXISTS (subquery); Negated folds the NOT in.
type ExistsExpr struct {
	Query   *Query
	Negated bool
}

// String implements Expr.
func (e *ExistsExpr) String() string {
	if e.Negated {
		return "NOT EXISTS (...)"
	}
	return "EXISTS (...)"
}

// AggCall is an aggregate function call in a select list or HAVING:
// count(*), count(col), sum(col), min/max/avg(col).
type AggCall struct {
	Func string // lowercase function name
	Arg  *ColumnRef
	Star bool
}

// String implements Expr.
func (a *AggCall) String() string {
	if a.Star {
		return a.Func + "(*)"
	}
	return a.Func + "(" + a.Arg.String() + ")"
}

// describeRef renders a TableRef for error messages.
func describeRef(t TableRef) string {
	switch r := t.(type) {
	case *BaseTable:
		if r.Alias != "" && r.Alias != r.Name {
			return r.Name + " AS " + r.Alias
		}
		return r.Name
	case *SubqueryTable:
		return "(subquery) AS " + r.Alias
	case *DivideTable:
		return describeRef(r.Dividend) + " DIVIDE BY " + describeRef(r.Divisor)
	default:
		return fmt.Sprintf("%T", t)
	}
}
