// Package plan defines the logical query algebra: an immutable
// expression tree over relations with the operators of the paper's
// Appendix A plus the small and great divide as first-class nodes.
//
// The rewrite laws (package laws) are transformations over these
// trees; Eval is the reference interpreter that materializes any
// plan bottom-up using package algebra and package division, so law
// equivalences can be checked by evaluating both sides.
package plan

import (
	"fmt"
	"strings"

	"divlaws/internal/algebra"
	"divlaws/internal/division"
	"divlaws/internal/pred"
	"divlaws/internal/relation"
	"divlaws/internal/schema"
)

// Node is a logical plan operator.
type Node interface {
	// Schema returns the output schema of the operator. It panics on
	// schema violations (the same contract as package algebra).
	Schema() schema.Schema
	// Children returns the operator's inputs in order.
	Children() []Node
	// WithChildren returns a copy of the operator with the inputs
	// replaced. len(ch) must match len(Children()).
	WithChildren(ch []Node) Node
	// String renders the operator itself (one line, no children).
	String() string
}

// Scan is a leaf node reading a named base relation.
type Scan struct {
	Name string
	Rel  *relation.Relation
}

// NewScan builds a leaf over a materialized relation.
func NewScan(name string, rel *relation.Relation) *Scan { return &Scan{Name: name, Rel: rel} }

// Schema implements Node.
func (s *Scan) Schema() schema.Schema { return s.Rel.Schema() }

// Children implements Node.
func (s *Scan) Children() []Node { return nil }

// WithChildren implements Node.
func (s *Scan) WithChildren(ch []Node) Node {
	mustArity("Scan", ch, 0)
	return s
}

// String implements Node.
func (s *Scan) String() string { return fmt.Sprintf("Scan(%s)", s.Name) }

// Select is σ_p(input).
type Select struct {
	Input Node
	Pred  pred.Predicate
}

// Schema implements Node.
func (s *Select) Schema() schema.Schema { return s.Input.Schema() }

// Children implements Node.
func (s *Select) Children() []Node { return []Node{s.Input} }

// WithChildren implements Node.
func (s *Select) WithChildren(ch []Node) Node {
	mustArity("Select", ch, 1)
	return &Select{Input: ch[0], Pred: s.Pred}
}

// String implements Node.
func (s *Select) String() string { return fmt.Sprintf("Select[%s]", s.Pred) }

// Project is π_attrs(input).
type Project struct {
	Input Node
	Attrs []string
}

// Schema implements Node.
func (p *Project) Schema() schema.Schema {
	sch, _ := p.Input.Schema().Project(p.Attrs)
	return sch
}

// Children implements Node.
func (p *Project) Children() []Node { return []Node{p.Input} }

// WithChildren implements Node.
func (p *Project) WithChildren(ch []Node) Node {
	mustArity("Project", ch, 1)
	return &Project{Input: ch[0], Attrs: p.Attrs}
}

// String implements Node.
func (p *Project) String() string { return fmt.Sprintf("Project[%s]", strings.Join(p.Attrs, ", ")) }

// SetOp identifies a binary set operator.
type SetOp uint8

// The set operators.
const (
	UnionOp SetOp = iota
	IntersectOp
	DiffOp
)

// String returns the operator symbol.
func (o SetOp) String() string {
	switch o {
	case UnionOp:
		return "Union"
	case IntersectOp:
		return "Intersect"
	case DiffOp:
		return "Diff"
	default:
		return fmt.Sprintf("SetOp(%d)", uint8(o))
	}
}

// Set is a union, intersection, or difference of union-compatible
// inputs.
type Set struct {
	Op          SetOp
	Left, Right Node
}

// Schema implements Node.
func (s *Set) Schema() schema.Schema { return s.Left.Schema() }

// Children implements Node.
func (s *Set) Children() []Node { return []Node{s.Left, s.Right} }

// WithChildren implements Node.
func (s *Set) WithChildren(ch []Node) Node {
	mustArity(s.Op.String(), ch, 2)
	return &Set{Op: s.Op, Left: ch[0], Right: ch[1]}
}

// String implements Node.
func (s *Set) String() string { return s.Op.String() }

// Union returns left ∪ right.
func Union(l, r Node) *Set { return &Set{Op: UnionOp, Left: l, Right: r} }

// Intersect returns left ∩ right.
func Intersect(l, r Node) *Set { return &Set{Op: IntersectOp, Left: l, Right: r} }

// Diff returns left − right.
func Diff(l, r Node) *Set { return &Set{Op: DiffOp, Left: l, Right: r} }

// Product is the Cartesian product left × right.
type Product struct {
	Left, Right Node
}

// Schema implements Node.
func (p *Product) Schema() schema.Schema { return p.Left.Schema().Concat(p.Right.Schema()) }

// Children implements Node.
func (p *Product) Children() []Node { return []Node{p.Left, p.Right} }

// WithChildren implements Node.
func (p *Product) WithChildren(ch []Node) Node {
	mustArity("Product", ch, 2)
	return &Product{Left: ch[0], Right: ch[1]}
}

// String implements Node.
func (p *Product) String() string { return "Product" }

// Join is the natural join left ⋈ right.
type Join struct {
	Left, Right Node
}

// Schema implements Node.
func (j *Join) Schema() schema.Schema { return j.Left.Schema().Union(j.Right.Schema()) }

// Children implements Node.
func (j *Join) Children() []Node { return []Node{j.Left, j.Right} }

// WithChildren implements Node.
func (j *Join) WithChildren(ch []Node) Node {
	mustArity("Join", ch, 2)
	return &Join{Left: ch[0], Right: ch[1]}
}

// String implements Node.
func (j *Join) String() string { return "Join" }

// ThetaJoin is left ⋈θ right over disjoint schemas.
type ThetaJoin struct {
	Left, Right Node
	Pred        pred.Predicate
}

// Schema implements Node.
func (j *ThetaJoin) Schema() schema.Schema { return j.Left.Schema().Concat(j.Right.Schema()) }

// Children implements Node.
func (j *ThetaJoin) Children() []Node { return []Node{j.Left, j.Right} }

// WithChildren implements Node.
func (j *ThetaJoin) WithChildren(ch []Node) Node {
	mustArity("ThetaJoin", ch, 2)
	return &ThetaJoin{Left: ch[0], Right: ch[1], Pred: j.Pred}
}

// String implements Node.
func (j *ThetaJoin) String() string { return fmt.Sprintf("ThetaJoin[%s]", j.Pred) }

// SemiJoin is the left semi-join left ⋉ right.
type SemiJoin struct {
	Left, Right Node
}

// Schema implements Node.
func (j *SemiJoin) Schema() schema.Schema { return j.Left.Schema() }

// Children implements Node.
func (j *SemiJoin) Children() []Node { return []Node{j.Left, j.Right} }

// WithChildren implements Node.
func (j *SemiJoin) WithChildren(ch []Node) Node {
	mustArity("SemiJoin", ch, 2)
	return &SemiJoin{Left: ch[0], Right: ch[1]}
}

// String implements Node.
func (j *SemiJoin) String() string { return "SemiJoin" }

// AntiSemiJoin is the left anti-semi-join.
type AntiSemiJoin struct {
	Left, Right Node
}

// Schema implements Node.
func (j *AntiSemiJoin) Schema() schema.Schema { return j.Left.Schema() }

// Children implements Node.
func (j *AntiSemiJoin) Children() []Node { return []Node{j.Left, j.Right} }

// WithChildren implements Node.
func (j *AntiSemiJoin) WithChildren(ch []Node) Node {
	mustArity("AntiSemiJoin", ch, 2)
	return &AntiSemiJoin{Left: ch[0], Right: ch[1]}
}

// String implements Node.
func (j *AntiSemiJoin) String() string { return "AntiSemiJoin" }

// Divide is the small divide dividend ÷ divisor.
type Divide struct {
	Dividend, Divisor Node
	// Algo optionally pins a physical algorithm; empty means the
	// engine default (hash-division).
	Algo division.Algorithm
}

// Schema implements Node.
func (d *Divide) Schema() schema.Schema {
	split, err := division.SmallSplit(d.Dividend.Schema(), d.Divisor.Schema())
	if err != nil {
		panic(err)
	}
	return split.A
}

// Children implements Node.
func (d *Divide) Children() []Node { return []Node{d.Dividend, d.Divisor} }

// WithChildren implements Node.
func (d *Divide) WithChildren(ch []Node) Node {
	mustArity("Divide", ch, 2)
	return &Divide{Dividend: ch[0], Divisor: ch[1], Algo: d.Algo}
}

// String implements Node.
func (d *Divide) String() string {
	if d.Algo != "" {
		return fmt.Sprintf("Divide[%s]", d.Algo)
	}
	return "Divide"
}

// GreatDivide is dividend ÷* divisor.
type GreatDivide struct {
	Dividend, Divisor Node
}

// Schema implements Node.
func (d *GreatDivide) Schema() schema.Schema {
	split, err := division.GreatSplit(d.Dividend.Schema(), d.Divisor.Schema())
	if err != nil {
		panic(err)
	}
	return split.A.Concat(split.C)
}

// Children implements Node.
func (d *GreatDivide) Children() []Node { return []Node{d.Dividend, d.Divisor} }

// WithChildren implements Node.
func (d *GreatDivide) WithChildren(ch []Node) Node {
	mustArity("GreatDivide", ch, 2)
	return &GreatDivide{Dividend: ch[0], Divisor: ch[1]}
}

// String implements Node.
func (d *GreatDivide) String() string { return "GreatDivide" }

// Group is the grouping operator Byγ_Aggs(input).
type Group struct {
	Input Node
	By    []string
	Aggs  []algebra.AggSpec
}

// Schema implements Node.
func (g *Group) Schema() schema.Schema {
	attrs := append([]string(nil), g.By...)
	for _, a := range g.Aggs {
		attrs = append(attrs, a.As)
	}
	return schema.New(attrs...)
}

// Children implements Node.
func (g *Group) Children() []Node { return []Node{g.Input} }

// WithChildren implements Node.
func (g *Group) WithChildren(ch []Node) Node {
	mustArity("Group", ch, 1)
	return &Group{Input: ch[0], By: g.By, Aggs: g.Aggs}
}

// String implements Node.
func (g *Group) String() string {
	parts := make([]string, len(g.Aggs))
	for i, a := range g.Aggs {
		parts[i] = a.String()
	}
	return fmt.Sprintf("Group[by=(%s); %s]", strings.Join(g.By, ", "), strings.Join(parts, ", "))
}

// Limit caps its input at the first N tuples. Relations are sets, so
// which N tuples survive is implementation-defined; the operator
// exists as an early-exit signal: the physical LimitBatch stops
// pulling — and tears down streaming subtrees such as parallel
// exchanges — as soon as N tuples have surfaced.
type Limit struct {
	Input Node
	N     int64
}

// Schema implements Node.
func (l *Limit) Schema() schema.Schema { return l.Input.Schema() }

// Children implements Node.
func (l *Limit) Children() []Node { return []Node{l.Input} }

// WithChildren implements Node.
func (l *Limit) WithChildren(ch []Node) Node {
	mustArity("Limit", ch, 1)
	return &Limit{Input: ch[0], N: l.N}
}

// String implements Node.
func (l *Limit) String() string { return fmt.Sprintf("Limit[%d]", l.N) }

// Rename renames one attribute of its input.
type Rename struct {
	Input    Node
	From, To string
}

// Schema implements Node.
func (r *Rename) Schema() schema.Schema { return r.Input.Schema().Rename(r.From, r.To) }

// Children implements Node.
func (r *Rename) Children() []Node { return []Node{r.Input} }

// WithChildren implements Node.
func (r *Rename) WithChildren(ch []Node) Node {
	mustArity("Rename", ch, 1)
	return &Rename{Input: ch[0], From: r.From, To: r.To}
}

// String implements Node.
func (r *Rename) String() string { return fmt.Sprintf("Rename[%s->%s]", r.From, r.To) }

func mustArity(op string, ch []Node, n int) {
	if len(ch) != n {
		panic(fmt.Sprintf("plan: %s expects %d children, got %d", op, n, len(ch)))
	}
}
