package plan

import (
	"fmt"
	"strings"

	"divlaws/internal/algebra"
	"divlaws/internal/division"
	"divlaws/internal/relation"
)

// Eval materializes the plan bottom-up, the reference interpreter
// used to check law equivalences and as the fallback executor.
func Eval(n Node) *relation.Relation {
	switch t := n.(type) {
	case *Scan:
		return t.Rel
	case *Select:
		return algebra.Select(Eval(t.Input), t.Pred)
	case *Project:
		return algebra.Project(Eval(t.Input), t.Attrs...)
	case *Set:
		l, r := Eval(t.Left), Eval(t.Right)
		switch t.Op {
		case UnionOp:
			return algebra.Union(l, r)
		case IntersectOp:
			return algebra.Intersect(l, r)
		case DiffOp:
			return algebra.Diff(l, r)
		default:
			panic(fmt.Sprintf("plan: unknown set op %d", uint8(t.Op)))
		}
	case *Product:
		return algebra.Product(Eval(t.Left), Eval(t.Right))
	case *Join:
		return algebra.NaturalJoin(Eval(t.Left), Eval(t.Right))
	case *ThetaJoin:
		return algebra.ThetaJoin(Eval(t.Left), Eval(t.Right), t.Pred)
	case *SemiJoin:
		return algebra.SemiJoin(Eval(t.Left), Eval(t.Right))
	case *AntiSemiJoin:
		return algebra.AntiSemiJoin(Eval(t.Left), Eval(t.Right))
	case *Divide:
		algo := t.Algo
		if algo == "" {
			algo = division.AlgoHash
		}
		return division.DivideWith(algo, Eval(t.Dividend), Eval(t.Divisor))
	case *GreatDivide:
		return division.GreatDivide(Eval(t.Dividend), Eval(t.Divisor))
	case *ParallelDivide:
		// The same relation for any worker count: the oracle runs the
		// sequential reference algorithm, not the fan-out it checks.
		return Eval(&Divide{Dividend: t.Dividend, Divisor: t.Divisor})
	case *ParallelGreatDivide:
		return Eval(&GreatDivide{Dividend: t.Dividend, Divisor: t.Divisor})
	case *Sort:
		// Relations are sets, but insertion order is preserved by
		// Tuples(), so the compat path observes the ordering by
		// rebuilding the relation with sorted insertion order.
		in := Eval(t.Input)
		out := relation.New(in.Schema())
		for _, tup := range SortedTuples(in, t.Keys) {
			out.InsertOwned(tup)
		}
		return out
	case *TopK:
		// Must agree with Eval(Limit{Sort}) tuple-for-tuple, which the
		// shared SortedTuples ordering (canonical tie-break) guarantees.
		in := Eval(t.Input)
		out := relation.New(in.Schema())
		for i, tup := range SortedTuples(in, t.Keys) {
			if int64(i) >= t.K {
				break
			}
			out.InsertOwned(tup)
		}
		return out
	case *Limit:
		in := Eval(t.Input)
		if int64(in.Len()) <= t.N {
			return in
		}
		out := relation.New(in.Schema())
		for i, tup := range in.Tuples() {
			if int64(i) >= t.N {
				break
			}
			out.InsertOwned(tup)
		}
		return out
	case *Group:
		return algebra.Group(Eval(t.Input), t.By, t.Aggs)
	case *Rename:
		return algebra.Rename(Eval(t.Input), t.From, t.To)
	default:
		panic(fmt.Sprintf("plan: Eval of unknown node %T", n))
	}
}

// Format renders the plan as an indented tree, one operator per
// line, the shape optimizer traces print:
//
//	Divide
//	  Scan(r1)
//	  Union
//	    Scan(r2a)
//	    Scan(r2b)
func Format(n Node) string {
	var b strings.Builder
	format(&b, n, 0)
	return b.String()
}

func format(b *strings.Builder, n Node, depth int) {
	if depth > 0 {
		b.WriteByte('\n')
	}
	b.WriteString(strings.Repeat("  ", depth))
	b.WriteString(n.String())
	for _, c := range n.Children() {
		format(b, c, depth+1)
	}
}

// Equal reports structural equality of two plans: same operators
// with the same parameters over equal children. Scans compare by
// name and relation identity.
func Equal(a, b Node) bool {
	if sa, ok := a.(*Scan); ok {
		sb, ok := b.(*Scan)
		return ok && sa.Name == sb.Name && sa.Rel == sb.Rel
	}
	if a.String() != b.String() {
		return false
	}
	ca, cb := a.Children(), b.Children()
	if len(ca) != len(cb) {
		return false
	}
	if fmt.Sprintf("%T", a) != fmt.Sprintf("%T", b) {
		return false
	}
	for i := range ca {
		if !Equal(ca[i], cb[i]) {
			return false
		}
	}
	return true
}

// Transform applies fn to every node bottom-up, rebuilding the tree
// as needed. fn receives a node whose children are already
// transformed and returns its replacement.
func Transform(n Node, fn func(Node) Node) Node {
	ch := n.Children()
	if len(ch) > 0 {
		newCh := make([]Node, len(ch))
		changed := false
		for i, c := range ch {
			newCh[i] = Transform(c, fn)
			if newCh[i] != c {
				changed = true
			}
		}
		if changed {
			n = n.WithChildren(newCh)
		}
	}
	return fn(n)
}

// Count returns the number of nodes in the plan.
func Count(n Node) int {
	total := 1
	for _, c := range n.Children() {
		total += Count(c)
	}
	return total
}

// CountDivides returns how many (small or great) divide nodes the
// plan contains; rewrites that eliminate divisions use it in tests.
func CountDivides(n Node) int {
	total := 0
	switch n.(type) {
	case *Divide, *GreatDivide, *ParallelDivide, *ParallelGreatDivide:
		total++
	}
	for _, c := range n.Children() {
		total += CountDivides(c)
	}
	return total
}
