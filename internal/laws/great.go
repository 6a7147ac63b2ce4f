package laws

import (
	"divlaws/internal/plan"
	"divlaws/internal/pred"
)

// Law13 distributes a great divide over a divisor union whose group
// attributes are disjoint:
// r1 ÷* (r2' ∪ r2”) = (r1 ÷* r2') ∪ (r1 ÷* r2”) when
// πC(r2') ∩ πC(r2”) = ∅ (§5.2.1). This is the paper's handle for
// partitioned-parallel great division.
func Law13() Rule {
	return Rule{
		Name:          "Law 13",
		Description:   "r1 ÷* (r2' ∪ r2'') = (r1 ÷* r2') ∪ (r1 ÷* r2'') when πC disjoint",
		DataDependent: true,
		Apply: func(n plan.Node) (plan.Node, bool) {
			d, ok := n.(*plan.GreatDivide)
			if !ok {
				return nil, false
			}
			u, ok := d.Divisor.(*plan.Set)
			if !ok || u.Op != plan.UnionOp {
				return nil, false
			}
			s, ok := greatSplit(d)
			if !ok {
				return nil, false
			}
			if !projectionsDisjoint(u.Left, u.Right, s.C.Attrs()) {
				return nil, false
			}
			return plan.Union(
				&plan.GreatDivide{Dividend: d.Dividend, Divisor: u.Left},
				&plan.GreatDivide{Dividend: d.Dividend, Divisor: u.Right},
			), true
		},
	}
}

// Law14 pushes a selection over quotient attributes A into the
// dividend: σp(A)(r1 ÷* r2) = σp(A)(r1) ÷* r2 (§5.2.2).
func Law14() Rule {
	return Rule{
		Name:        "Law 14",
		Description: "σp(A)(r1 ÷* r2) = σp(A)(r1) ÷* r2",
		Apply: func(n plan.Node) (plan.Node, bool) {
			sel, ok := n.(*plan.Select)
			if !ok {
				return nil, false
			}
			d, ok := sel.Input.(*plan.GreatDivide)
			if !ok {
				return nil, false
			}
			s, ok := greatSplit(d)
			if !ok || !pred.OnlyOver(sel.Pred, s.A) {
				return nil, false
			}
			return &plan.GreatDivide{
				Dividend: &plan.Select{Input: d.Dividend, Pred: sel.Pred},
				Divisor:  d.Divisor,
			}, true
		},
	}
}

// Law14Reverse pulls a dividend selection over A above the great
// divide.
func Law14Reverse() Rule {
	return Rule{
		Name:        "Law 14 (reverse)",
		Description: "σp(A)(r1) ÷* r2 = σp(A)(r1 ÷* r2)",
		Apply: func(n plan.Node) (plan.Node, bool) {
			d, ok := n.(*plan.GreatDivide)
			if !ok {
				return nil, false
			}
			sel, ok := d.Dividend.(*plan.Select)
			if !ok {
				return nil, false
			}
			s, ok := greatSplit(d)
			if !ok || !pred.OnlyOver(sel.Pred, s.A) {
				return nil, false
			}
			return &plan.Select{
				Input: &plan.GreatDivide{Dividend: sel.Input, Divisor: d.Divisor},
				Pred:  sel.Pred,
			}, true
		},
	}
}

// Law15 pushes a selection over divisor group attributes C into the
// divisor: σp(C)(r1 ÷* r2) = r1 ÷* σp(C)(r2) (§5.2.2).
func Law15() Rule {
	return Rule{
		Name:        "Law 15",
		Description: "σp(C)(r1 ÷* r2) = r1 ÷* σp(C)(r2)",
		Apply: func(n plan.Node) (plan.Node, bool) {
			sel, ok := n.(*plan.Select)
			if !ok {
				return nil, false
			}
			d, ok := sel.Input.(*plan.GreatDivide)
			if !ok {
				return nil, false
			}
			s, ok := greatSplit(d)
			if !ok || !pred.OnlyOver(sel.Pred, s.C) {
				return nil, false
			}
			return &plan.GreatDivide{
				Dividend: d.Dividend,
				Divisor:  &plan.Select{Input: d.Divisor, Pred: sel.Pred},
			}, true
		},
	}
}

// Law15Reverse pulls a divisor selection over C above the great
// divide.
func Law15Reverse() Rule {
	return Rule{
		Name:        "Law 15 (reverse)",
		Description: "r1 ÷* σp(C)(r2) = σp(C)(r1 ÷* r2)",
		Apply: func(n plan.Node) (plan.Node, bool) {
			d, ok := n.(*plan.GreatDivide)
			if !ok {
				return nil, false
			}
			sel, ok := d.Divisor.(*plan.Select)
			if !ok {
				return nil, false
			}
			s, ok := greatSplit(d)
			if !ok || !pred.OnlyOver(sel.Pred, s.C) {
				return nil, false
			}
			return &plan.Select{
				Input: &plan.GreatDivide{Dividend: d.Dividend, Divisor: sel.Input},
				Pred:  sel.Pred,
			}, true
		},
	}
}

// Law16 replicates a divisor selection over the element attributes B
// onto the dividend:
// r1 ÷* σp(B)(r2) = σp(B)(r1) ÷* σp(B)(r2) (§5.2.2).
func Law16() Rule {
	return Rule{
		Name:        "Law 16",
		Description: "r1 ÷* σp(B)(r2) = σp(B)(r1) ÷* σp(B)(r2)",
		Apply: func(n plan.Node) (plan.Node, bool) {
			d, ok := n.(*plan.GreatDivide)
			if !ok {
				return nil, false
			}
			sel, ok := d.Divisor.(*plan.Select)
			if !ok {
				return nil, false
			}
			s, ok := greatSplit(d)
			if !ok || !pred.OnlyOver(sel.Pred, s.B) {
				return nil, false
			}
			return &plan.GreatDivide{
				Dividend: &plan.Select{Input: d.Dividend, Pred: sel.Pred},
				Divisor:  d.Divisor,
			}, true
		},
	}
}

// Law16Reverse drops a dividend selection that replicates the
// divisor's B-restriction.
func Law16Reverse() Rule {
	return Rule{
		Name:        "Law 16 (reverse)",
		Description: "σp(B)(r1) ÷* σp(B)(r2) = r1 ÷* σp(B)(r2)",
		Apply: func(n plan.Node) (plan.Node, bool) {
			d, ok := n.(*plan.GreatDivide)
			if !ok {
				return nil, false
			}
			ds, ok := d.Dividend.(*plan.Select)
			if !ok {
				return nil, false
			}
			vs, ok := d.Divisor.(*plan.Select)
			if !ok || ds.Pred.String() != vs.Pred.String() {
				return nil, false
			}
			s, ok := greatSplit(d)
			if !ok || !pred.OnlyOver(ds.Pred, s.B) {
				return nil, false
			}
			return &plan.GreatDivide{Dividend: ds.Input, Divisor: d.Divisor}, true
		},
	}
}

// Law17 narrows a great divide of a Cartesian product to the factor
// carrying the element attributes:
// (r1* × r1**) ÷* r2 = r1* × (r1** ÷* r2) (§5.2.3).
func Law17() Rule {
	return Rule{
		Name:        "Law 17",
		Description: "(r1* × r1**) ÷* r2 = r1* × (r1** ÷* r2)",
		Apply: func(n plan.Node) (plan.Node, bool) {
			d, ok := n.(*plan.GreatDivide)
			if !ok {
				return nil, false
			}
			prod, ok := d.Dividend.(*plan.Product)
			if !ok {
				return nil, false
			}
			divisor := d.Divisor.Schema()
			left, right := prod.Left.Schema(), prod.Right.Schema()
			b := right.Intersect(divisor)
			// The left factor must carry only quotient attributes and
			// the right factor must still host a valid great divide.
			if !left.DisjointFrom(divisor) || b.Len() == 0 || right.Minus(b).Len() == 0 {
				return nil, false
			}
			return &plan.Product{
				Left:  prod.Left,
				Right: &plan.GreatDivide{Dividend: prod.Right, Divisor: d.Divisor},
			}, true
		},
	}
}

// Law17Reverse folds a product with a great divide back into a
// great divide of a product, the direction Example 4 uses to merge
// an equi-join into the dividend.
func Law17Reverse() Rule {
	return Rule{
		Name:        "Law 17 (reverse)",
		Description: "r1* × (r1** ÷* r2) = (r1* × r1**) ÷* r2",
		Apply: func(n plan.Node) (plan.Node, bool) {
			prod, ok := n.(*plan.Product)
			if !ok {
				return nil, false
			}
			d, ok := prod.Right.(*plan.GreatDivide)
			if !ok {
				return nil, false
			}
			if !prod.Left.Schema().DisjointFrom(d.Dividend.Schema()) ||
				!prod.Left.Schema().DisjointFrom(d.Divisor.Schema()) {
				return nil, false
			}
			return &plan.GreatDivide{
				Dividend: &plan.Product{Left: prod.Left, Right: d.Dividend},
				Divisor:  d.Divisor,
			}, true
		},
	}
}
