// Package optimizer applies the division rewrite laws as cost-driven
// transformation rules over logical plans, the role the paper
// assigns them in §1.1: "together with heuristics and/or cost
// estimations, the optimizer applies transformation rules to
// subexpressions of the query such that the entire query can be
// evaluated with the minimal resource consumption".
package optimizer

import (
	"divlaws/internal/plan"
	"divlaws/internal/pred"
)

// Default selectivity and shrinkage factors of the cardinality
// estimator. They follow the classic System R style constants.
const (
	eqSelectivity    = 0.1
	rangeSelectivity = 1.0 / 3
	joinSelectivity  = 0.1
	groupShrink      = 1.0 / 3
	divideShrink     = 1.0 / 4
	semiJoinShrink   = 0.5
	diffShrink       = 0.5
)

// perTupleCost weights CPU work per tuple touched; materializing
// operators pay extra per output tuple.
const (
	cpuWeight  = 1.0
	hashWeight = 1.2
	sortWeight = 2.0
	// partitionWeight prices the hash-and-route pass of a parallel
	// exchange: one hash per tuple, cheaper than an operator's full
	// per-tuple work.
	partitionWeight = 0.25
)

// Estimate describes the optimizer's view of a plan: its expected
// output cardinality and cumulative cost.
type Estimate struct {
	Rows float64
	Cost float64
}

// Cost estimates the total cost of evaluating the plan. Leaf
// cardinalities are exact (scans are materialized); everything above
// uses standard independence heuristics.
func Cost(n plan.Node) float64 { return Estimated(n).Cost }

// Rows estimates the output cardinality of the plan.
func Rows(n plan.Node) float64 { return Estimated(n).Rows }

// Estimated computes rows and cost bottom-up.
func Estimated(n plan.Node) Estimate {
	switch t := n.(type) {
	case *plan.Scan:
		rows := float64(t.Rel.Len())
		return Estimate{Rows: rows, Cost: rows * cpuWeight}
	case *plan.Select:
		in := Estimated(t.Input)
		rows := in.Rows * selectivity(t.Pred)
		return Estimate{Rows: rows, Cost: in.Cost + in.Rows*cpuWeight}
	case *plan.Project:
		in := Estimated(t.Input)
		rows := in.Rows * 0.9 // projection may dedup a little
		return Estimate{Rows: rows, Cost: in.Cost + in.Rows*hashWeight}
	case *plan.Set:
		l, r := Estimated(t.Left), Estimated(t.Right)
		var rows float64
		switch t.Op {
		case plan.UnionOp:
			rows = l.Rows + r.Rows
		case plan.IntersectOp:
			rows = minf(l.Rows, r.Rows) * 0.5
		default: // DiffOp
			rows = l.Rows * diffShrink
		}
		return Estimate{Rows: rows, Cost: l.Cost + r.Cost + (l.Rows+r.Rows)*hashWeight}
	case *plan.Product:
		l, r := Estimated(t.Left), Estimated(t.Right)
		rows := l.Rows * r.Rows
		return Estimate{Rows: rows, Cost: l.Cost + r.Cost + rows*cpuWeight}
	case *plan.Join:
		l, r := Estimated(t.Left), Estimated(t.Right)
		rows := l.Rows * r.Rows * joinSelectivity
		return Estimate{Rows: rows, Cost: l.Cost + r.Cost + (l.Rows+r.Rows)*hashWeight + rows*cpuWeight}
	case *plan.ThetaJoin:
		l, r := Estimated(t.Left), Estimated(t.Right)
		rows := l.Rows * r.Rows * selectivity(t.Pred)
		// Theta-joins over arbitrary predicates pay nested-loop cost.
		return Estimate{Rows: rows, Cost: l.Cost + r.Cost + l.Rows*r.Rows*cpuWeight}
	case *plan.SemiJoin:
		l, r := Estimated(t.Left), Estimated(t.Right)
		rows := l.Rows * semiJoinShrink
		return Estimate{Rows: rows, Cost: l.Cost + r.Cost + (l.Rows+r.Rows)*hashWeight}
	case *plan.AntiSemiJoin:
		l, r := Estimated(t.Left), Estimated(t.Right)
		rows := l.Rows * semiJoinShrink
		return Estimate{Rows: rows, Cost: l.Cost + r.Cost + (l.Rows+r.Rows)*hashWeight}
	case *plan.Divide:
		d, v := Estimated(t.Dividend), Estimated(t.Divisor)
		rows := d.Rows * divideShrink
		// Hash-division is linear in both inputs.
		return Estimate{Rows: rows, Cost: d.Cost + v.Cost + (d.Rows+v.Rows)*hashWeight}
	case *plan.GreatDivide:
		d, v := Estimated(t.Dividend), Estimated(t.Divisor)
		rows := d.Rows * divideShrink
		return Estimate{Rows: rows, Cost: d.Cost + v.Cost + (d.Rows+v.Rows)*hashWeight}
	case *plan.ParallelDivide:
		d, v := Estimated(t.Dividend), Estimated(t.Divisor)
		rows := d.Rows * divideShrink
		w := float64(t.Workers)
		if w < 1 {
			w = 1
		}
		// Wall-clock view: each worker divides ~1/w of the dividend
		// against the full divisor concurrently; the range
		// partitioning pass and the quotient merge are sequential
		// overhead (the paper's §5.2.1 proviso).
		divide := (d.Rows/w + v.Rows) * hashWeight
		overhead := d.Rows*partitionWeight + rows*hashWeight
		return Estimate{Rows: rows, Cost: d.Cost + v.Cost + divide + overhead}
	case *plan.ParallelGreatDivide:
		d, v := Estimated(t.Dividend), Estimated(t.Divisor)
		rows := d.Rows * divideShrink
		w := float64(t.Workers)
		if w < 1 {
			w = 1
		}
		// Each worker divides its share of the dividend against the
		// replicated divisor; the model divides the divisor's work by
		// w too, optimistic only for a divisor that is small — the
		// regime (per §5.2.1) where the rewrite should fire at all.
		divide := (d.Rows + v.Rows) * hashWeight / w
		overhead := v.Rows*partitionWeight + rows*hashWeight
		return Estimate{Rows: rows, Cost: d.Cost + v.Cost + divide + overhead}
	case *plan.Limit:
		in := Estimated(t.Input)
		rows := minf(in.Rows, float64(t.N))
		// The physical LimitBatch stops pulling at N, so a streaming
		// subtree's cost is partially avoided; the model keeps the
		// child's full cost (blocking subtrees pay it anyway) plus a
		// per-emitted-tuple pass.
		return Estimate{Rows: rows, Cost: in.Cost + rows*cpuWeight}
	case *plan.Sort:
		in := Estimated(t.Input)
		// Full materialize-and-sort pays the sort weight per input
		// tuple; cardinality is unchanged (ordering a set).
		return Estimate{Rows: in.Rows, Cost: in.Cost + in.Rows*sortWeight}
	case *plan.TopK:
		in := Estimated(t.Input)
		rows := minf(in.Rows, float64(t.K))
		// A bounded heap touches every input tuple once at CPU weight
		// — strictly cheaper than Sort (sortWeight per tuple) + Limit,
		// which is what makes the FuseTopK rewrite always profitable.
		return Estimate{Rows: rows, Cost: in.Cost + in.Rows*cpuWeight + rows*cpuWeight}
	case *plan.Group:
		in := Estimated(t.Input)
		rows := in.Rows * groupShrink
		if len(t.By) == 0 {
			rows = 1
		}
		return Estimate{Rows: rows, Cost: in.Cost + in.Rows*hashWeight}
	case *plan.Rename:
		return Estimated(t.Input)
	default:
		// Unknown operators are costed pessimistically so rules that
		// introduce them never look free.
		var rows, cost float64
		for _, c := range n.Children() {
			e := Estimated(c)
			rows += e.Rows
			cost += e.Cost + e.Rows*sortWeight
		}
		return Estimate{Rows: rows, Cost: cost}
	}
}

// selectivity estimates the fraction of tuples passing a predicate.
func selectivity(p pred.Predicate) float64 {
	switch q := p.(type) {
	case pred.Cmp:
		if q.Op == pred.Eq {
			return eqSelectivity
		}
		if q.Op == pred.Ne {
			return 1 - eqSelectivity
		}
		return rangeSelectivity
	case pred.And:
		s := 1.0
		for _, sub := range q {
			s *= selectivity(sub)
		}
		return s
	case pred.Or:
		s := 0.0
		for _, sub := range q {
			s += selectivity(sub) * (1 - s)
		}
		return s
	case pred.Not:
		return 1 - selectivity(q.P)
	case pred.Literal:
		if bool(q) {
			return 1
		}
		return 0
	default:
		return rangeSelectivity
	}
}

func minf(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}
