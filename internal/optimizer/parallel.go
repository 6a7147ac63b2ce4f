package optimizer

import (
	"fmt"

	"divlaws/internal/plan"
)

// DefaultParallelThreshold is the estimated dividend cardinality
// above which a division is worth parallelizing: below it the
// partition-and-merge overhead dominates the per-partition work (the
// paper's §5.2.1 proviso).
const DefaultParallelThreshold = 1024

// ParallelOptions configures the parallelization pass.
type ParallelOptions struct {
	// Workers is the per-operator goroutine count; values below 2
	// disable the pass.
	Workers int
	// Threshold is the minimum estimated dividend cardinality for a
	// division to be rewritten; 0 means DefaultParallelThreshold.
	Threshold float64
}

// Parallelize rewrites Divide and GreatDivide nodes whose estimated
// dividend cardinality exceeds the threshold into their intra-
// operator parallel forms, the rewrite the paper derives from Law 2
// under c2: hash partitioning the dividend on the quotient attributes,
// which serves ÷* as well (see plan.ParallelGreatDivide). It is safe
// unconditionally — the partitioning establishes c2 by construction —
// so the threshold is purely a cost heuristic. The trace records each
// rewrite like a rule application.
//
// The pass is limit-aware by design: divisions beneath a plan.Limit
// are still parallelized, because the exchange operators stream —
// reaching the limit cancels the workers mid-quotient, so the
// parallel form costs at most what the limit consumes while the
// first rows still arrive a partition-width faster. The threshold
// keeps using the dividend estimate, not the limit, since the
// division must consume its whole dividend regardless of how little
// of the quotient the parent wants.
func Parallelize(n plan.Node, opts ParallelOptions) (plan.Node, []Applied) {
	if opts.Workers < 2 {
		return n, nil
	}
	threshold := opts.Threshold
	if threshold == 0 {
		threshold = DefaultParallelThreshold
	}
	var trace []Applied
	out := plan.Transform(n, func(node plan.Node) plan.Node {
		switch t := node.(type) {
		case *plan.Divide, *plan.GreatDivide:
			ch := node.Children()
			if Rows(ch[0]) < threshold {
				return node
			}
			var rewritten plan.Node = &plan.ParallelDivide{Dividend: ch[0], Divisor: ch[1], Workers: opts.Workers}
			if _, great := node.(*plan.GreatDivide); great {
				rewritten = &plan.ParallelGreatDivide{Dividend: ch[0], Divisor: ch[1], Workers: opts.Workers}
			}
			trace = append(trace, Applied{
				Rule:   fmt.Sprintf("Parallelize(Law 2/c2, workers=%d)", opts.Workers),
				Before: node.String(),
				Gain:   Cost(node) - Cost(rewritten),
			})
			return rewritten
		case *plan.TopK:
			// Order awareness: Transform runs bottom-up, so a division
			// beneath this TopK has already been rewritten to its
			// exchange form. The ordering survives parallelization —
			// exec pushes the bound into the partition workers (O(k)
			// heap each) and k-way merges at the consumer — so the pass
			// records the pushdown in the trace instead of declining
			// the rewrite; no structural change is needed here. The
			// compiler only fuses positive bounds (k=0 never opens the
			// subtree), so only those are traced.
			if t.K <= 0 {
				return node
			}
			switch t.Input.(type) {
			case *plan.ParallelDivide, *plan.ParallelGreatDivide:
				trace = append(trace, Applied{
					Rule:   fmt.Sprintf("PushTopK(per-partition k=%d + merge)", t.K),
					Before: t.String(),
				})
			}
			return node
		default:
			return node
		}
	})
	return out, trace
}
