package sql

import (
	"fmt"
	"strings"

	"divlaws/internal/laws"
	"divlaws/internal/optimizer"
	"divlaws/internal/plan"
)

// ExplainOptions configures Explain.
type ExplainOptions struct {
	// Detect rewrites NOT EXISTS universal quantification into
	// first-class divisions before anything else.
	Detect bool
	// Optimize applies the division rewrite laws.
	Optimize bool
	// AllowDataDependent enables c1-style data-dependent rule
	// preconditions during optimization.
	AllowDataDependent bool
	// Workers, when >= 2, parallelizes divisions whose estimated
	// dividend cardinality exceeds ParallelThreshold.
	Workers int
	// ParallelThreshold is the parallelization cutoff; 0 means
	// optimizer.DefaultParallelThreshold.
	ParallelThreshold float64
}

// Explained is the result of Explain: the final executable plan and
// a human-readable report of how it was derived.
type Explained struct {
	// Plan is the plan after all requested rewrites.
	Plan plan.Node
	// Detected reports whether a NOT EXISTS pattern was rewritten to
	// a division.
	Detected bool
	// Report is the rendered explanation: logical plan, optimized
	// plan with costs, the rule trace, and — for parallel operators —
	// the chosen partitioning strategy.
	Report string
}

// Explain plans a SELECT statement and renders every stage of the
// rewrite pipeline: detection, law-based optimization, and
// parallelization. It is the plan-printing surface behind divsql's
// -explain flag.
func (db *DB) Explain(text string, opts ExplainOptions) (Explained, error) {
	q, err := Parse(text)
	if err != nil {
		return Explained{}, err
	}
	return db.ExplainQuery(q, opts)
}

// ExplainQuery is Explain over an already-parsed (and, for prepared
// statements, parameter-substituted) query.
func (db *DB) ExplainQuery(q *Query, opts ExplainOptions) (Explained, error) {
	var ex Explained
	var node plan.Node
	var err error
	if opts.Detect {
		node, ex.Detected, err = db.PlanQueryWithDetection(q)
	} else {
		node, err = db.Bind(q)
	}
	if err != nil {
		return Explained{}, err
	}

	var b strings.Builder
	if ex.Detected {
		b.WriteString("-- NOT EXISTS pattern rewritten to a division --\n")
	}
	fmt.Fprintf(&b, "-- logical plan --\n%s\n", plan.Format(node))

	if opts.Optimize || opts.Workers >= 2 {
		res := optimizer.Optimize(node, optimizer.Options{
			AllowDataDependent: opts.AllowDataDependent,
			Rules:              rulesFor(opts),
			Parallel: optimizer.ParallelOptions{
				Workers:   opts.Workers,
				Threshold: opts.ParallelThreshold,
			},
		})
		node = res.Plan
		header := "optimized plan"
		if !opts.Optimize {
			header = "parallelized plan"
		}
		fmt.Fprintf(&b, "\n-- %s (cost %.0f -> %.0f) --\n%s\n", header, res.Initial, res.Final, plan.Format(node))
		for _, a := range res.Trace {
			fmt.Fprintf(&b, "   applied %s at %s (gain %.0f)\n", a.Rule, a.Before, a.Gain)
		}
		writePartitioning(&b, node)
	}
	ex.Plan = node
	ex.Report = b.String()
	return ex, nil
}

// rulesFor picks the law rule set: the full set when optimization is
// requested (nil means laws.All() to the optimizer), none when only
// parallelization is.
func rulesFor(opts ExplainOptions) []laws.Rule {
	if opts.Optimize {
		return nil
	}
	return []laws.Rule{}
}

// writePartitioning appends one line per parallel operator naming
// its partitioning strategy, and one per top-k over an exchange
// naming the per-partition pushdown.
func writePartitioning(b *strings.Builder, n plan.Node) {
	plan.Transform(n, func(node plan.Node) plan.Node {
		if workers, part, ok := exchange(node); ok {
			fmt.Fprintf(b, "   partitioning: %s across %d workers (Law 2/c2)\n", part, workers)
		} else if t, ok := node.(*plan.TopK); ok && t.K > 0 {
			// The compiler only fuses a positive bound into the
			// exchange; k=0 runs as a generic TopKIter that never
			// opens the subtree.
			if workers, part, ok := exchange(t.Input); ok {
				fmt.Fprintf(b, "   top-k: per-partition heap(k=%d) in %d workers over %s, k-way merge at the consumer\n",
					t.K, workers, part)
			}
		}
		return node
	})
}

// exchange reports the workers and partitioning of a parallel
// division node.
func exchange(n plan.Node) (workers int, partitioning string, ok bool) {
	switch t := n.(type) {
	case *plan.ParallelDivide:
		return t.Workers, t.Partitioning(), true
	case *plan.ParallelGreatDivide:
		return t.Workers, t.Partitioning(), true
	}
	return 0, "", false
}
