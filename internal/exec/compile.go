package exec

import (
	"fmt"

	"divlaws/internal/division"
	"divlaws/internal/plan"
	"divlaws/internal/relation"
	"divlaws/internal/spill"
)

// CompileOptions tunes physical operator construction. It unifies the
// engine's sizing knobs — emission batch size, context-poll interval,
// exchange buffering — which are independently tunable and all
// default to their package constants when zero.
type CompileOptions struct {
	// ExchangeBuffer is the bounded-channel capacity, in batches, of
	// streaming parallel exchange operators; 0 means
	// DefaultExchangeBuffer. It governs backpressure: how far workers
	// may run ahead of the consumer.
	ExchangeBuffer int
	// BatchSize is the tuple capacity of operator batches and the
	// emission batch size of parallel exchange workers; 0 means
	// relation.DefaultBatchCap (== parallel.EmitBatchSize). It governs
	// amortization: how many tuples share one interface call.
	BatchSize int
	// CheckEvery is the cooperative ctx-poll interval of blocking
	// drains and parallel worker feeds, in tuples; 0 means
	// DefaultCheckEvery. It governs cancellation latency.
	CheckEvery int
	// MemoryLimit bounds the bytes of input state the plan's blocking
	// operators may hold live, in bytes. 0 defers to the
	// DIVLAWS_FORCE_SPILL environment override (unlimited when that is
	// unset too); negative is explicitly unlimited, overriding the
	// environment. Under a limit, sorts spill sorted runs and the hash
	// division/join operators grace-hash partition to temp files.
	MemoryLimit int64
	// Spill is the budget tracker shared by the plan's operators.
	// Usually nil: CompileWith builds one from MemoryLimit and ties its
	// lifetime (including temp-file cleanup) to the root cursor's
	// Close. A caller that needs to read spill counters after the query
	// passes its own tracker and owns its Close.
	Spill *spill.Tracker
}

// EffectiveMemoryLimit resolves the budget in bytes after the
// DIVLAWS_FORCE_SPILL environment override; 0 is unlimited. Callers
// that want to own the tracker (to read its counters after the query)
// use this to decide whether to build one before CompileWith.
func (o CompileOptions) EffectiveMemoryLimit() int64 {
	if o.MemoryLimit < 0 {
		return 0
	}
	if o.MemoryLimit > 0 {
		return o.MemoryLimit
	}
	return forceSpillEnv()
}

// Compile lowers a logical plan to a physical operator tree with
// default options, under the root cursor that serves it tuple by
// tuple. Every operator is labelled by its position so Stats exposes
// per-operator tuple counts. stats may be nil.
func Compile(n plan.Node, stats *Stats) *FromBatch {
	return CompileWith(n, stats, CompileOptions{})
}

// CompileWith is Compile with explicit options.
func CompileWith(n plan.Node, stats *Stats, opts CompileOptions) *FromBatch {
	var owned *spill.Tracker
	if opts.Spill == nil {
		if lim := opts.EffectiveMemoryLimit(); lim > 0 {
			owned = spill.NewTracker(lim)
			opts.Spill = owned
		}
	}
	return &FromBatch{Input: compile(n, stats, "root", opts), tr: owned}
}

// compile lowers one plan node and, recursively, its inputs.
func compile(n plan.Node, stats *Stats, label string, opts CompileOptions) BatchIterator {
	switch t := n.(type) {
	case *plan.Scan:
		return &ScanIter{
			Label:         label + "/scan(" + t.Name + ")",
			Rel:           t.Rel,
			Stats:         stats,
			windowBatcher: windowBatcher{BatchSize: opts.BatchSize},
		}
	case *plan.Select:
		return &FilterBatch{
			Label: label + "/filter",
			Input: compile(t.Input, stats, label+".0", opts),
			Pred:  t.Pred,
			Stats: stats,
		}
	case *plan.Project:
		return &ProjectBatch{
			Label: label + "/project",
			Input: compile(t.Input, stats, label+".0", opts),
			Attrs: t.Attrs,
			Stats: stats,
		}
	case *plan.Limit:
		return &LimitBatch{
			Label:         label + "/limit",
			Input:         compile(t.Input, stats, label+".0", opts),
			N:             t.N,
			Stats:         stats,
			windowBatcher: windowBatcher{BatchSize: opts.BatchSize},
		}
	case *plan.Sort:
		pos, desc := resolveSortKeys(t.Input.Schema(), t.Keys)
		return &SortIter{
			Label:         label + "/sort",
			Input:         compile(t.Input, stats, label+".0", opts),
			ByPos:         pos,
			Desc:          desc,
			Stats:         stats,
			Every:         opts.CheckEvery,
			Spill:         opts.Spill,
			windowBatcher: windowBatcher{BatchSize: opts.BatchSize},
		}
	case *plan.TopK:
		pos, desc := resolveSortKeys(t.Input.Schema(), t.Keys)
		// Over a parallel exchange the bound is pushed into the
		// partition workers: each keeps an O(k) heap and the exchange
		// k-way merges the per-partition runs, so the operator IS the
		// exchange — no separate heap above it. K <= 0 keeps the
		// generic TopKIter, which never opens the subtree.
		if t.K > 0 {
			if p := compileExchange(t.Input, stats, label+"/topk-", label+".0", opts); p != nil {
				p.TopKN, p.TopKPos, p.TopKDesc = t.K, pos, desc
				return p
			}
		}
		return &TopKIter{
			Label:         label + "/topk",
			Input:         compile(t.Input, stats, label+".0", opts),
			ByPos:         pos,
			Desc:          desc,
			K:             t.K,
			Stats:         stats,
			Every:         opts.CheckEvery,
			windowBatcher: windowBatcher{BatchSize: opts.BatchSize},
		}
	case *plan.Set:
		l := compile(t.Left, stats, label+".0", opts)
		r := compile(t.Right, stats, label+".1", opts)
		wb := windowBatcher{BatchSize: opts.BatchSize}
		switch t.Op {
		case plan.UnionOp:
			return &UnionIter{Label: label + "/union", Left: l, Right: r, Stats: stats, windowBatcher: wb}
		case plan.IntersectOp:
			return &HashSetOpIter{Label: label + "/intersect", Left: l, Right: r, Keep: true, Stats: stats, Every: opts.CheckEvery, windowBatcher: wb}
		default:
			return &HashSetOpIter{Label: label + "/diff", Left: l, Right: r, Keep: false, Stats: stats, Every: opts.CheckEvery, windowBatcher: wb}
		}
	case *plan.Product:
		return &ProductIter{
			Label:         label + "/product",
			Left:          compile(t.Left, stats, label+".0", opts),
			Right:         compile(t.Right, stats, label+".1", opts),
			Stats:         stats,
			Every:         opts.CheckEvery,
			windowBatcher: windowBatcher{BatchSize: opts.BatchSize},
		}
	case *plan.Join:
		return &HashJoinIter{
			Label:         label + "/hashjoin",
			Left:          compile(t.Left, stats, label+".0", opts),
			Right:         compile(t.Right, stats, label+".1", opts),
			Stats:         stats,
			Every:         opts.CheckEvery,
			Spill:         opts.Spill,
			windowBatcher: windowBatcher{BatchSize: opts.BatchSize},
		}
	case *plan.ThetaJoin:
		return &ThetaJoinIter{
			Label:         label + "/thetajoin",
			Left:          compile(t.Left, stats, label+".0", opts),
			Right:         compile(t.Right, stats, label+".1", opts),
			Pred:          t.Pred,
			Stats:         stats,
			Every:         opts.CheckEvery,
			windowBatcher: windowBatcher{BatchSize: opts.BatchSize},
		}
	case *plan.SemiJoin:
		return &SemiJoinIter{
			Label:         label + "/semijoin",
			Left:          compile(t.Left, stats, label+".0", opts),
			Right:         compile(t.Right, stats, label+".1", opts),
			Keep:          true,
			Stats:         stats,
			Every:         opts.CheckEvery,
			windowBatcher: windowBatcher{BatchSize: opts.BatchSize},
		}
	case *plan.AntiSemiJoin:
		return &SemiJoinIter{
			Label:         label + "/antisemijoin",
			Left:          compile(t.Left, stats, label+".0", opts),
			Right:         compile(t.Right, stats, label+".1", opts),
			Keep:          false,
			Stats:         stats,
			Every:         opts.CheckEvery,
			windowBatcher: windowBatcher{BatchSize: opts.BatchSize},
		}
	case *plan.Divide:
		dividend := compile(t.Dividend, stats, label+".0", opts)
		divisor := compile(t.Divisor, stats, label+".1", opts)
		if t.Algo == division.AlgoMergeSort {
			// Sort the dividend on A so the group-preserving
			// pipelined operator applies.
			split, err := division.SmallSplit(t.Dividend.Schema(), t.Divisor.Schema())
			if err == nil {
				sorted := &SortIter{
					Label:         label + "/sort",
					Input:         dividend,
					ByPos:         t.Dividend.Schema().Positions(split.A.Attrs()),
					Stats:         stats,
					Every:         opts.CheckEvery,
					Spill:         opts.Spill,
					windowBatcher: windowBatcher{BatchSize: opts.BatchSize},
				}
				return &MergeGroupDivideIter{
					Label:         label + "/mergedivide",
					Dividend:      sorted,
					Divisor:       divisor,
					Stats:         stats,
					Every:         opts.CheckEvery,
					windowBatcher: windowBatcher{BatchSize: opts.BatchSize},
				}
			}
		}
		return &HashDivideIter{
			Label:         label + "/hashdivide",
			Dividend:      dividend,
			Divisor:       divisor,
			Stats:         stats,
			Every:         opts.CheckEvery,
			Spill:         opts.Spill,
			windowBatcher: windowBatcher{BatchSize: opts.BatchSize},
		}
	case *plan.GreatDivide:
		return &HashDivideIter{
			Label:         label + "/greatdivide",
			Dividend:      compile(t.Dividend, stats, label+".0", opts),
			Divisor:       compile(t.Divisor, stats, label+".1", opts),
			Stats:         stats,
			Every:         opts.CheckEvery,
			Spill:         opts.Spill,
			windowBatcher: windowBatcher{BatchSize: opts.BatchSize},
		}
	case *plan.ParallelDivide, *plan.ParallelGreatDivide:
		return compileExchange(n, stats, label+"/", label, opts)
	case *plan.Group:
		return &GroupIter{
			Label:         label + "/group",
			Input:         compile(t.Input, stats, label+".0", opts),
			By:            t.By,
			Aggs:          t.Aggs,
			Stats:         stats,
			Every:         opts.CheckEvery,
			windowBatcher: windowBatcher{BatchSize: opts.BatchSize},
		}
	case *plan.Rename:
		return &RenameBatch{
			Input: compile(t.Input, stats, label+".0", opts),
			From:  t.From,
			To:    t.To,
		}
	default:
		panic(fmt.Sprintf("exec: cannot compile %T", n))
	}
}

// SimulatedDividePlan builds the basic-algebra simulation of
// r1 ÷ r2 (Healy's Definition 2) as a logical plan:
//
//	πA(r1) − πA((πA(r1) × r2) − r1)
//
// Compiling and running it through the engine demonstrates the
// quadratic intermediate result πA(r1) × r2 that Leinders & Van den
// Bussche proved unavoidable for basic-algebra expressions [25];
// compare its Stats against a first-class Divide node.
func SimulatedDividePlan(r1Name string, r1 *relation.Relation, r2Name string, r2 *relation.Relation) plan.Node {
	split, err := division.SmallSplit(r1.Schema(), r2.Schema())
	if err != nil {
		panic(err)
	}
	a := split.A.Attrs()
	r1Scan := plan.NewScan(r1Name, r1)
	// The product emits columns A then B; align r1 to that order so
	// the difference is positional-compatible.
	aligned := append(append([]string(nil), a...), split.B.Attrs()...)
	r1Aligned := plan.NewScan(r1Name+"(aligned)", r1.Reorder(aligned))
	piA := &plan.Project{Input: r1Scan, Attrs: a}
	candidates := &plan.Product{Left: piA, Right: plan.NewScan(r2Name, r2)}
	missing := &plan.Project{Input: plan.Diff(candidates, r1Aligned), Attrs: a}
	return plan.Diff(piA, missing)
}

// compileExchange compiles a ParallelDivide or ParallelGreatDivide
// node to the exchange operator labelled prefix + its kind, with its
// inputs under childLabel; it returns nil for any other node.
func compileExchange(n plan.Node, stats *Stats, prefix, childLabel string, opts CompileOptions) *ParallelDivideIter {
	var (
		dividend, divisor plan.Node
		algo              division.Algorithm
		workers           int
		kind              string
	)
	switch t := n.(type) {
	case *plan.ParallelDivide:
		dividend, divisor, algo, workers, kind = t.Dividend, t.Divisor, t.Algo, t.Workers, "paralleldivide"
	case *plan.ParallelGreatDivide:
		dividend, divisor, workers, kind = t.Dividend, t.Divisor, t.Workers, "parallelgreatdivide"
	default:
		return nil
	}
	return &ParallelDivideIter{
		Label:         prefix + kind,
		Dividend:      compile(dividend, stats, childLabel+".0", opts),
		Divisor:       compile(divisor, stats, childLabel+".1", opts),
		Algo:          algo,
		Workers:       workers,
		Buffer:        opts.ExchangeBuffer,
		Stats:         stats,
		Every:         opts.CheckEvery,
		Spill:         opts.Spill,
		windowBatcher: windowBatcher{BatchSize: opts.BatchSize},
	}
}
