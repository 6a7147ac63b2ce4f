package exec

import (
	"fmt"
	"runtime"

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
	// relation.DefaultBatchCap. It governs amortization: how many
	// tuples share one interface call.
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
	// division/join operators grace-hash partition into spilled runs.
	MemoryLimit int64
	// Spill is the budget tracker shared by the plan's operators.
	// Usually nil: CompileWith builds one from MemoryLimit and ties its
	// lifetime (including its spill file) to the root cursor's
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
	return &FromBatch{Input: compile(n, stats, "root", opts, true), tr: owned}
}

// compile lowers one plan node and, recursively, its inputs. borrow
// reports whether the node's consumer drops each tuple before its next
// NextBatch on the node, so the node may emit borrowed tuples: ones
// valid only until that next call, which lets the product, hash join
// and spilled sort merge emit paths rewind one slab chunk per batch
// instead of carving a fresh one. Compile decides it from the plan's
// structure alone, each consumer in one of three categories:
//
//   - Drops its input, so the child may borrow: the root cursor, the
//     ÷/÷* dividend unbudgeted at one worker (the division states do
//     not retain a dividend tuple), the ÷ divisor likewise (its index
//     copies the B projection), the probe sides of the product and the
//     natural join (each probe tuple is only concatenated), the build
//     side of ⋈, ⋉, ▷, ∩ and − (the key index and the extras slab copy
//     what they keep), and the input of γ (the index copies the keys
//     it keeps, and the states fold values).
//   - Forwards the flag to its child, passing the child's tuples on as
//     its own output: Filter, Rename, Limit, Project, the theta join's
//     inner product, and the probe side of ⋉, ▷, ∩ and −. (Only a
//     full-width Project passes tuples on; a narrowing one copies what
//     it emits, so forwarding is merely conservative for it.)
//   - Keeps the child's tuples, so the child is always owned: everything
//     else — a budgeted or parallel division's buffers, the ÷* divisor,
//     the right side of the product (a join without common attributes
//     included), Sort, TopK and Union. A sort keeps its input, but
//     its own output borrows when its consumer drops it, except the
//     dividend sort of the merge-group division, which stays owned.
//     An operator not yet checked by reading its code belongs here.
func compile(n plan.Node, stats *Stats, label string, opts CompileOptions, borrow bool) BatchIterator {
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
			Input: compile(t.Input, stats, label+".0", opts, borrow),
			Pred:  t.Pred,
			Stats: stats,
		}
	case *plan.Project:
		return &ProjectBatch{
			Label: label + "/project",
			Input: compile(t.Input, stats, label+".0", opts, borrow),
			Attrs: t.Attrs,
			Stats: stats,
		}
	case *plan.Limit:
		return &LimitBatch{
			Label:         label + "/limit",
			Input:         compile(t.Input, stats, label+".0", opts, borrow),
			N:             t.N,
			Stats:         stats,
			windowBatcher: windowBatcher{BatchSize: opts.BatchSize},
		}
	case *plan.Sort:
		pos, desc := resolveSortKeys(t.Input.Schema(), t.Keys)
		return &SortIter{
			Label:         label + "/sort",
			Input:         compile(t.Input, stats, label+".0", opts, false),
			ByPos:         pos,
			Desc:          desc,
			Stats:         stats,
			Every:         opts.CheckEvery,
			Spill:         opts.Spill,
			half:          opts.Spill != nil && holdsBudgeted(t.Input),
			windowBatcher: windowBatcher{BatchSize: opts.BatchSize},
			borrowed:      borrow,
		}
	case *plan.TopK:
		pos, desc := resolveSortKeys(t.Input.Schema(), t.Keys)
		// Over a parallel division with workers the bound is pushed
		// into them: each keeps an O(k) heap and the last k-way merges
		// the runs, so the operator IS the division — no separate heap
		// above it. K <= 0 keeps the generic TopKIter, which never
		// opens the subtree; so does an inline division.
		if t.K > 0 {
			if p := compileExchange(t.Input, stats, label+"/topk-", label+".0", opts); p != nil && p.Workers > 1 {
				p.TopKN, p.TopKPos, p.TopKDesc = t.K, pos, desc
				return p
			}
		}
		return &TopKIter{
			Label:         label + "/topk",
			Input:         compile(t.Input, stats, label+".0", opts, false),
			ByPos:         pos,
			Desc:          desc,
			K:             t.K,
			Stats:         stats,
			Every:         opts.CheckEvery,
			windowBatcher: windowBatcher{BatchSize: opts.BatchSize},
		}
	case *plan.Set:
		switch t.Op {
		case plan.IntersectOp:
			return compileJoin("intersect", JoinSemi, "intersection", t.Left, t.Right, stats, label, opts, borrow)
		case plan.DiffOp:
			return compileJoin("diff", JoinAnti, "difference", t.Left, t.Right, stats, label, opts, borrow)
		}
		l, r := compile(t.Left, stats, label+".0", opts, false), compile(t.Right, stats, label+".1", opts, false)
		return &UnionIter{Label: label + "/union", Left: l, Right: r, Stats: stats, windowBatcher: windowBatcher{BatchSize: opts.BatchSize}}
	case *plan.Product:
		return &ProductIter{
			Label:         label + "/product",
			Left:          compile(t.Left, stats, label+".0", opts, true),
			Right:         compile(t.Right, stats, label+".1", opts, false),
			Stats:         stats,
			Every:         opts.CheckEvery,
			windowBatcher: windowBatcher{BatchSize: opts.BatchSize},
			borrowed:      borrow,
		}
	case *plan.Join:
		if t.Left.Schema().DisjointFrom(t.Right.Schema()) {
			// The product the join degenerates to, under the join's label.
			p := compile(&plan.Product{Left: t.Left, Right: t.Right}, stats, label, opts, borrow).(*ProductIter)
			p.Label = label + "/hashjoin"
			return p
		}
		return compileJoin("hashjoin", JoinInner, "", t.Left, t.Right, stats, label, opts, borrow)
	case *plan.ThetaJoin:
		return &ThetaJoinIter{
			Label:         label + "/thetajoin",
			Left:          compile(t.Left, stats, label+".0", opts, true),
			Right:         compile(t.Right, stats, label+".1", opts, false),
			Pred:          t.Pred,
			Stats:         stats,
			Every:         opts.CheckEvery,
			windowBatcher: windowBatcher{BatchSize: opts.BatchSize},
			borrowed:      borrow,
		}
	case *plan.SemiJoin:
		return compileJoin("semijoin", JoinSemi, "", t.Left, t.Right, stats, label, opts, borrow)
	case *plan.AntiSemiJoin:
		return compileJoin("antisemijoin", JoinAnti, "", t.Left, t.Right, stats, label, opts, borrow)
	case *plan.Divide:
		if t.Algo == division.AlgoMergeSort {
			// Sort the dividend on A so the group-preserving
			// pipelined operator applies.
			split, err := division.SmallSplit(t.Dividend.Schema(), t.Divisor.Schema())
			if err == nil {
				sorted := &SortIter{
					Label:         label + "/sort",
					Input:         compile(t.Dividend, stats, label+".0", opts, false),
					ByPos:         t.Dividend.Schema().Positions(split.A.Attrs()),
					Stats:         stats,
					Every:         opts.CheckEvery,
					Spill:         opts.Spill,
					half:          opts.Spill != nil && holdsBudgeted(t.Dividend),
					windowBatcher: windowBatcher{BatchSize: opts.BatchSize},
				}
				return &MergeGroupDivideIter{
					Label:         label + "/mergedivide",
					Dividend:      sorted,
					Divisor:       compile(t.Divisor, stats, label+".1", opts, true),
					Stats:         stats,
					Every:         opts.CheckEvery,
					windowBatcher: windowBatcher{BatchSize: opts.BatchSize},
				}
			}
		}
		return compileDivide("hashdivide", t.Dividend, t.Divisor, 1, stats, label+"/", label, opts)
	case *plan.GreatDivide:
		return compileDivide("greatdivide", t.Dividend, t.Divisor, 1, stats, label+"/", label, opts)
	case *plan.ParallelDivide, *plan.ParallelGreatDivide:
		return compileExchange(n, stats, label+"/", label, opts)
	case *plan.Group:
		return &GroupIter{
			Label:         label + "/group",
			Input:         compile(t.Input, stats, label+".0", opts, true),
			By:            t.By,
			Aggs:          t.Aggs,
			Stats:         stats,
			Every:         opts.CheckEvery,
			Spill:         opts.Spill,
			windowBatcher: windowBatcher{BatchSize: opts.BatchSize},
		}
	case *plan.Rename:
		return &RenameBatch{
			Input: compile(t.Input, stats, label+".0", opts, borrow),
			From:  t.From,
			To:    t.To,
		}
	default:
		panic(fmt.Sprintf("exec: cannot compile %T", n))
	}
}

// holdsBudgeted reports whether n's subtree holds a blocking operator
// that charges the budget for its own state: ÷, ÷*, the hash join
// family or γ. A sort above one flushes its buffer at half the budget,
// so the operator below keeps the other half (see SortIter.half).
func holdsBudgeted(n plan.Node) bool {
	switch t := n.(type) {
	case *plan.Divide, *plan.GreatDivide, *plan.ParallelDivide, *plan.ParallelGreatDivide,
		*plan.SemiJoin, *plan.AntiSemiJoin, *plan.Group:
		return true
	case *plan.Join:
		if !t.Left.Schema().DisjointFrom(t.Right.Schema()) {
			return true
		}
	case *plan.Set:
		if t.Op != plan.UnionOp {
			return true
		}
	}
	for _, c := range n.Children() {
		if holdsBudgeted(c) {
			return true
		}
	}
	return false
}

// compileJoin lowers ⋈, ⋉, ▷, ∩ or − to the HashJoinIter labelled
// kind, running mode. The join's probe rows are only concatenated, so
// its left input may borrow; a semi mode passes its probe rows on, so
// it forwards borrow. The build side borrows: the key index and the
// extras slab copy what they keep.
func compileJoin(kind string, mode JoinMode, setOp string, left, right plan.Node, stats *Stats, label string, opts CompileOptions, borrow bool) *HashJoinIter {
	return &HashJoinIter{
		Label:         label + "/" + kind,
		Left:          compile(left, stats, label+".0", opts, mode == JoinInner || borrow),
		Right:         compile(right, stats, label+".1", opts, true),
		Mode:          mode,
		SetOp:         setOp,
		Stats:         stats,
		Every:         opts.CheckEvery,
		Spill:         opts.Spill,
		windowBatcher: windowBatcher{BatchSize: opts.BatchSize},
		borrowed:      borrow,
	}
}

// compileDivide lowers a division to the DivideIter labelled prefix +
// kind, with its inputs under childLabel. Unbudgeted at one worker the
// operator buffers neither input: no division state keeps a dividend
// tuple, and the ÷ state keeps only a copied projection of each
// divisor tuple, so those inputs may borrow (the ÷* state keeps whole
// divisor tuples). Otherwise both inputs are buffered, hence owned.
func compileDivide(kind string, dividend, divisor plan.Node, workers int, stats *Stats, prefix, childLabel string, opts CompileOptions) *DivideIter {
	inline := opts.Spill == nil && workers <= 1
	small := divisor.Schema().SubsetOf(dividend.Schema())
	return &DivideIter{
		Label:         prefix + kind,
		Dividend:      compile(dividend, stats, childLabel+".0", opts, inline),
		Divisor:       compile(divisor, stats, childLabel+".1", opts, inline && small),
		Workers:       workers,
		Buffer:        opts.ExchangeBuffer,
		Stats:         stats,
		Every:         opts.CheckEvery,
		Spill:         opts.Spill,
		windowBatcher: windowBatcher{BatchSize: opts.BatchSize},
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
// node to the DivideIter labelled prefix + its kind, with its inputs
// under childLabel and Workers 0 resolved to GOMAXPROCS; it returns nil
// for any other node.
func compileExchange(n plan.Node, stats *Stats, prefix, childLabel string, opts CompileOptions) *DivideIter {
	var (
		dividend, divisor plan.Node
		workers           int
		kind              string
	)
	switch t := n.(type) {
	case *plan.ParallelDivide:
		dividend, divisor, workers, kind = t.Dividend, t.Divisor, t.Workers, "paralleldivide"
	case *plan.ParallelGreatDivide:
		dividend, divisor, workers, kind = t.Dividend, t.Divisor, t.Workers, "parallelgreatdivide"
	default:
		return nil
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return compileDivide(kind, dividend, divisor, workers, stats, prefix, childLabel, opts)
}
