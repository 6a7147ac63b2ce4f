package exec

import (
	"context"
	"slices"

	"divlaws/internal/pred"
	"divlaws/internal/relation"
	"divlaws/internal/schema"
	"divlaws/internal/spill"
)

// rowBudgeter is the optional row-budget hint: a bounded consumer
// (LimitBatch, a fused top-k) arms its child with the number of rows
// it still needs before each NextBatch pull, and a budget-aware child
// emits a batch no larger than that instead of draining a full slab
// past the limit. The budget is a cap, not a promise — smaller batches
// stay legal — and it persists until re-armed, so an operator that
// re-pulls (a selective filter) keeps its own child bounded. A hint of
// n <= 0 clears the budget.
type rowBudgeter interface {
	SetRowBudget(n int64)
}

// setRowBudget arms x with a row budget when it understands the hint;
// budget-unaware operators are left alone (the consumer's own
// truncation still bounds what it emits, just not what the child
// produced).
func setRowBudget(x any, n int64) {
	if rb, ok := x.(rowBudgeter); ok {
		rb.SetRowBudget(n)
	}
}

// windowBatcher equips an operator holding (or receiving) tuple
// slices with zero-copy batch emission: window serves consecutive
// BatchSize-capped views over a results slice, adopt wraps a foreign
// slice (an exchange batch) as-is. The *relation.Batch comes from the
// shared free-list and is returned to it by release. It also carries
// the operator's row budget (see rowBudgeter), so every embedder is
// budget-aware: armed windows shrink to the budget.
type windowBatcher struct {
	// BatchSize caps emitted windows; 0 means relation.DefaultBatchCap.
	BatchSize int
	wb        *relation.Batch
	budget    int64
}

// SetRowBudget implements rowBudgeter for every embedder.
func (w *windowBatcher) SetRowBudget(n int64) {
	if n < 0 {
		n = 0
	}
	w.budget = n
}

// batchCap resolves the configured window capacity.
func (w *windowBatcher) batchCap() int {
	if w.BatchSize > 0 {
		return w.BatchSize
	}
	return relation.DefaultBatchCap
}

// effectiveCap is batchCap further bounded by the armed row budget.
func (w *windowBatcher) effectiveCap() int {
	c := w.batchCap()
	if w.budget > 0 && w.budget < int64(c) {
		c = int(w.budget)
	}
	return c
}

// window serves the next view of up to effectiveCap tuples of rows
// starting at *pos, advancing *pos; nil when rows are exhausted.
func (w *windowBatcher) window(rows []relation.Tuple, pos *int) *relation.Batch {
	if *pos >= len(rows) {
		return nil
	}
	end := *pos + w.effectiveCap()
	if end > len(rows) {
		end = len(rows)
	}
	b := w.adopt(rows[*pos:end])
	*pos = end
	return b
}

// adopt wraps ts as the emitted batch without copying.
func (w *windowBatcher) adopt(ts []relation.Tuple) *relation.Batch {
	if w.wb == nil {
		w.wb = relation.GetBatch(w.batchCap())
	}
	w.wb.SetTuples(ts)
	return w.wb
}

// outBatch returns the reusable owned output batch, reset and ready
// for Append — the emission mode of operators that build batches
// (joins, set ops) rather than windowing a materialized slice.
func (w *windowBatcher) outBatch() *relation.Batch {
	if w.wb == nil {
		w.wb = relation.GetBatch(w.batchCap())
	}
	w.wb.Reset()
	return w.wb
}

// release returns the batch to the free-list and disarms any budget;
// called from Close.
func (w *windowBatcher) release() {
	relation.PutBatch(w.wb)
	w.wb = nil
	w.budget = 0
}

// pull serves child's next tuple window under a row budget (0 for
// none), nil at end of stream; the slice is valid only until the
// child's next NextBatch. It is the probe-side counterpart of
// drainEvery.
func pull(child BatchIterator, budget int64) ([]relation.Tuple, error) {
	setRowBudget(child, budget)
	b, err := child.NextBatch()
	if err != nil || b == nil {
		return nil, err
	}
	return b.Tuples(), nil
}

// FromBatch is the root cursor, the engine's one tuple-at-a-time
// surface: CompileWith places it over the root operator, and Next
// serves tuples out of the current batch, pulling the next one on
// demand — so a consumer that stops early has read ahead at most one
// batch of the root operator's output. The cursor drops each tuple
// when it serves the next, so compile lets the root operator borrow.
// Closing it also closes the spill tracker CompileWith built for the
// plan, if any.
type FromBatch struct {
	Input BatchIterator

	tr  *spill.Tracker // compile-owned budget tracker; nil when the caller owns it
	cur []relation.Tuple
	pos int
}

// Open prepares the plan under ctx; see BatchIterator.Open.
func (f *FromBatch) Open(ctx context.Context) error {
	f.cur, f.pos = nil, 0
	return f.Input.Open(ctx)
}

// Next produces the next tuple. ok is false at end of stream. The
// tuple is borrowed: it is valid until the next Next or Close, so a
// caller that keeps it past that clones it (Rows.Scan and
// Rows.AppendJSON copy the values out; Run's Insert clones).
func (f *FromBatch) Next() (relation.Tuple, bool, error) {
	for f.pos >= len(f.cur) {
		b, err := f.Input.NextBatch()
		if err != nil {
			return nil, false, err
		}
		if b == nil {
			return nil, false, nil
		}
		f.cur, f.pos = b.Tuples(), 0
	}
	t := f.cur[f.pos]
	f.pos++
	return t, true, nil
}

// Close tears down the plan first, then closes the owned tracker's
// spill file. It is idempotent.
func (f *FromBatch) Close() error {
	f.cur, f.pos = nil, 0
	err := f.Input.Close()
	if cerr := f.tr.Close(); err == nil {
		err = cerr
	}
	return err
}

// Schema describes the produced tuples.
func (f *FromBatch) Schema() schema.Schema { return f.Input.Schema() }

// FilterBatch is the predicate filter, fully pipelined: each input
// batch is filtered into a reused output batch. Empty results keep
// pulling, so consumers never see zero-length batches.
type FilterBatch struct {
	Label string
	Input BatchIterator
	Pred  pred.Predicate
	Stats *Stats

	out    *relation.Batch
	open   bool
	budget int64
}

// Open implements BatchIterator.
func (f *FilterBatch) Open(ctx context.Context) error {
	f.open = true
	return f.Input.Open(ctx)
}

// SetRowBudget implements rowBudgeter: each child pull is armed with
// the hint (a filter emits at most as many rows as it reads, so the
// child's bound is ours).
func (f *FilterBatch) SetRowBudget(n int64) {
	if n < 0 {
		n = 0
	}
	f.budget = n
}

// NextBatch implements BatchIterator.
func (f *FilterBatch) NextBatch() (*relation.Batch, error) {
	if !f.open {
		return nil, errNotOpen("FilterBatch")
	}
	sch := f.Input.Schema()
	for {
		setRowBudget(f.Input, f.budget)
		in, err := f.Input.NextBatch()
		if err != nil {
			return nil, err
		}
		if in == nil {
			return nil, nil
		}
		if f.out == nil {
			f.out = relation.GetBatch(in.Len())
		}
		f.out.Reset()
		for _, t := range in.Tuples() {
			if f.Pred.Eval(t, sch) {
				f.out.Append(t)
			}
		}
		if n := f.out.Len(); n > 0 {
			f.Stats.count(f.Label, int64(n))
			return f.out, nil
		}
	}
}

// Close implements BatchIterator.
func (f *FilterBatch) Close() error {
	f.open = false
	f.budget = 0
	relation.PutBatch(f.out)
	f.out = nil
	return f.Input.Close()
}

// Schema implements BatchIterator.
func (f *FilterBatch) Schema() schema.Schema { return f.Input.Schema() }

// ProjectBatch projects attributes and eliminates duplicates with a
// streaming hash set (set semantics, first-seen TupleIndex order, exact
// under hash collisions). The projection is only materialized for
// tuples that survive the dedup.
//
// A projection onto all of its input's columns cannot merge two
// distinct tuples, and every operator's output is a set (see
// HashJoinIter), so Open drops the hash set for it: a permutation
// fills the output batch without an index, the identity hands the
// child's batch on as it is. Both still count their rows under Label.
type ProjectBatch struct {
	Label string
	Input BatchIterator
	Attrs []string
	Stats *Stats

	pos      []int
	out      schema.Schema
	open     bool
	seen     *relation.TupleIndex // nil for a full-width projection
	identity bool
	ob       *relation.Batch
	budget   int64
}

// projectDedup returns what a projection onto source positions pos of
// an n-column input needs: a dedup index, or nil when it keeps every
// column (positions are distinct, so that is a permutation), and then
// whether it also keeps them in place.
func projectDedup(pos []int, n int) (seen *relation.TupleIndex, identity bool) {
	if len(pos) != n {
		return new(relation.TupleIndex), false
	}
	return nil, slices.IsSorted(pos)
}

// Open implements BatchIterator.
func (p *ProjectBatch) Open(ctx context.Context) error {
	p.out, p.pos = p.Input.Schema().Project(p.Attrs)
	p.seen, p.identity = projectDedup(p.pos, p.Input.Schema().Len())
	p.open = true
	return p.Input.Open(ctx)
}

// SetRowBudget implements rowBudgeter: each child pull is armed with
// the hint (a projection emits at most as many rows as it reads, so
// the child's bound is ours).
func (p *ProjectBatch) SetRowBudget(n int64) {
	if n < 0 {
		n = 0
	}
	p.budget = n
}

// NextBatch implements BatchIterator.
func (p *ProjectBatch) NextBatch() (*relation.Batch, error) {
	if !p.open {
		return nil, errNotOpen("ProjectBatch")
	}
	for {
		setRowBudget(p.Input, p.budget)
		in, err := p.Input.NextBatch()
		if err != nil {
			return nil, err
		}
		if in == nil {
			return nil, nil
		}
		if p.identity {
			p.Stats.count(p.Label, int64(in.Len()))
			return in, nil
		}
		if p.ob == nil {
			p.ob = relation.GetBatch(in.Len())
		}
		p.ob.Reset()
		for _, t := range in.Tuples() {
			if p.seen == nil {
				p.ob.Append(t.Project(p.pos))
			} else if id, created := p.seen.IDProj(t, p.pos); created {
				p.ob.Append(p.seen.Key(id))
			}
		}
		if n := p.ob.Len(); n > 0 {
			p.Stats.count(p.Label, int64(n))
			return p.ob, nil
		}
	}
}

// Close implements BatchIterator.
func (p *ProjectBatch) Close() error {
	p.open, p.seen = false, nil
	p.budget = 0
	relation.PutBatch(p.ob)
	p.ob = nil
	return p.Input.Close()
}

// Schema implements BatchIterator.
func (p *ProjectBatch) Schema() schema.Schema {
	if p.out.Len() == 0 {
		p.out, p.pos = p.Input.Schema().Project(p.Attrs)
	}
	return p.out
}

// LimitBatch passes through the first N tuples of its input and ends
// the stream, closing the child the moment the N-th tuple surfaces —
// not when the parent eventually calls Close — so blocking and
// streaming subtrees stop working immediately. Over a parallel
// exchange this is the early-exit pushdown: reaching the limit cancels
// the exchange and every partition worker mid-stream, and the rest of
// the quotient is never computed. The final batch is truncated to the
// bound, and a limit of zero never opens the child at all. Before
// every pull it arms the child with the remaining row budget (see
// rowBudgeter), so a budget-aware subtree produces exactly the rows
// the limit still needs instead of draining a full slab past it —
// LIMIT 1 reads one row.
type LimitBatch struct {
	Label string
	Input BatchIterator
	N     int64
	Stats *Stats

	windowBatcher
	seen    int64
	opened  bool
	stopped bool  // child released early, before Close
	stopErr error // error from the early child Close, reported once
}

// Open implements BatchIterator.
func (l *LimitBatch) Open(ctx context.Context) error {
	l.seen = 0
	l.stopped = l.N <= 0
	l.stopErr = nil
	if !l.stopped {
		if err := l.Input.Open(ctx); err != nil {
			return err
		}
	}
	l.opened = true
	return nil
}

// NextBatch implements BatchIterator.
func (l *LimitBatch) NextBatch() (*relation.Batch, error) {
	if !l.opened {
		return nil, errNotOpen("LimitBatch")
	}
	if l.stopped || l.seen >= l.N {
		err := l.stopErr
		l.stopErr = nil
		return nil, err
	}
	setRowBudget(l.Input, l.N-l.seen)
	in, err := l.Input.NextBatch()
	if err != nil {
		return nil, err
	}
	if in == nil {
		return nil, nil
	}
	ts := in.Tuples()
	if rem := l.N - l.seen; int64(len(ts)) > rem {
		ts = ts[:rem]
	}
	l.seen += int64(len(ts))
	l.Stats.count(l.Label, int64(len(ts)))
	if l.seen < l.N {
		return l.adopt(ts), nil
	}
	// Limit reached: release the subtree now. Close is idempotent, so
	// the parent's eventual Close stays harmless. A teardown error
	// surfaces on the next call (or from Close), never in place of the
	// batch the consumer asked for. Closing the child recycles the
	// slab behind ts, so the final batch is copied, not adopted.
	if l.wb == nil {
		l.wb = relation.GetBatch(len(ts))
	}
	l.wb.Reset()
	for _, t := range ts {
		l.wb.Append(t)
	}
	l.stopped = true
	l.stopErr = l.Input.Close()
	return l.wb, nil
}

// Close implements BatchIterator.
func (l *LimitBatch) Close() error {
	l.opened = false
	l.release()
	err := l.Input.Close()
	if err == nil {
		err = l.stopErr
	}
	l.stopErr = nil
	return err
}

// Schema implements BatchIterator.
func (l *LimitBatch) Schema() schema.Schema { return l.Input.Schema() }

// RenameBatch relabels attributes without touching batches.
type RenameBatch struct {
	Input    BatchIterator
	From, To string
}

// Open implements BatchIterator.
func (r *RenameBatch) Open(ctx context.Context) error { return r.Input.Open(ctx) }

// SetRowBudget implements rowBudgeter; the hint flows through.
func (r *RenameBatch) SetRowBudget(n int64) { setRowBudget(r.Input, n) }

// NextBatch implements BatchIterator.
func (r *RenameBatch) NextBatch() (*relation.Batch, error) { return r.Input.NextBatch() }

// Close implements BatchIterator.
func (r *RenameBatch) Close() error { return r.Input.Close() }

// Schema implements BatchIterator.
func (r *RenameBatch) Schema() schema.Schema { return r.Input.Schema().Rename(r.From, r.To) }
