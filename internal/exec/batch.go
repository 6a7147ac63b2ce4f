package exec

import (
	"context"

	"divlaws/internal/pred"
	"divlaws/internal/relation"
	"divlaws/internal/schema"
)

// BatchIterator is the batch-at-a-time physical operator interface,
// the fast path beside Iterator: operators exchange slabs of up to
// CompileOptions.BatchSize tuples instead of single tuples, so the
// per-call interface overhead — and the cooperative context polls —
// are amortized across a whole batch.
//
// Protocol: OpenBatch before the first NextBatch; NextBatch returns
// nil at end of stream; the returned batch is owned by the operator
// and valid only until the next NextBatch or Close (the tuples inside
// are immutable and may be retained). Close is idempotent.
//
// Several operators implement both interfaces over one shared cursor
// (ScanIter, the blocking emitters, the parallel exchanges), so a
// consumer may drain them tuple-at-a-time or batch-at-a-time — but
// must not interleave arbitrary Next and NextBatch calls beyond
// "Next a few, then batch-drain the rest", which the shared cursor
// keeps exact.
type BatchIterator interface {
	// OpenBatch prepares the operator under the given context, exactly
	// as Iterator.Open does; dual-mode operators treat Open and
	// OpenBatch as the same call.
	OpenBatch(ctx context.Context) error
	// NextBatch produces the next batch, nil at end of stream. The
	// batch is reused: it is valid only until the next call.
	NextBatch() (*relation.Batch, error)
	// Close releases resources; idempotent.
	Close() error
	// Schema describes the produced tuples.
	Schema() schema.Schema
}

// rowBudgeter is the optional row-budget hint of the batch path: a
// bounded consumer (LimitBatch, a fused top-k) arms its child with the
// number of rows it still needs before each NextBatch pull, and a
// budget-aware child emits a batch no larger than that instead of
// draining a full slab past the limit. The budget is a cap, not a
// promise — smaller batches stay legal — and it persists until
// re-armed, so an operator that re-pulls (a selective filter) keeps
// its own child bounded. A hint of n <= 0 clears the budget.
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

// batchFeed pulls probe-side input a batch at a time from a child
// that may or may not expose the batch surface: batch-capable
// children stream their own batches through (budget hint forwarded),
// tuple-only children are accumulated into a pooled slab. It is the
// probe-side twin of drainEvery's build-side batch upgrade, letting
// one NextBatch implementation serve both child kinds without an
// adapter seam.
type batchFeed struct {
	child Iterator
	// size caps accumulated fallback batches; 0 means
	// relation.DefaultBatchCap.
	size int

	bi      BatchIterator
	checked bool
	acc     *relation.Batch
}

// next serves the child's next non-empty tuple window, nil at end of
// stream. budget > 0 caps the window (and is forwarded to
// batch-capable children); the returned slice is valid only until the
// following next call.
func (f *batchFeed) next(budget int64) ([]relation.Tuple, error) {
	if !f.checked {
		f.checked = true
		f.bi, _ = f.child.(BatchIterator)
	}
	if f.bi != nil {
		setRowBudget(f.bi, budget)
		b, err := f.bi.NextBatch()
		if err != nil || b == nil {
			return nil, err
		}
		return b.Tuples(), nil
	}
	bound := int64(f.size)
	if bound <= 0 {
		bound = relation.DefaultBatchCap
	}
	if budget > 0 && budget < bound {
		bound = budget
	}
	if f.acc == nil {
		f.acc = relation.GetBatch(f.size)
	}
	f.acc.Reset()
	for int64(f.acc.Len()) < bound {
		t, ok, err := f.child.Next()
		if err != nil {
			return nil, err
		}
		if !ok {
			break
		}
		f.acc.Append(t)
	}
	if f.acc.Len() == 0 {
		return nil, nil
	}
	return f.acc.Tuples(), nil
}

// release returns the fallback slab to the free-list and resets the
// type check; called from Close.
func (f *batchFeed) release() {
	relation.PutBatch(f.acc)
	f.acc = nil
	f.bi, f.checked = nil, false
}

// ToBatch adapts a tuple-at-a-time Iterator to the batch protocol by
// accumulating BatchSize tuples per NextBatch. It is the boundary
// adapter the compiler inserts when a batch-capable operator sits
// above a tuple-only subtree (forced-batch mode); the plain tuple
// path never pays for it.
type ToBatch struct {
	Input Iterator
	// BatchSize caps the accumulated batches; 0 means
	// relation.DefaultBatchCap.
	BatchSize int

	out    *relation.Batch
	open   bool
	budget int64
}

// OpenBatch implements BatchIterator.
func (a *ToBatch) OpenBatch(ctx context.Context) error {
	a.open = true
	return a.Input.Open(ctx)
}

// SetRowBudget implements rowBudgeter: accumulation stops at the
// budget, so the tuple-only subtree below is not over-pulled either.
func (a *ToBatch) SetRowBudget(n int64) {
	if n < 0 {
		n = 0
	}
	a.budget = n
}

// NextBatch implements BatchIterator.
func (a *ToBatch) NextBatch() (*relation.Batch, error) {
	if !a.open {
		return nil, errNotOpen("ToBatch")
	}
	if a.out == nil {
		a.out = relation.GetBatch(a.BatchSize)
	}
	a.out.Reset()
	for !a.out.Full() {
		if a.budget > 0 && int64(a.out.Len()) >= a.budget {
			break
		}
		t, ok, err := a.Input.Next()
		if err != nil {
			return nil, err
		}
		if !ok {
			break
		}
		a.out.Append(t)
	}
	if a.out.Len() == 0 {
		return nil, nil
	}
	return a.out, nil
}

// Close implements BatchIterator.
func (a *ToBatch) Close() error {
	a.open = false
	a.budget = 0
	relation.PutBatch(a.out)
	a.out = nil
	return a.Input.Close()
}

// Schema implements BatchIterator.
func (a *ToBatch) Schema() schema.Schema { return a.Input.Schema() }

// FromBatch adapts a BatchIterator to the tuple protocol: Next serves
// tuples out of the current batch and pulls the next one on demand.
// It also passes the batch protocol straight through, so a blocking
// drain above it consumes whole batches without re-tuplifying (any
// partially Next-consumed batch is served as a remainder window
// first).
type FromBatch struct {
	Input BatchIterator

	windowBatcher
	cur []relation.Tuple
	pos int
}

// Open implements Iterator.
func (f *FromBatch) Open(ctx context.Context) error {
	f.cur, f.pos = nil, 0
	return f.Input.OpenBatch(ctx)
}

// OpenBatch implements BatchIterator.
func (f *FromBatch) OpenBatch(ctx context.Context) error { return f.Open(ctx) }

// Next implements Iterator.
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

// SetRowBudget implements rowBudgeter: the hint bounds remainder
// windows and flows through to the child.
func (f *FromBatch) SetRowBudget(n int64) {
	f.windowBatcher.SetRowBudget(n)
	setRowBudget(f.Input, n)
}

// NextBatch implements BatchIterator: the remainder of a partially
// consumed batch first (budget-capped windows), then the child's
// batches untouched.
func (f *FromBatch) NextBatch() (*relation.Batch, error) {
	if f.pos < len(f.cur) {
		b := f.window(f.cur, &f.pos)
		if f.pos >= len(f.cur) {
			f.cur, f.pos = nil, 0
		}
		return b, nil
	}
	f.cur, f.pos = nil, 0
	return f.Input.NextBatch()
}

// Close implements Iterator.
func (f *FromBatch) Close() error {
	f.cur, f.pos = nil, 0
	f.release()
	return f.Input.Close()
}

// Schema implements Iterator.
func (f *FromBatch) Schema() schema.Schema { return f.Input.Schema() }

// FilterBatch is the batch-native predicate filter: each input batch
// is filtered into a reused output batch, with per-batch (not
// per-tuple) interface costs. Empty results keep pulling, so
// consumers never see zero-length batches.
type FilterBatch struct {
	Label string
	Input BatchIterator
	Pred  pred.Predicate
	Stats *Stats

	out    *relation.Batch
	open   bool
	budget int64
}

// OpenBatch implements BatchIterator.
func (f *FilterBatch) OpenBatch(ctx context.Context) error {
	f.open = true
	return f.Input.OpenBatch(ctx)
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

// ProjectBatch is the batch-native projection with streaming dedup:
// the same first-seen TupleIndex semantics as ProjectIter (exact
// under hash collisions), with the per-tuple interface overhead
// hoisted to the batch boundary — and the same full-width cases: a
// permutation fills the output batch without an index, the identity
// hands the child's batch on as it is.
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

// OpenBatch implements BatchIterator.
func (p *ProjectBatch) OpenBatch(ctx context.Context) error {
	p.out, p.pos = p.Input.Schema().Project(p.Attrs)
	p.seen, p.identity = projectDedup(p.pos, p.Input.Schema().Len())
	p.open = true
	return p.Input.OpenBatch(ctx)
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

// LimitBatch is the batch-native LIMIT with the same early-exit
// contract as LimitIter: the child is closed the moment the n-th
// tuple surfaces (cancelling streaming subtrees such as parallel
// exchanges mid-stream), the final batch is truncated to the bound,
// and a limit of zero never opens the child at all. Before every pull
// it arms the child with the remaining row budget (see rowBudgeter),
// so a budget-aware subtree produces exactly the rows the limit still
// needs instead of draining a full slab past it — batch-path LIMIT 1
// reads one row, as the tuple path does.
type LimitBatch struct {
	Label string
	Input BatchIterator
	N     int64
	Stats *Stats

	windowBatcher
	seen    int64
	opened  bool
	stopped bool
	stopErr error
}

// OpenBatch implements BatchIterator.
func (l *LimitBatch) OpenBatch(ctx context.Context) error {
	l.seen = 0
	l.stopped = l.N <= 0
	l.stopErr = nil
	if !l.stopped {
		if err := l.Input.OpenBatch(ctx); err != nil {
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
	// Limit reached: release the subtree now, exactly like LimitIter —
	// a teardown error surfaces on the next call, never in place of
	// the batch the consumer asked for. Closing the child recycles the
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

// OpenBatch implements BatchIterator.
func (r *RenameBatch) OpenBatch(ctx context.Context) error { return r.Input.OpenBatch(ctx) }

// SetRowBudget implements rowBudgeter; the hint flows through.
func (r *RenameBatch) SetRowBudget(n int64) { setRowBudget(r.Input, n) }

// NextBatch implements BatchIterator.
func (r *RenameBatch) NextBatch() (*relation.Batch, error) { return r.Input.NextBatch() }

// Close implements BatchIterator.
func (r *RenameBatch) Close() error { return r.Input.Close() }

// Schema implements BatchIterator.
func (r *RenameBatch) Schema() schema.Schema { return r.Input.Schema().Rename(r.From, r.To) }

// drainBatches is the batch twin of drain: it consumes whole batches
// from a batch-capable child, with the cooperative context poll
// hoisted from per-tuple bookkeeping to batch boundaries (still at
// least every `every` tuples).
func drainBatches(ctx context.Context, child BatchIterator, every int, sink func([]relation.Tuple)) error {
	if every <= 0 {
		every = DefaultCheckEvery
	}
	n := 0
	for {
		b, err := child.NextBatch()
		if err != nil {
			return err
		}
		if b == nil {
			return nil
		}
		sink(b.Tuples())
		if n += b.Len(); n >= every {
			n = 0
			if err := ctx.Err(); err != nil {
				return err
			}
		}
	}
}
