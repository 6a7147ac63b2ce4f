package exec

import (
	"context"
	"errors"
	"fmt"
	"io"
	"slices"

	"divlaws/internal/division"
	"divlaws/internal/hashkey"
	"divlaws/internal/pred"
	"divlaws/internal/relation"
	"divlaws/internal/schema"
	"divlaws/internal/spill"
)

// ThetaJoinIter is a nested-loop join with an arbitrary predicate
// over the concatenated schemas (which must be disjoint): NextBatch
// filters whole batches of the inner product into a pooled output
// batch.
type ThetaJoinIter struct {
	Label       string
	Left, Right BatchIterator
	Pred        pred.Predicate
	Stats       *Stats
	// Every is the cooperative ctx-poll interval of the inner build
	// drain, in tuples; 0 means DefaultCheckEvery.
	Every int
	windowBatcher
	inner *ProductIter
	out   schema.Schema
	// borrowed passes on to the inner product, whose tuples the filter
	// hands on as its own (set by compile).
	borrowed bool
}

// Open implements BatchIterator.
func (j *ThetaJoinIter) Open(ctx context.Context) error {
	j.inner = &ProductIter{Label: j.Label + ".product", Left: j.Left, Right: j.Right, Stats: nil, Every: j.Every,
		windowBatcher: windowBatcher{BatchSize: j.BatchSize}, borrowed: j.borrowed}
	j.out = j.Left.Schema().Concat(j.Right.Schema())
	return j.inner.Open(ctx)
}

// NextBatch implements BatchIterator: each inner product batch is
// filtered through the predicate into a pooled output batch. The
// armed row budget is re-armed on the inner product before every pull
// (the filter only shrinks batches).
func (j *ThetaJoinIter) NextBatch() (*relation.Batch, error) {
	if j.inner == nil {
		return nil, errNotOpen("ThetaJoinIter")
	}
	for {
		j.inner.SetRowBudget(j.budget)
		in, err := j.inner.NextBatch()
		if err != nil {
			return nil, err
		}
		if in == nil {
			return nil, nil
		}
		out := j.outBatch()
		for _, t := range in.Tuples() {
			if j.Pred.Eval(t, j.out) {
				out.Append(t)
			}
		}
		if n := out.Len(); n > 0 {
			j.Stats.count(j.Label, int64(n))
			return out, nil
		}
	}
}

// Close implements BatchIterator. It is a no-op before Open (the inner
// product, and with it the children, only exist after Open).
func (j *ThetaJoinIter) Close() error {
	j.release()
	if j.inner == nil {
		return nil
	}
	inner := j.inner
	j.inner = nil
	return inner.Close()
}

// Schema implements BatchIterator.
func (j *ThetaJoinIter) Schema() schema.Schema {
	if j.out.Len() == 0 {
		j.out = j.Left.Schema().Concat(j.Right.Schema())
	}
	return j.out
}

// DivideIter is the engine's one division operator: it runs ÷ and ÷*
// alike — the variant follows from the schemas (C = R2 − R1 empty ⇔ ÷)
// — for Divide, GreatDivide and their parallel forms. It applies Law 2
// under c2 (§5.1.1): the dividend is hash-partitioned on the quotient
// attributes A, the divisor replicated, and each partition divided on
// its own by a division.State. A quotient group's verdict depends only
// on its own tuples plus the whole divisor, so the one partitioning
// serves both memory (grace hash) and cores (the exchange).
//
// A partition reads from one of three sources: the dividend child
// itself (unbudgeted at one worker: nothing is buffered), an in-memory
// tuple slice, or a spilled run. Under a budget the buffered inputs
// and every partition state are charged as they grow. Once the
// buffered dividend outgrows the budget it goes to spillFanout runs,
// and a partition whose state outgrows it is split one level deeper on
// fresh hash bits.
//
// With Workers ≤ 1 the partitions are divided lazily on the consumer's
// goroutine. Otherwise up to Workers goroutines take the partitions in
// turn and stream their quotients through a bounded exchange channel,
// so the first row surfaces as soon as the first partition resolves,
// and Close (or cancellation) tears the workers down mid-stream. Each
// worker's emission count lands in Stats under "<label>/part<i>". A
// worker whose state does not fit beside the others' leaves that
// partition to the last worker to finish, which divides the left-overs
// one at a time with the whole budget, splitting as the inline path
// does: a division that succeeds at one worker succeeds at any count,
// and results never depend on timing.
type DivideIter struct {
	Label             string
	Dividend, Divisor BatchIterator
	// Workers is the goroutine count; ≤ 1 divides inline.
	Workers int
	// Buffer is the exchange channel capacity; 0 means
	// DefaultExchangeBuffer.
	Buffer int
	// TopKN, when positive with Workers > 1, serves only the first
	// TopKN quotient tuples in TopKPos/TopKDesc key order: each worker
	// keeps an O(TopKN) heap and the last one to finish k-way merges
	// them, so the quotient never materializes.
	TopKN    int64
	TopKPos  []int
	TopKDesc []bool
	Stats    *Stats
	// Every is the cooperative ctx-poll interval of the input drains
	// and partition feeds, in tuples; 0 means DefaultCheckEvery.
	Every int
	// Spill, when non-nil, is the memory budget.
	Spill *spill.Tracker
	windowBatcher

	out                     schema.Schema
	dividendSch, divisorSch schema.Schema // read in Open: no worker calls Schema
	aPos                    []int
	divisor                 []relation.Tuple // replicated into every partition state
	divCharged              int64
	parts                   []*divPart           // the inline worklist, or the workers' deal
	strs                    []*spill.StringCache // per worker, for reading runs; nil unbudgeted
	ex                      *exchange

	ctx       context.Context // the inline path's, for NextBatch
	results   []relation.Tuple
	pos       int
	stCharged int64
	opened    bool
}

// divPart is one dividend partition. Its source is child, rows
// (charged to the budget as charged) or run, a spilled run at depth.
type divPart struct {
	child   BatchIterator
	rows    []relation.Tuple
	charged int64
	run     *spill.Run
	depth   int
}

// drop releases the partition's buffer charge and run. Idempotent.
func (p *divPart) drop(tr *spill.Tracker) {
	tr.Release(p.charged)
	p.charged, p.rows = 0, nil
	if p.run != nil {
		p.run.Close()
	}
}

// each feeds fn the partition's buffered or spilled tuples, polling
// ctx every `every` tuples. Spilled tuples are borrowed.
func (p *divPart) each(ctx context.Context, every int, strs *spill.StringCache, fn func(relation.Tuple) error) error {
	next := func(i int) (relation.Tuple, error) {
		if i == len(p.rows) {
			return nil, io.EOF
		}
		return p.rows[i], nil
	}
	if p.run != nil {
		if err := p.run.Rewind(); err != nil {
			return err
		}
		next = func(int) (relation.Tuple, error) { return p.run.Next(strs) }
	}
	poll := poller(ctx, every)
	for i := 0; ; i++ {
		t, err := next(i)
		if err == io.EOF {
			return nil
		}
		if err == nil {
			err = fn(t)
		}
		if err == nil {
			err = poll()
		}
		if err != nil {
			return err
		}
	}
}

// nonEmpty drops the partitions with no tuples, closing their runs.
func nonEmpty(parts []*divPart) []*divPart {
	out := parts[:0]
	for _, p := range parts {
		switch {
		case p.child != nil || len(p.rows) > 0 || (p.run != nil && p.run.Len() > 0):
			out = append(out, p)
		case p.run != nil:
			p.run.Close()
		}
	}
	return out
}

// poller returns a check that polls ctx on every `every`-th call.
func poller(ctx context.Context, every int) func() error {
	n := 0
	return func() error {
		if n++; n < every {
			return nil
		}
		n = 0
		return ctx.Err()
	}
}

// Open implements BatchIterator.
func (d *DivideIter) Open(ctx context.Context) error {
	d.dividendSch, d.divisorSch, d.ctx = d.Dividend.Schema(), d.Divisor.Schema(), ctx
	if err := d.Divisor.Open(ctx); err != nil {
		return err
	}
	if err := d.Dividend.Open(ctx); err != nil {
		return err
	}
	if d.Spill != nil {
		d.strs = make([]*spill.StringCache, max(d.Workers, 1))
		for i := range d.strs {
			d.strs[i] = d.Spill.NewStringCache()
		}
	}
	if d.Workers <= 1 && d.Spill == nil {
		// Schemas no division accepts fail in advance, from NewState.
		d.parts = []*divPart{{child: d.Dividend}}
	} else if err := d.partition(ctx); err != nil {
		return err
	}
	d.opened = true
	if d.Workers > 1 {
		d.ex = d.startWorkers(ctx)
		return nil
	}
	_, err := d.advance()
	return err
}

// partition buffers the divisor and routes the dividend into Workers
// in-memory partitions on A, all charged — or, from the first budget
// overflow on, into spillFanout depth-0 runs.
func (d *DivideIter) partition(ctx context.Context) error {
	split, err := division.SplitOf(d.dividendSch, d.divisorSch)
	if err != nil {
		return err
	}
	d.aPos = d.dividendSch.Positions(split.A.Attrs())
	if err := drainEvery(ctx, d.Divisor, d.Every, func(t relation.Tuple) error {
		fp := t.Footprint()
		if err := d.Spill.Charge(fp); err != nil {
			if errors.Is(err, spill.ErrBudget) {
				return fmt.Errorf("divisor does not fit in the memory budget (it is replicated into every partition): %w", err)
			}
			return err
		}
		d.divCharged += fp
		d.divisor = append(d.divisor, t)
		return nil
	}); err != nil {
		return err
	}
	w := uint64(max(d.Workers, 1))
	d.parts = make([]*divPart, w)
	for i := range d.parts {
		d.parts[i] = &divPart{}
	}
	spilled := false
	hp := &hashPartitioner{pos: d.aPos, emit: func(t relation.Tuple, h uint64) error {
		if !spilled {
			fp := t.Footprint()
			err := d.Spill.Charge(fp)
			if err == nil {
				p := d.parts[h%w]
				p.rows = append(p.rows, t)
				p.charged += fp
				return nil
			}
			if !errors.Is(err, spill.ErrBudget) {
				return err
			}
			runs, err := d.spillRows(d.parts)
			if err != nil {
				return err
			}
			d.parts, spilled = runs, true
		}
		return d.parts[spillPart(h, 0)].run.Append(t)
	}}
	if err := drainEvery(ctx, d.Dividend, d.Every, hp.add); err != nil {
		return err
	}
	if err := hp.flush(); err != nil {
		return err
	}
	d.parts = nonEmpty(d.parts)
	return nil
}

// spillRows writes the buffered partitions' tuples to spillFanout fresh
// depth-0 runs, routed on the lowest hash bits, and releases their
// charge. On error the buffers are left as they were.
func (d *DivideIter) spillRows(parts []*divPart) ([]*divPart, error) {
	runs, err := fanOut(d.Spill, func(runs []*spill.Run) error {
		for _, p := range parts {
			for _, t := range p.rows {
				if err := runs[spillPart(t.Hash64Proj(d.aPos), 0)].Append(t); err != nil {
					return err
				}
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, p := range parts {
		p.drop(d.Spill)
	}
	d.Spill.AddPartitions(1)
	return runParts(runs, 0), nil
}

// runParts wraps split runs as the partitions at depth.
func runParts(runs []*spill.Run, depth int) []*divPart {
	parts := make([]*divPart, len(runs))
	for i, r := range runs {
		parts[i] = &divPart{run: r, depth: depth}
	}
	return parts
}

// feed builds a fresh division state from the divisor and p's dividend
// tuples, reading runs through worker w's string cache. Under a budget
// it charges the state's growth and returns the outstanding charge; on
// error nothing stays charged.
func (d *DivideIter) feed(ctx context.Context, p *divPart, w int) (division.State, int64, error) {
	st, err := division.NewState(d.dividendSch, d.divisorSch)
	if err != nil {
		return nil, 0, err
	}
	add := func(t relation.Tuple) error { st.AddDividend(t); return nil }
	if p.child != nil {
		// The streaming source: the divisor is not buffered either.
		if err := drainEvery(ctx, d.Divisor, d.Every, func(t relation.Tuple) error { st.AddDivisor(t); return nil }); err != nil {
			return nil, 0, err
		}
		return st, 0, drainEvery(ctx, p.child, d.Every, add)
	}
	for _, t := range d.divisor {
		st.AddDivisor(t)
	}
	var strs *spill.StringCache
	var charged int64
	if d.Spill != nil {
		strs = d.strs[w]
		last := st.Bytes()
		if err := d.Spill.Charge(last); err != nil {
			if errors.Is(err, spill.ErrBudget) {
				return nil, 0, fmt.Errorf("division state for the divisor alone exceeds the memory budget: %w", err)
			}
			return nil, 0, err
		}
		charged = last
		add = func(t relation.Tuple) error {
			st.AddDividend(t)
			if now := st.Bytes(); now > last {
				if err := d.Spill.Charge(now - last); err != nil {
					return err
				}
				charged += now - last
				last = now
			}
			return nil
		}
	}
	if err := p.each(ctx, effEvery(d.Every), strs, add); err != nil {
		d.Spill.Release(charged)
		return nil, 0, err
	}
	return st, charged, nil
}

// nextState divides the first partition of *queue that yields a state,
// reading runs as worker w. An over-budget partition is split and its
// children queued first: buffered partitions, which then fill the
// whole queue, all go to depth-0 runs at once; a run goes one level
// deeper. It returns a nil state once the queue is empty; on error the
// failed partition stays queued for the caller to drop.
func (d *DivideIter) nextState(ctx context.Context, queue *[]*divPart, w int) (division.State, int64, error) {
	for len(*queue) > 0 {
		p := (*queue)[0]
		st, charged, err := d.feed(ctx, p, w)
		if err == nil {
			*queue = (*queue)[1:]
			p.drop(d.Spill)
			return st, charged, nil
		}
		if !errors.Is(err, spill.ErrBudget) {
			return nil, 0, err
		}
		if p.run == nil {
			children, err := d.spillRows(*queue)
			if err != nil {
				return nil, 0, err
			}
			*queue = nonEmpty(children)
			continue
		}
		runs, err := splitRun(ctx, d.Spill, d.strs[w], p.run, p.depth, d.Every, func(t relation.Tuple) uint64 {
			return t.Hash64Proj(d.aPos)
		})
		if err != nil {
			return nil, 0, err
		}
		p.drop(d.Spill)
		*queue = append(nonEmpty(runParts(runs, p.depth+1)), (*queue)[1:]...)
		d.Spill.AddPartitions(1)
	}
	return nil, 0, nil
}

// advance loads the next partition's quotient on the inline path,
// first releasing the served one's state; false once all are served.
func (d *DivideIter) advance() (bool, error) {
	d.Spill.Release(d.stCharged)
	d.stCharged, d.results, d.pos = 0, nil, 0
	st, charged, err := d.nextState(d.ctx, &d.parts, 0)
	if st == nil {
		return false, err
	}
	d.results, d.stCharged = st.Result().Tuples(), charged
	return true, nil
}

// startWorkers deals the partitions to n = min(Workers, partitions)
// goroutines in turn — worker w takes partitions w, w+n, … — each with
// its own string cache and, under a fused top-k, its own O(k) heap,
// which the last worker k-way merges once the left-overs are divided:
// inherently a barrier, since any partition may hold the global
// minimum, but one over at most k·n tuples.
func (d *DivideIter) startWorkers(ctx context.Context) *exchange {
	parts, n := d.parts, min(d.Workers, len(d.parts))
	every, size := effEvery(d.Every), d.batchCap()
	left := make([][]*divPart, n)
	var (
		heaps []*relation.TopKHeap
		cmp   func(a, b relation.Tuple) int
	)
	if d.TopKN > 0 {
		cmp = relation.KeyedCompare(d.TopKPos, d.TopKDesc)
		heaps = make([]*relation.TopKHeap, n)
		for w := range heaps {
			heaps[w] = relation.NewTopKHeap(int(d.TopKN), cmp)
		}
	}
	// emit hands one state's quotient to worker w's heap, or downstream
	// in batches counted under the worker's label; it releases charged.
	emit := func(ctx context.Context, w int, st division.State, charged int64, send func([]relation.Tuple) error) error {
		defer d.Spill.Release(charged)
		poll := poller(ctx, every)
		if heaps != nil {
			return st.EachResult(func(t relation.Tuple) error { heaps[w].Add(t); return poll() })
		}
		var buf []relation.Tuple
		flush := func() error {
			if len(buf) == 0 {
				return nil
			}
			if err := send(buf); err != nil {
				return err
			}
			d.Stats.count(partLabel(d.Label, w), int64(len(buf)))
			buf = nil
			return nil
		}
		if err := st.EachResult(func(t relation.Tuple) error {
			if err := poll(); err != nil {
				return err
			}
			if buf == nil {
				buf = make([]relation.Tuple, 0, size)
			}
			if buf = append(buf, t); len(buf) < size {
				return nil
			}
			return flush()
		}); err != nil {
			return err
		}
		return flush()
	}
	return startExchange(ctx, d.Buffer, n, func(ctx context.Context, w int, send func([]relation.Tuple) error) error {
		for i := w; i < len(parts); i += n {
			if gate := partitionGate; gate != nil {
				gate(i)
			}
			st, charged, err := d.feed(ctx, parts[i], w)
			if errors.Is(err, spill.ErrBudget) {
				left[w] = append(left[w], parts[i])
				continue
			}
			if err != nil {
				return err
			}
			parts[i].drop(d.Spill)
			if err := emit(ctx, w, st, charged, send); err != nil {
				return err
			}
		}
		return nil
	}, func(ctx context.Context, last int, send func([]relation.Tuple) error) error {
		queue := slices.Concat(left...)
		defer func() {
			for _, p := range queue {
				p.drop(d.Spill)
			}
		}()
		for {
			st, charged, err := d.nextState(ctx, &queue, last)
			if st == nil {
				if err != nil {
					return err
				}
				break
			}
			if err := emit(ctx, last, st, charged, send); err != nil {
				return err
			}
		}
		if heaps == nil {
			return nil
		}
		runs := make([][]relation.Tuple, n)
		for w, h := range heaps {
			if runs[w] = h.Sorted(); len(runs[w]) > 0 {
				d.Stats.count(partLabel(d.Label, w), int64(len(runs[w])))
			}
		}
		return sendBatches(mergeRuns(runs, cmp, d.TopKN), size, send)
	})
}

// NextBatch implements BatchIterator: the workers' emission batches
// flow through untouched, or the inline path's quotient is windowed
// partition by partition, either capped by any armed row budget.
func (d *DivideIter) NextBatch() (*relation.Batch, error) {
	if !d.opened {
		return nil, errNotOpen("DivideIter")
	}
	if d.ex != nil {
		ts, err := d.ex.nextBatch(int(d.budget))
		if ts == nil {
			return nil, err
		}
		d.Stats.count(d.Label, int64(len(ts)))
		return d.adopt(ts), nil
	}
	for d.pos >= len(d.results) {
		if ok, err := d.advance(); !ok {
			return nil, err
		}
	}
	b := d.window(d.results, &d.pos)
	d.Stats.count(d.Label, int64(b.Len()))
	return b, nil
}

// Close implements BatchIterator. It cancels the exchange and blocks
// until every worker has exited, so mid-stream teardown leaves no
// goroutines, charges or runs behind.
func (d *DivideIter) Close() error {
	if d.ex != nil {
		d.ex.stop()
		d.ex = nil
	}
	for _, p := range d.parts {
		p.drop(d.Spill)
	}
	for _, c := range d.strs {
		c.Close()
	}
	d.Spill.Release(d.divCharged + d.stCharged)
	d.divCharged, d.stCharged = 0, 0
	d.parts, d.strs, d.divisor, d.results = nil, nil, nil, nil
	d.opened = false
	d.release()
	err1 := d.Dividend.Close()
	err2 := d.Divisor.Close()
	if err1 != nil {
		return err1
	}
	return err2
}

// Schema implements BatchIterator. It is derived from the children's
// schemas so parents may call it before Open.
func (d *DivideIter) Schema() schema.Schema {
	if d.out.Len() == 0 {
		d.out = quotientSchema(d.Dividend.Schema(), d.Divisor.Schema())
	}
	return d.out
}

// quotientSchema is A ∪ C of dividend ÷(*) divisor; it panics on
// schemas no division accepts (Open reports those as errors).
func quotientSchema(dividend, divisor schema.Schema) schema.Schema {
	split, err := division.SplitOf(dividend, divisor)
	if err != nil {
		panic(err)
	}
	return split.Quotient()
}

// MergeGroupDivideIter is the group-preserving pipelined division of
// §5.1.1: it requires its dividend sorted (grouped) on the quotient
// attributes A and emits each qualifying quotient as soon as its
// group ends, holding only the divisor table and the current group's
// progress in memory. This is the operator shape that makes Law 1's
// pipeline parallelism possible: NextBatch consumes the sorted
// dividend a batch at a time, runs the group machinery over the whole
// batch, and emits finished quotients into a pooled output batch.
type MergeGroupDivideIter struct {
	Label             string
	Dividend, Divisor BatchIterator
	Stats             *Stats
	// Every is the cooperative ctx-poll interval of the divisor drain,
	// in tuples; 0 means DefaultCheckEvery.
	Every int
	windowBatcher

	out      schema.Schema
	aPos     []int
	bPos     []int
	divisor  relation.TupleIndex
	nDivisor int

	curA    relation.Tuple
	curBits hashkey.Bitset
	curSeen int
	srcDone bool
	opened  bool

	div  []relation.Tuple
	dPos int
}

// Open implements BatchIterator.
func (m *MergeGroupDivideIter) Open(ctx context.Context) error {
	split, err := division.SmallSplit(m.Dividend.Schema(), m.Divisor.Schema())
	if err != nil {
		return err
	}
	m.aPos = m.Dividend.Schema().Positions(split.A.Attrs())
	m.bPos = m.Dividend.Schema().Positions(split.B.Attrs())
	bOrder := m.Divisor.Schema().Positions(split.B.Attrs())

	if err := m.Divisor.Open(ctx); err != nil {
		return err
	}
	m.divisor.Reset()
	if err := drainEvery(ctx, m.Divisor, m.Every, func(t relation.Tuple) error {
		m.divisor.IDProj(t, bOrder)
		return nil
	}); err != nil {
		return err
	}
	m.nDivisor = m.divisor.Len()

	if err := m.Dividend.Open(ctx); err != nil {
		return err
	}
	m.curA, m.curBits, m.curSeen = nil, nil, 0
	m.srcDone = false
	m.opened = true
	m.div, m.dPos = nil, 0
	return nil
}

// NextBatch implements BatchIterator: the sorted dividend flows in a
// batch at a time, the group machinery runs over whole batches, and
// each qualifying quotient lands in a pooled output batch the moment
// its group ends. An armed row budget bounds the output batch (the
// dividend pulls are unbounded: group sizes are unknown ahead of time).
func (m *MergeGroupDivideIter) NextBatch() (*relation.Batch, error) {
	if !m.opened {
		return nil, errNotOpen("MergeGroupDivideIter")
	}
	out := m.outBatch()
	bound := m.effectiveCap()
	for out.Len() < bound {
		if m.srcDone {
			// Flush the final group, once.
			if m.curA != nil {
				q, qualifies := m.finishGroup()
				m.curA = nil
				if qualifies {
					out.Append(q)
				}
			}
			break
		}
		if m.dPos >= len(m.div) {
			ts, err := pull(m.Dividend, 0)
			if err != nil {
				return nil, err
			}
			if ts == nil {
				m.srcDone = true
				continue
			}
			m.div, m.dPos = ts, 0
		}
		t := m.div[m.dPos]
		m.dPos++
		// Compare A in place; it is projected once per group.
		if m.curA == nil {
			m.startGroup(t.Project(m.aPos))
		} else if !t.ProjEqual(m.aPos, m.curA) {
			q, qualifies := m.finishGroup()
			m.startGroup(t.Project(m.aPos))
			m.absorb(t)
			if qualifies {
				out.Append(q)
			}
			continue
		}
		m.absorb(t)
	}
	if out.Len() == 0 {
		return nil, nil
	}
	m.Stats.count(m.Label, int64(out.Len()))
	return out, nil
}

func (m *MergeGroupDivideIter) startGroup(a relation.Tuple) {
	m.curA = a
	// Reuse the bitmap across groups; it is fixed-size per Open.
	if m.curBits == nil {
		m.curBits = hashkey.NewBitset(m.nDivisor)
	} else {
		for i := range m.curBits {
			m.curBits[i] = 0
		}
	}
	m.curSeen = 0
}

func (m *MergeGroupDivideIter) absorb(t relation.Tuple) {
	if bit := m.divisor.LookupProj(t, m.bPos); bit >= 0 {
		if m.curBits.Set(bit) {
			m.curSeen++
		}
	}
}

func (m *MergeGroupDivideIter) finishGroup() (relation.Tuple, bool) {
	return m.curA, m.curSeen == m.nDivisor
}

// Close implements BatchIterator.
func (m *MergeGroupDivideIter) Close() error {
	m.divisor.Reset()
	m.opened = false
	m.div, m.dPos = nil, 0
	m.release()
	err1 := m.Dividend.Close()
	err2 := m.Divisor.Close()
	if err1 != nil {
		return err1
	}
	return err2
}

// Schema implements BatchIterator. It is derived from the children's
// schemas so parents may call it before Open.
func (m *MergeGroupDivideIter) Schema() schema.Schema {
	if m.out.Len() == 0 {
		split, err := division.SmallSplit(m.Dividend.Schema(), m.Divisor.Schema())
		if err != nil {
			panic(err)
		}
		m.out = split.A
	}
	return m.out
}
