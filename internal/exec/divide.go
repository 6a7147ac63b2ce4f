package exec

import (
	"context"

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
}

// Open implements BatchIterator.
func (j *ThetaJoinIter) Open(ctx context.Context) error {
	j.inner = &ProductIter{Label: j.Label + ".product", Left: j.Left, Right: j.Right, Stats: nil, Every: j.Every,
		windowBatcher: windowBatcher{BatchSize: j.BatchSize}}
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

// HashDivideIter is the physical hash-division operator for both
// divisions, the variant following from the schemas: Graefe's
// bit-numbering hash-division when C = R2 − R1 is empty (r1 ÷ r2), the
// counting set-containment division otherwise (r1 ÷* r2). The divisor
// is streamed into the division state on Open, the dividend consumed
// in one pass straight off its child iterator — neither input is
// materialized into an intermediate relation — and the quotient
// emitted afterwards in zero-copy windows. It is blocking on the
// dividend but needs no sorted inputs.
type HashDivideIter struct {
	Label             string
	Dividend, Divisor BatchIterator
	Stats             *Stats
	// Every is the cooperative ctx-poll interval of the build drains,
	// in tuples; 0 means DefaultCheckEvery.
	Every int
	// Spill, when non-nil, bounds the division state: on budget
	// pressure the dividend grace-hash partitions on A to temp files —
	// lossless because a quotient group's verdict depends only on its
	// own tuples plus the whole (retained) divisor — and each partition
	// is divided against the divisor.
	Spill *spill.Tracker
	windowBatcher
	out     schema.Schema
	results []relation.Tuple
	pos     int
	opened  bool
	grace   *graceDivide
	gctx    context.Context
}

// Open implements BatchIterator.
func (h *HashDivideIter) Open(ctx context.Context) error {
	dividendSch, divisorSch := h.Dividend.Schema(), h.Divisor.Schema()
	st, err := division.NewState(dividendSch, divisorSch)
	if err != nil {
		return err
	}
	if err := h.Dividend.Open(ctx); err != nil {
		return err
	}
	if err := h.Divisor.Open(ctx); err != nil {
		return err
	}
	if h.Spill != nil {
		split, err := division.SplitOf(dividendSch, divisorSch)
		if err != nil {
			return err
		}
		g := newGraceDivide(h.Spill, dividendSch, divisorSch, dividendSch.Positions(split.A.Attrs()), h.Every)
		h.grace, h.gctx = g, ctx
		if err := drainEvery(ctx, h.Divisor, h.Every, g.addDivisor); err != nil {
			return err
		}
		if err := drainEvery(ctx, h.Dividend, h.Every, func(t relation.Tuple) error {
			return g.addDividend(ctx, t)
		}); err != nil {
			return err
		}
		if err := g.finish(ctx); err != nil {
			return err
		}
		h.opened = true
		return nil
	}
	if err := drainEvery(ctx, h.Divisor, h.Every, func(t relation.Tuple) error { st.AddDivisor(t); return nil }); err != nil {
		return err
	}
	if err := drainEvery(ctx, h.Dividend, h.Every, func(t relation.Tuple) error { st.AddDividend(t); return nil }); err != nil {
		return err
	}
	h.results = st.Result().Tuples()
	h.pos = 0
	h.opened = true
	return nil
}

// NextBatch implements BatchIterator.
func (h *HashDivideIter) NextBatch() (*relation.Batch, error) {
	if !h.opened {
		return nil, errNotOpen("HashDivideIter")
	}
	if h.grace != nil {
		return graceBatch(h.grace, h.gctx, &h.windowBatcher, h.Stats, h.Label)
	}
	b := h.window(h.results, &h.pos)
	if b != nil {
		h.Stats.count(h.Label, int64(b.Len()))
	}
	return b, nil
}

// Close implements BatchIterator.
func (h *HashDivideIter) Close() error {
	h.results, h.opened = nil, false
	if h.grace != nil {
		h.grace.close()
		h.grace = nil
	}
	h.release()
	err1 := h.Dividend.Close()
	err2 := h.Divisor.Close()
	if err1 != nil {
		return err1
	}
	return err2
}

// Schema implements BatchIterator. It is derived from the children's
// schemas so parents may call it before Open.
func (h *HashDivideIter) Schema() schema.Schema {
	if h.out.Len() == 0 {
		h.out = quotientSchema(h.Dividend.Schema(), h.Divisor.Schema())
	}
	return h.out
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
		at := t.Project(m.aPos)
		if m.curA == nil {
			m.startGroup(at)
		} else if at.Compare(m.curA) != 0 {
			q, qualifies := m.finishGroup()
			m.startGroup(at)
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
