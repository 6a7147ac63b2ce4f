package exec

import (
	"container/heap"
	"context"
	"errors"
	"fmt"
	"io"
	"slices"
	"sort"

	"divlaws/internal/agg"
	"divlaws/internal/relation"
	"divlaws/internal/schema"
	"divlaws/internal/spill"
	"divlaws/internal/value"
)

// ScanIter streams a materialized relation in zero-copy windows over
// its tuple slice.
type ScanIter struct {
	Label string
	Rel   *relation.Relation
	Stats *Stats
	windowBatcher
	pos  int
	open bool
}

// Open implements BatchIterator.
func (s *ScanIter) Open(ctx context.Context) error { s.pos, s.open = 0, true; return nil }

// NextBatch implements BatchIterator.
func (s *ScanIter) NextBatch() (*relation.Batch, error) {
	if !s.open {
		return nil, errNotOpen("ScanIter")
	}
	b := s.window(s.Rel.Tuples(), &s.pos)
	if b != nil {
		s.Stats.count(s.Label, int64(b.Len()))
	}
	return b, nil
}

// Close implements BatchIterator.
func (s *ScanIter) Close() error { s.open = false; s.release(); return nil }

// Schema implements BatchIterator.
func (s *ScanIter) Schema() schema.Schema { return s.Rel.Schema() }

// UnionIter streams left then right, deduplicating whole child
// batches into a pooled output batch.
type UnionIter struct {
	Label       string
	Left, Right BatchIterator
	Stats       *Stats
	windowBatcher
	seen     *relation.TupleIndex
	onRight  bool
	rightPos []int
}

// Open implements BatchIterator.
func (u *UnionIter) Open(ctx context.Context) error {
	u.seen = new(relation.TupleIndex)
	u.onRight = false
	if !u.Left.Schema().EqualSet(u.Right.Schema()) {
		return schemaErr("Union", u.Left.Schema(), u.Right.Schema())
	}
	u.rightPos = u.Right.Schema().Positions(u.Left.Schema().Attrs())
	if err := u.Left.Open(ctx); err != nil {
		return err
	}
	return u.Right.Open(ctx)
}

// NextBatch implements BatchIterator: whole child batches are probed
// against the seen-set, survivors emitted into a pooled output batch.
// The armed row budget flows to the children (dedup only shrinks
// batches, so the child's bound is ours).
func (u *UnionIter) NextBatch() (*relation.Batch, error) {
	if u.seen == nil {
		return nil, errNotOpen("UnionIter")
	}
	for {
		var ts []relation.Tuple
		var err error
		if !u.onRight {
			ts, err = pull(u.Left, u.budget)
			if err != nil {
				return nil, err
			}
			if ts == nil {
				u.onRight = true
				continue
			}
		} else {
			ts, err = pull(u.Right, u.budget)
			if err != nil || ts == nil {
				return nil, err
			}
		}
		out := u.outBatch()
		if !u.onRight {
			for _, t := range ts {
				if _, created := u.seen.ID(t); created {
					out.Append(t)
				}
			}
		} else {
			for _, t := range ts {
				if id, created := u.seen.IDProj(t, u.rightPos); created {
					out.Append(u.seen.Key(id))
				}
			}
		}
		if n := out.Len(); n > 0 {
			u.Stats.count(u.Label, int64(n))
			return out, nil
		}
	}
}

// Close implements BatchIterator.
func (u *UnionIter) Close() error {
	u.seen = nil
	u.release()
	err1 := u.Left.Close()
	err2 := u.Right.Close()
	if err1 != nil {
		return err1
	}
	return err2
}

// Schema implements BatchIterator.
func (u *UnionIter) Schema() schema.Schema { return u.Left.Schema() }

// ProductIter is a blocking nested-loop Cartesian product: the right
// input is materialized, the left streamed: NextBatch pulls the probe
// (left) side a batch at a time and fills a pooled output batch with
// concatenations — an armed row budget bounds both the output batch
// and how much probe input is pulled. Borrowed output (see compile)
// reuses one slab chunk for every batch.
type ProductIter struct {
	Label       string
	Left, Right BatchIterator
	Stats       *Stats
	// Every is the cooperative ctx-poll interval of the build drain, in
	// tuples; 0 means DefaultCheckEvery.
	Every int
	windowBatcher
	right []relation.Tuple
	cur   relation.Tuple
	idx   int
	done  bool
	probe []relation.Tuple
	pPos  int
	slab  relation.Slab // emit allocator; output tuples are sliced from it
	// borrowed: the consumer drops each batch's tuples before the next
	// NextBatch, so the slab is rewound per batch (set by compile).
	borrowed bool
}

// Open implements BatchIterator.
func (p *ProductIter) Open(ctx context.Context) error {
	if err := p.Left.Open(ctx); err != nil {
		return err
	}
	if err := p.Right.Open(ctx); err != nil {
		return err
	}
	p.right = nil
	if err := drainEvery(ctx, p.Right, p.Every, func(t relation.Tuple) error {
		p.right = append(p.right, t)
		return nil
	}); err != nil {
		return err
	}
	p.cur, p.idx, p.done = nil, 0, false
	p.probe, p.pPos = nil, 0
	return nil
}

// NextBatch implements BatchIterator.
func (p *ProductIter) NextBatch() (*relation.Batch, error) {
	if p.done {
		return nil, nil
	}
	if len(p.right) == 0 {
		// Empty product. One probe row is still pulled first, so a
		// probe-side error surfaces and Stats count what they always
		// have for this shape.
		if _, err := pull(p.Left, 1); err != nil {
			return nil, err
		}
		p.done = true
		return nil, nil
	}
	if p.borrowed {
		p.slab.Rewind()
	}
	out := p.outBatch()
	bound := p.effectiveCap()
	for out.Len() < bound {
		if p.cur == nil || p.idx >= len(p.right) {
			if p.pPos >= len(p.probe) {
				// The probe side is pulled with just the rows the output
				// still needs: every probe tuple expands by len(right).
				var fb int64
				if p.budget > 0 {
					need := int64(bound - out.Len())
					fb = (need + int64(len(p.right)) - 1) / int64(len(p.right))
				}
				ts, err := pull(p.Left, fb)
				if err != nil {
					return nil, err
				}
				if ts == nil {
					p.done = true
					// No more emissions: stop squatting on the budget
					// (already-emitted tuples stay valid).
					p.slab.Close()
					break
				}
				p.probe, p.pPos = ts, 0
			}
			p.cur, p.idx = p.probe[p.pPos], 0
			p.pPos++
		}
		out.Append(p.slab.Concat(p.cur, p.right[p.idx]))
		p.idx++
	}
	if out.Len() == 0 {
		return nil, nil
	}
	p.Stats.count(p.Label, int64(out.Len()))
	return out, nil
}

// Close implements BatchIterator.
func (p *ProductIter) Close() error {
	p.slab.Close()
	p.right, p.probe, p.pPos = nil, nil, 0
	p.release()
	err1 := p.Left.Close()
	err2 := p.Right.Close()
	if err1 != nil {
		return err1
	}
	return err2
}

// Schema implements BatchIterator.
func (p *ProductIter) Schema() schema.Schema {
	return p.Left.Schema().Concat(p.Right.Schema())
}

// JoinMode is what a HashJoinIter emits for a probe row: the natural
// join's concatenations (JoinInner), or the row itself when a build row
// shares its key (JoinSemi: ⋉, ∩) or when none does (JoinAnti: ▷, −).
type JoinMode uint8

const (
	JoinInner JoinMode = iota
	JoinSemi
	JoinAnti
)

// HashJoinIter is the hash join family, ⋈, ⋉, ▷, ∩ and −: build on the
// right input's common-attribute key, probe with the left, emit by
// Mode. The natural join streams whole probe batches from its probe
// source, probing each row at its cursor advance and emitting
// concatenated matches into a pooled output batch; a semi mode indexes
// keys only and looks a whole probe batch up in one pass. With no
// common attribute every row has the empty key: the join is the
// product (which compile runs as a ProductIter), and a semi mode's
// match is "the right input has a row", which one pulled row decides.
//
// No mode needs output dedup: operator outputs are sets, so left tuples
// are distinct and each build key's extras are distinct (key+extra is
// the whole right tuple), making every concatenation distinct — the
// same invariant ProductIter's emit path trusts — and a semi mode emits
// a subset of the left input. Over one attribute set the semi modes are
// the intersection and the difference: r ∩ s = r ⋉ s, r − s = r ▷ s.
//
// Under a budget the build is charged row by row (a semi mode: key by
// key). At the first refusal the index and the rest of the build side
// go to spillFanout runs partitioned on the key, and the probe side to
// the matching runs (grace hash). Each pair of runs is then one smaller
// instance of the same join: the same build over a reader of its build
// run, then the same probe loop over a reader of its probe run. A pair
// with an empty side emits nothing, except that the anti mode emits an
// unmatched probe run whole. A pair whose build overflows again is
// split one level deeper on fresh hash bits, up to maxSpillDepth. A
// pair build refused for one key alone larger than the budget
// (errOneKey) is not split, since no split separates one key: if a row
// of the pair's probe run has that key's hash the join fails, and
// otherwise the key's build rows match nothing in any mode, so the
// pair is built again without them.
type HashJoinIter struct {
	Label       string
	Left, Right BatchIterator
	Mode        JoinMode
	// SetOp, when set, names the set operator a semi mode runs; Open
	// then rejects inputs over different attribute sets.
	SetOp string
	Stats *Stats
	// Every is the cooperative ctx-poll interval of the build drain and
	// the spilled runs' reads, in tuples; 0 means DefaultCheckEvery.
	Every int
	// Spill, when non-nil, bounds the build side: on budget pressure
	// both sides grace-hash partition into spill runs and the partition
	// pairs are joined independently.
	Spill *spill.Tracker
	windowBatcher

	out                         schema.Schema
	leftPos, rightPos, extraPos []int
	opened                      bool

	// The build: each key indexed once, the join's rows' extra
	// attributes carved from store, and what they hold of the budget.
	keyIx relation.TupleIndex
	rows  [][]relation.Tuple
	store relation.Slab
	cost  tableCharge

	// The probe loop. src is Left, a spilled probe run's reader, or nil
	// between pairs.
	src     BatchIterator
	probe   []relation.Tuple
	pPos    int
	cur     relation.Tuple
	matches []relation.Tuple
	mIdx    int
	ids     []int         // a semi mode's batch lookup
	slab    relation.Slab // emit allocator; output tuples are sliced from it
	// borrowed: the consumer drops each batch's tuples before the next
	// NextBatch, so the emit slab is rewound per batch (set by compile).
	borrowed bool

	// The spilled pairs still to join, and what reading them shares.
	// skip is the build key hashes the current pair's build drops, and
	// hot the key hash of the last errOneKey refusal.
	pairs []joinPair
	skip  []uint64
	hot   uint64
	strs  *spill.StringCache
	poll  func() error
	ctx   context.Context
}

// joinPair is one spilled partition of a join: a build run and the
// probe run holding the same keys, at a split depth, and the hashes of
// the build keys too large for the budget that no probe row has.
type joinPair struct {
	build, probe *spill.Run
	depth        int
	skip         []uint64
}

// Open implements BatchIterator.
func (j *HashJoinIter) Open(ctx context.Context) error {
	if j.SetOp != "" && !j.Left.Schema().EqualSet(j.Right.Schema()) {
		return schemaErr(j.SetOp, j.Left.Schema(), j.Right.Schema())
	}
	common := j.Left.Schema().Intersect(j.Right.Schema())
	j.leftPos = j.Left.Schema().Positions(common.Attrs())
	j.rightPos = j.Right.Schema().Positions(common.Attrs())
	extra := j.Right.Schema().Minus(common)
	j.extraPos = j.Right.Schema().Positions(extra.Attrs())

	if err := j.Left.Open(ctx); err != nil {
		return err
	}
	if err := j.Right.Open(ctx); err != nil {
		return err
	}
	j.ctx, j.poll, j.opened = ctx, poller(ctx, effEvery(j.Every)), true
	if j.Spill != nil {
		// Budgeted runs account the emit slab's live chunk too.
		j.slab.Charge, j.slab.Release = j.Spill.Charge, j.Spill.Release
	}
	j.src = j.Left
	if common.Len() == 0 && j.Mode != JoinInner {
		// One right row decides every match: each row has the empty key.
		ts, err := pull(j.Right, 1)
		if len(ts) > 0 {
			j.keyIx.IDProj(ts[0], nil)
		}
		return err
	}
	if err := j.build(ctx, j.Right, true); err != nil || j.pairs == nil {
		return err
	}
	// The build side spilled: the probe side follows it into the
	// matching runs, and NextBatch joins the pairs.
	j.src = nil
	return drainEvery(ctx, j.Left, j.Every, func(t relation.Tuple) error {
		return j.pairs[spillPart(t.Hash64Proj(j.leftPos), 0)].probe.Append(t)
	})
}

// build drains src into the index, dropping the rows whose key hash is
// in skip; the index copies what it keeps, so src may lend its rows.
// Under a budget each row is charged when it is indexed, and the index
// table's growth with the next charge. A refusal is returned, unless
// spillRest is set: then the index and the rest of src go to depth-0
// build runs (see spillIndex), even for one key too large for the
// budget, since only the probe side tells whether that key matters.
func (j *HashJoinIter) build(ctx context.Context, src BatchIterator, spillRest bool) error {
	spilled := false
	err := drainEvery(ctx, src, j.Every, func(t relation.Tuple) error {
		if !spilled {
			if len(j.skip) > 0 && slices.Contains(j.skip, t.Hash64Proj(j.rightPos)) {
				return nil
			}
			err := j.insert(t)
			if errors.Is(err, errOneKey) {
				j.hot = t.Hash64Proj(j.rightPos)
			}
			if !spillRest || !errors.Is(err, spill.ErrBudget) {
				return err
			}
			if err := j.spillIndex(); err != nil {
				return err
			}
			spilled = true
		}
		return j.pairs[spillPart(t.Hash64Proj(j.rightPos), 0)].build.Append(t)
	})
	if err != nil || spilled {
		return err
	}
	// Settle the table's growth from the last row.
	if err = j.cost.charge(j.Spill, &j.keyIx, 0, false); spillRest && errors.Is(err, spill.ErrBudget) {
		return j.spillIndex()
	}
	return err
}

// insert indexes one build row under a budget. The join charges the
// row first and keeps its key and extras; a refused row is not indexed.
// A semi mode keeps the key alone and charges it once it is new; a
// refused key leaves with the index, spilled or dropped. A refusal
// that one key alone makes is errOneKey (see tableCharge.charge).
func (j *HashJoinIter) insert(t relation.Tuple) error {
	if j.Mode != JoinInner {
		if id, created := j.keyIx.IDProj(t, j.rightPos); created && j.Spill != nil {
			return j.cost.charge(j.Spill, &j.keyIx, j.keyIx.Key(id).Footprint(), id == 0)
		}
		return nil
	}
	if j.Spill != nil {
		keys := j.keyIx.Len()
		alone := keys == 0 || keys == 1 && j.keyIx.LookupProj(t, j.rightPos) == 0
		if err := j.cost.charge(j.Spill, &j.keyIx, t.Footprint(), alone); err != nil {
			return err
		}
	}
	id, created := j.keyIx.IDProj(t, j.rightPos)
	if created {
		j.rows = append(j.rows, nil)
	}
	j.rows[id] = append(j.rows[id], j.store.ConcatProj(nil, t, j.extraPos))
	return nil
}

// dropIndex empties the index and gives its charge back.
func (j *HashJoinIter) dropIndex() {
	j.cost.release(j.Spill)
	j.keyIx = relation.TupleIndex{}
	j.rows = nil
	j.store.Close()
}

// spillIndex moves the index to fresh depth-0 build runs, makes the
// matching probe runs and releases the index's charge. A build run
// holds right-schema tuples, rebuilt from key and extras, so a pair's
// build reads it as it reads the right input; a semi mode writes each
// key once, with nulls for the attributes it does not keep.
func (j *HashJoinIter) spillIndex() error {
	row := make(relation.Tuple, j.Right.Schema().Len())
	builds, err := fanOut(j.Spill, func(runs []*spill.Run) error {
		for id, key := range j.keyIx.Keys() {
			run := runs[spillPart(key.Hash64(), 0)]
			for i, p := range j.rightPos {
				row[p] = key[i]
			}
			if j.Mode != JoinInner {
				if err := run.Append(row); err != nil {
					return err
				}
				continue
			}
			for _, extra := range j.rows[id] {
				for i, p := range j.extraPos {
					row[p] = extra[i]
				}
				if err := run.Append(row); err != nil {
					return err
				}
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	probes, err := fanOut(j.Spill, func([]*spill.Run) error { return nil })
	if err != nil {
		closeRuns(builds)
		return err
	}
	j.pairs = make([]joinPair, spillFanout)
	for i := range j.pairs {
		j.pairs[i] = joinPair{build: builds[i], probe: probes[i]}
	}
	j.dropIndex()
	j.strs = j.Spill.NewStringCache()
	j.Spill.AddPartitions(1)
	return nil
}

// nextPair loads the next spilled pair that can emit: its build run
// goes through build, and its probe run becomes the probe source. A
// pair whose build overflows is split one level deeper and its children
// go first, unless one key alone overflowed: the pair is then built
// again without that key if no probe row has its hash, and fails
// otherwise. It reports false once no pair is left; on an error the
// failed pair stays queued for Close.
func (j *HashJoinIter) nextPair() (bool, error) {
	for len(j.pairs) > 0 {
		p := j.pairs[0]
		if p.probe.Len() == 0 || (p.build.Len() == 0 && j.Mode != JoinAnti) {
			j.pairs = j.pairs[1:]
			p.build.Close()
			p.probe.Close()
			continue
		}
		build := j.reader(p.build, j.Right.Schema())
		j.skip = p.skip
		err := build.Open(j.ctx)
		if err == nil {
			err = j.build(j.ctx, build, false)
		}
		if err == nil {
			err = build.Close()
		}
		j.skip = nil
		if err == nil {
			j.pairs = j.pairs[1:]
			j.src = j.reader(p.probe, j.Left.Schema())
			return true, j.src.Open(j.ctx)
		}
		j.dropIndex()
		if errors.Is(err, errOneKey) {
			probed, perr := j.probed(p.probe, j.hot)
			if perr != nil {
				return false, perr
			}
			if probed {
				return false, err
			}
			j.pairs[0].skip = append(p.skip, j.hot)
			continue
		}
		if !errors.Is(err, spill.ErrBudget) {
			return false, err
		}
		children, err := j.split(p)
		if err != nil {
			return false, err
		}
		j.pairs = append(children, j.pairs[1:]...)
	}
	return false, nil
}

// split re-partitions both runs of a pair one level deeper on fresh
// hash bits and closes them.
func (j *HashJoinIter) split(p joinPair) ([]joinPair, error) {
	builds, err := splitRun(j.ctx, j.Spill, j.strs, p.build, p.depth, j.Every, func(t relation.Tuple) uint64 {
		return t.Hash64Proj(j.rightPos)
	})
	if err != nil {
		return nil, err
	}
	probes, err := splitRun(j.ctx, j.Spill, j.strs, p.probe, p.depth, j.Every, func(t relation.Tuple) uint64 {
		return t.Hash64Proj(j.leftPos)
	})
	if err != nil {
		closeRuns(builds)
		return nil, err
	}
	p.build.Close()
	p.probe.Close()
	children := make([]joinPair, spillFanout)
	for i := range children {
		children[i] = joinPair{build: builds[i], probe: probes[i], depth: p.depth + 1, skip: slices.Clip(p.skip)}
	}
	j.Spill.AddPartitions(1)
	return children, nil
}

// probed reports whether a row of the probe run has key hash h.
func (j *HashJoinIter) probed(run *spill.Run, h uint64) (bool, error) {
	if err := run.Rewind(); err != nil {
		return false, err
	}
	for {
		t, err := run.Next(j.strs)
		if err == io.EOF {
			return false, nil
		}
		if err == nil {
			err = j.poll()
		}
		if err != nil {
			return false, err
		}
		if t.Hash64Proj(j.leftPos) == h {
			return true, nil
		}
	}
}

// reader returns a reader of one of the join's runs.
func (j *HashJoinIter) reader(run *spill.Run, sch schema.Schema) *runReader {
	return &runReader{run: run, sch: sch, strs: j.strs, poll: j.poll, windowBatcher: windowBatcher{BatchSize: j.BatchSize}}
}

// endProbe ends the probe source: the index and the emit slab give
// their budget back (emitted tuples stay valid, and blocking consumers
// downstream get the budget sooner), and a run's reader is closed.
func (j *HashJoinIter) endProbe() error {
	j.dropIndex()
	j.slab.Close()
	j.matches = nil
	r, ok := j.src.(*runReader)
	j.src = nil
	if ok {
		return r.Close()
	}
	return nil
}

// NextBatch implements BatchIterator: pending matches of the current
// probe tuple flush first, then the next probe batch streams through
// the cursor, each row probed and its matches emitted until the
// output batch fills; a semi mode filters the whole batch and returns
// what passed. When a probe source ends, the next spilled pair, if any,
// takes over. An armed row budget bounds the output batch and the probe
// pulls.
func (j *HashJoinIter) NextBatch() (*relation.Batch, error) {
	if !j.opened {
		return nil, errNotOpen("HashJoinIter")
	}
	if j.borrowed {
		j.slab.Rewind()
	}
	out := j.outBatch()
	bound := j.effectiveCap()
	for out.Len() < bound {
		if j.mIdx < len(j.matches) {
			out.Append(j.slab.Concat(j.cur, j.matches[j.mIdx]))
			j.mIdx++
			continue
		}
		if j.pPos >= len(j.probe) {
			if j.src == nil {
				ok, err := j.nextPair()
				if err != nil {
					return nil, err
				}
				if !ok {
					break
				}
				continue
			}
			// Pull the next probe batch, row-budgeted by what the output
			// still needs (a key can match many build rows, so this only
			// bounds, never starves).
			var fb int64
			if j.budget > 0 {
				fb = int64(bound - out.Len())
			}
			ts, err := pull(j.src, fb)
			if err != nil {
				return nil, err
			}
			if ts == nil {
				if err := j.endProbe(); err != nil {
					return nil, err
				}
				continue
			}
			if j.Mode == JoinInner {
				j.probe, j.pPos = ts, 0
				continue
			}
			// A semi mode looks the whole batch up in one pass. A row of a
			// spilled probe run is borrowed from the run's reader, so it is
			// copied through the emit slab.
			j.ids = j.keyIx.LookupProjBatch(ts, j.leftPos, j.ids[:0])
			_, spilled := j.src.(*runReader)
			for i, t := range ts {
				if (j.ids[i] >= 0) == (j.Mode == JoinSemi) {
					if spilled {
						t = j.slab.Concat(t, nil)
					}
					out.Append(t)
				}
			}
			if out.Len() > 0 {
				break
			}
			continue
		}
		// Probe at the cursor advance rather than materializing ids or
		// hashes per batch row: a side array costs a write and a
		// re-read per row, and the fused LookupProj (hash plus walk in
		// one frame) measured faster than a separate batch hash pass
		// on this loop, where the key is short and the walk is L1-hot.
		j.cur = j.probe[j.pPos]
		if id := j.keyIx.LookupProj(j.cur, j.leftPos); id >= 0 {
			j.matches = j.rows[id]
		} else {
			j.matches = nil
		}
		j.mIdx = 0
		j.pPos++
	}
	if out.Len() == 0 {
		return nil, nil
	}
	j.Stats.count(j.Label, int64(out.Len()))
	return out, nil
}

// Close implements BatchIterator.
func (j *HashJoinIter) Close() error {
	j.endProbe()
	for _, p := range j.pairs {
		p.build.Close()
		p.probe.Close()
	}
	j.pairs = nil
	j.strs.Close()
	j.probe, j.pPos = nil, 0
	j.ids = nil
	j.opened = false
	j.release()
	err1 := j.Left.Close()
	err2 := j.Right.Close()
	if err1 != nil {
		return err1
	}
	return err2
}

// Schema implements BatchIterator.
func (j *HashJoinIter) Schema() schema.Schema {
	if j.Mode != JoinInner {
		return j.Left.Schema()
	}
	if j.out.Len() == 0 {
		j.out = j.Left.Schema().Union(j.Right.Schema())
	}
	return j.out
}

// GroupIter is the grouping operator GγF, the hash family's
// aggregation. It folds its input batch by batch into one table, an
// index of the By keys with len(Aggs) agg.States per group, and emits
// one row per group: its key, then its aggregates. Operator outputs
// are sets, so each input row is folded as it comes, with no dedup;
// the index copies the keys it keeps, so the input may lend its rows.
// Unbudgeted it emits the groups in first-seen order, as algebra.Group
// does. With By empty it emits one row even for an empty input
// (global aggregation).
//
// Under a budget each new group charges its key and its states before
// it is made, and the index table's growth rides on the next charge,
// as a semi mode's keys do. After the first refused group a pass makes
// no new group: rows of the groups in the table keep folding, and
// every other row goes to the spillFanout runs for its By hash at the
// pass's depth. When the pass's input is drained its groups are final:
// they become output rows, which keep the table's charge until they
// are emitted. Each run is then aggregated by the same pass one level
// deeper, up to maxSpillDepth. A group is folded whole within one
// pass, so no partial state is ever written to disk. A pass whose
// first group alone is larger than the budget fails at once
// (errOneKey).
type GroupIter struct {
	Label string
	Input BatchIterator
	By    []string
	Aggs  []agg.AggSpec
	Stats *Stats
	// Every is the cooperative ctx-poll interval of the input drain and
	// the spilled runs' reads, in tuples; 0 means DefaultCheckEvery.
	Every int
	// Spill, when non-nil, bounds the table: on budget pressure the rows
	// of groups outside it grace-hash partition into spill runs, which are
	// aggregated once the table's groups are emitted.
	Spill *spill.Tracker
	windowBatcher

	out       schema.Schema
	byPos, in []int
	opened    bool

	// The table: group id's states are states[id*len(Aggs):], zero is
	// a new group's, and cost is what the table holds of the budget,
	// kept by its output rows until they are emitted.
	keyIx  relation.TupleIndex
	states []agg.State
	zero   []agg.State
	cost   tableCharge
	rows   []relation.Tuple
	pos    int

	// The spilled partitions still to aggregate, and what reading them
	// shares.
	runs []groupRun
	strs *spill.StringCache
	poll func() error
	ctx  context.Context
}

// groupRun is one spilled partition of a grouping: input rows whose By
// hash selects it at depth.
type groupRun struct {
	run   *spill.Run
	depth int
}

// Open implements BatchIterator: it aggregates the whole input.
func (g *GroupIter) Open(ctx context.Context) error {
	sch := g.Input.Schema()
	g.byPos, g.in = sch.Positions(g.By), agg.Inputs(sch, g.Aggs)
	g.zero = make([]agg.State, len(g.Aggs))
	if err := g.Input.Open(ctx); err != nil {
		return err
	}
	g.ctx, g.poll, g.opened = ctx, poller(ctx, effEvery(g.Every)), true
	return g.pass(g.Input, 0)
}

// pass folds src into the empty table at depth and turns the final
// groups into output rows. The rows of groups it cannot make go to
// fresh runs, queued before the older ones.
func (g *GroupIter) pass(src BatchIterator, depth int) error {
	var runs []*spill.Run
	err := drainEvery(g.ctx, src, g.Every, func(t relation.Tuple) error {
		h := t.Hash64Proj(g.byPos)
		id := g.keyIx.LookupProjHashed(h, t, g.byPos)
		if id < 0 && runs == nil {
			var err error
			if id, err = g.admit(h, t); err != nil {
				if runs, err = g.overflow(err, depth); err != nil {
					return err
				}
			}
		}
		if id < 0 {
			return runs[spillPart(h, depth)].Append(t)
		}
		agg.Fold(g.states[id*len(g.Aggs):], t, g.in)
		return nil
	})
	children := make([]groupRun, len(runs))
	for i, r := range runs {
		children[i] = groupRun{run: r, depth: depth}
	}
	g.runs = append(children, g.runs...)
	if err != nil {
		return err
	}
	if len(g.By) == 0 && depth == 0 && runs == nil && g.keyIx.Len() == 0 {
		// Global aggregation over an empty input is one row of
		// aggregate identities (count = 0, others NULL).
		if _, err := g.admit(relation.Tuple{}.Hash64Proj(nil), relation.Tuple{}); err != nil {
			return err
		}
	}
	w := len(g.By) + len(g.Aggs)
	vals := make([]value.Value, g.keyIx.Len()*w)
	g.rows, g.pos = make([]relation.Tuple, g.keyIx.Len()), 0
	for id, key := range g.keyIx.Keys() {
		row := relation.Tuple(vals[id*w : id*w+w : id*w+w])
		copy(row, key)
		agg.Finish(row[len(key):], g.states[id*len(g.Aggs):], g.Aggs)
		g.rows[id] = row
	}
	g.keyIx, g.states = relation.TupleIndex{}, nil
	return nil
}

// admit makes t's group, whose By hash is h. Under a budget it charges
// the group's key and states first; a refused group is not made, and
// admit returns -1 with the refusal.
func (g *GroupIter) admit(h uint64, t relation.Tuple) (int, error) {
	if g.Spill != nil {
		n := t.FootprintProj(g.byPos) + int64(len(g.Aggs))*agg.StateBytes
		if err := g.cost.charge(g.Spill, &g.keyIx, n, g.keyIx.Len() == 0); err != nil {
			return -1, err
		}
	}
	id, _ := g.keyIx.IDProjHashed(h, t, g.byPos)
	g.states = append(g.states, g.zero...)
	return id, nil
}

// overflow answers a pass's first refused group with the runs for the
// rest of the pass, or with the query's error when splitting cannot
// help: a refusal that is not the budget's, one group larger than the
// budget, or a pass already maxSpillDepth splits deep.
func (g *GroupIter) overflow(err error, depth int) ([]*spill.Run, error) {
	if !errors.Is(err, spill.ErrBudget) || errors.Is(err, errOneKey) {
		return nil, err
	}
	if depth > maxSpillDepth {
		return nil, errSplitDepth
	}
	runs, err := fanOut(g.Spill, func([]*spill.Run) error { return nil })
	if err != nil {
		return nil, err
	}
	if g.strs == nil {
		g.strs = g.Spill.NewStringCache()
	}
	g.Spill.AddPartitions(1)
	return runs, nil
}

// nextRun gives back what is left of the emitted rows' charge and
// aggregates the next non-empty run, one level deeper; it reports
// false once no run is left.
func (g *GroupIter) nextRun() (bool, error) {
	g.cost.release(g.Spill)
	g.rows, g.pos = nil, 0
	for len(g.runs) > 0 {
		r := g.runs[0]
		g.runs = g.runs[1:]
		if r.run.Len() == 0 {
			r.run.Close()
			continue
		}
		src := &runReader{run: r.run, sch: g.Input.Schema(), strs: g.strs, poll: g.poll, windowBatcher: windowBatcher{BatchSize: g.BatchSize}}
		err := src.Open(g.ctx)
		if err == nil {
			err = g.pass(src, r.depth+1)
		}
		if cerr := src.Close(); err == nil {
			err = cerr
		}
		return err == nil, err
	}
	return false, nil
}

// NextBatch implements BatchIterator: the output rows of a pass are
// served in zero-copy windows, each giving its rows' footprint of the
// charge back (the consumer accounts what it keeps); when they are all
// out, the next spilled run, if any, is aggregated and takes over.
func (g *GroupIter) NextBatch() (*relation.Batch, error) {
	if !g.opened {
		return nil, errNotOpen("GroupIter")
	}
	for g.pos == len(g.rows) {
		if ok, err := g.nextRun(); !ok {
			return nil, err
		}
	}
	b := g.window(g.rows, &g.pos)
	if g.Spill != nil {
		var n int64
		for _, t := range b.Tuples() {
			n += t.Footprint()
		}
		g.cost.give(g.Spill, n)
	}
	g.Stats.count(g.Label, int64(b.Len()))
	return b, nil
}

// Close implements BatchIterator.
func (g *GroupIter) Close() error {
	g.cost.release(g.Spill)
	g.keyIx, g.states, g.rows, g.pos = relation.TupleIndex{}, nil, nil, 0
	for _, r := range g.runs {
		r.run.Close()
	}
	g.runs = nil
	g.strs.Close()
	g.strs = nil
	g.opened = false
	g.release()
	return g.Input.Close()
}

// Schema implements BatchIterator.
func (g *GroupIter) Schema() schema.Schema {
	if g.out.Len() == 0 {
		attrs := append([]string(nil), g.By...)
		for _, a := range g.Aggs {
			attrs = append(attrs, a.As)
		}
		g.out = schema.New(attrs...)
	}
	return g.out
}

// SortIter is the blocking physical ordering operator: it
// materializes its input, sorts with the reusable keyed tuple
// comparator (relation.KeyedCompare — per-key ASC/DESC, canonical
// tie-break), and emits in order. It implements plan.Sort and feeds
// the merge-group division; the sorted run is emitted in zero-copy
// windows.
//
// Under a memory budget (Spill != nil) it degrades to an external
// merge sort: the buffer is charged against the tracker, flushed to a
// sorted spill run whenever it would exceed the budget, and the
// runs are k-way merged on NextBatch. KeyedCompare's canonical tie-break
// makes the merged order identical to the in-memory sort's. The merge
// copies each row it takes from a run into its slab; borrowed output
// (see compile) rewinds one slab chunk per batch.
type SortIter struct {
	Label string
	Input BatchIterator
	// ByPos optionally sorts by specific column positions first.
	ByPos []int
	// Desc optionally inverts the matching ByPos key; nil means all
	// ascending. When set, len(Desc) must equal len(ByPos).
	Desc  []bool
	Stats *Stats
	// Every is the cooperative ctx-poll interval of the input drain, in
	// tuples; 0 means DefaultCheckEvery.
	Every int
	// Spill, when non-nil, bounds the sort buffer: on budget pressure
	// sorted runs spill to disk and are merged on emit.
	Spill *spill.Tracker
	// half, set by compile when the input's subtree holds a budgeted
	// blocking operator, flushes the buffer before it passes half the
	// budget, so that operator keeps the other half for its own state.
	half bool
	windowBatcher
	rows []relation.Tuple
	pos  int
	open bool
	// borrowed: the consumer drops each batch's tuples before the next
	// NextBatch, so the merge slab is rewound per batch (set by compile).
	borrowed bool

	charged int64
	runs    []*spill.Run
	strs    *spill.StringCache // for reading the runs during the merge
	slab    relation.Slab      // owns the run tuples the merge emits
	mh      *sortMerge
	poll    func() error // polls the Open ctx during the merge
}

// Open implements BatchIterator.
func (s *SortIter) Open(ctx context.Context) error {
	if err := s.Input.Open(ctx); err != nil {
		return err
	}
	s.rows = nil
	s.open = true
	cmp := relation.KeyedCompare(s.ByPos, s.Desc)
	if s.Spill == nil {
		if err := drainEvery(ctx, s.Input, s.Every, func(t relation.Tuple) error {
			s.rows = append(s.rows, t)
			return nil
		}); err != nil {
			return err
		}
		sort.Slice(s.rows, func(i, j int) bool { return cmp(s.rows[i], s.rows[j]) < 0 })
		s.pos = 0
		return nil
	}
	if err := drainEvery(ctx, s.Input, s.Every, func(t relation.Tuple) error {
		fp := t.Footprint()
		if !s.half || s.charged == 0 || s.charged+fp <= s.Spill.Limit()/2 {
			err := s.Spill.Charge(fp)
			if err == nil {
				s.charged += fp
				s.rows = append(s.rows, t)
				return nil
			}
			if !errors.Is(err, spill.ErrBudget) {
				return err
			}
		}
		if err := s.spillBuffer(cmp); err != nil {
			return err
		}
		// After a flush the buffer is empty; if a single tuple still
		// does not fit the query genuinely cannot run in the budget.
		if err := s.Spill.Charge(fp); err != nil {
			return err
		}
		s.charged += fp
		s.rows = append(s.rows, t)
		return nil
	}); err != nil {
		return err
	}
	sort.Slice(s.rows, func(i, j int) bool { return cmp(s.rows[i], s.rows[j]) < 0 })
	s.pos = 0
	if len(s.runs) == 0 {
		return nil // everything fit: serve the in-memory run
	}
	// K-way merge across the spilled runs plus the final in-memory
	// buffer.
	s.strs = s.Spill.NewStringCache()
	// The last buffer may leave the budget nearly full: chunks grow to
	// one batch of rows, which a borrowed merge rewinds every batch.
	s.slab = relation.Slab{Charge: s.Spill.Charge, Release: s.Spill.Release, MaxValues: s.Schema().Len() * s.batchCap()}
	srcs := make([]*sortSource, 0, len(s.runs)+1)
	for _, r := range s.runs {
		if err := r.Rewind(); err != nil {
			return err
		}
		srcs = append(srcs, &sortSource{run: r})
	}
	if len(s.rows) > 0 {
		srcs = append(srcs, &sortSource{rows: s.rows})
	}
	live := srcs[:0]
	for _, src := range srcs {
		t, ok, err := src.advance(s.strs)
		if err != nil {
			return err
		}
		if ok {
			src.head = t
			live = append(live, src)
		}
	}
	s.mh = &sortMerge{srcs: live, cmp: cmp}
	heap.Init(s.mh)
	s.poll = poller(ctx, effEvery(s.Every))
	return nil
}

// spillBuffer sorts the in-memory buffer, writes it out as one run,
// and releases its charge.
func (s *SortIter) spillBuffer(cmp func(a, b relation.Tuple) int) error {
	sort.Slice(s.rows, func(i, j int) bool { return cmp(s.rows[i], s.rows[j]) < 0 })
	run, err := s.Spill.NewRun()
	if err != nil {
		return err
	}
	s.runs = append(s.runs, run)
	for _, t := range s.rows {
		if err := run.Append(t); err != nil {
			return err
		}
	}
	s.Spill.Release(s.charged)
	s.charged = 0
	s.rows = s.rows[:0]
	return nil
}

// mergeNext pulls the next tuple off the k-way merge.
func (s *SortIter) mergeNext() (relation.Tuple, bool, error) {
	if s.mh.Len() == 0 {
		return nil, false, nil
	}
	if err := s.poll(); err != nil {
		return nil, false, err
	}
	src := s.mh.srcs[0]
	t := src.head
	if src.run != nil {
		t = s.slab.Concat(t, nil) // the head is the run's scratch, read over by advance
	}
	nt, ok, err := src.advance(s.strs)
	if err != nil {
		return nil, false, err
	}
	if ok {
		src.head = nt
		heap.Fix(s.mh, 0)
	} else {
		heap.Pop(s.mh)
		if src.run != nil {
			src.run.Close()
		}
	}
	return t, true, nil
}

// NextBatch implements BatchIterator.
func (s *SortIter) NextBatch() (*relation.Batch, error) {
	if !s.open {
		return nil, errNotOpen("SortIter")
	}
	if s.mh != nil {
		if s.borrowed {
			s.slab.Rewind()
		}
		out := s.outBatch()
		bound := s.effectiveCap()
		for out.Len() < bound {
			t, ok, err := s.mergeNext()
			if err != nil {
				return nil, err
			}
			if !ok {
				break
			}
			out.Append(t)
		}
		if out.Len() == 0 {
			return nil, nil
		}
		s.Stats.count(s.Label, int64(out.Len()))
		return out, nil
	}
	b := s.window(s.rows, &s.pos)
	if b != nil {
		s.Stats.count(s.Label, int64(b.Len()))
	}
	return b, nil
}

// Close implements BatchIterator.
func (s *SortIter) Close() error {
	s.rows, s.open = nil, false
	for _, r := range s.runs {
		r.Close() // idempotent: merged-out runs are already closed
	}
	s.runs, s.mh = nil, nil
	s.strs.Close()
	s.slab.Close()
	s.Spill.Release(s.charged)
	s.charged = 0
	s.release()
	return s.Input.Close()
}

// Schema implements BatchIterator.
func (s *SortIter) Schema() schema.Schema { return s.Input.Schema() }

func schemaErr(op string, a, b schema.Schema) error {
	return fmt.Errorf("exec: %s over incompatible schemas %v and %v", op, a, b)
}
