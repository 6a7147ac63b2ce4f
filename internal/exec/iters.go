package exec

import (
	"container/heap"
	"context"
	"errors"
	"fmt"
	"sort"

	"divlaws/internal/algebra"
	"divlaws/internal/relation"
	"divlaws/internal/schema"
	"divlaws/internal/spill"
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

// HashJoinIter is a natural hash join: build on the right input's
// common-attribute key, probe with the left: NextBatch streams whole
// probe batches from its probe source, probing each row at its cursor
// advance and emitting concatenated matches into a pooled output
// batch.
//
// The output needs no dedup: operator outputs are sets, so left
// tuples are distinct and each build key's extras are distinct
// (key+extra is the whole right tuple), making every concatenation
// distinct — the same invariant ProductIter's emit path trusts.
//
// Under a budget the build is charged row by row. At the first refusal
// the index and the rest of the build side go to spillFanout runs
// partitioned on the key, and the probe side to the matching runs
// (grace hash). Each pair of runs is then one smaller instance of the
// same join: the same build over a reader of its build run, then the
// same probe loop over a reader of its probe run. A pair whose build
// overflows again is split one level deeper on fresh hash bits, up to
// maxSpillDepth.
type HashJoinIter struct {
	Label       string
	Left, Right BatchIterator
	Stats       *Stats
	// Every is the cooperative ctx-poll interval of the build drain and
	// the spilled runs' reads, in tuples; 0 means DefaultCheckEvery.
	Every int
	// Spill, when non-nil, bounds the build side: on budget pressure
	// both sides grace-hash partition to temp files and the partition
	// pairs are joined independently. The degenerate product case is
	// exempt (it holds only one right-side materialization the budget
	// cannot shrink by partitioning).
	Spill *spill.Tracker
	windowBatcher

	out                         schema.Schema
	leftPos, rightPos, extraPos []int
	isProduct                   bool
	prod                        *ProductIter
	opened                      bool

	// The build: each key indexed once, its rows' extra attributes
	// carved from store. charged is the build's budget charge, which
	// includes the tableBytes of the index table charged so far.
	keyIx      relation.TupleIndex
	rows       [][]relation.Tuple
	store      relation.Slab
	charged    int64
	tableBytes int64

	// The probe loop. src is Left, a spilled probe run's reader, or nil
	// between pairs.
	src     BatchIterator
	probe   []relation.Tuple
	pPos    int
	cur     relation.Tuple
	matches []relation.Tuple
	mIdx    int
	slab    relation.Slab // emit allocator; output tuples are sliced from it
	// borrowed: the consumer drops each batch's tuples before the next
	// NextBatch, so the emit slab is rewound per batch, and the
	// degenerate product inherits it (set by compile).
	borrowed bool

	// The spilled pairs still to join, and what reading them shares.
	pairs []joinPair
	strs  *spill.StringCache
	poll  func() error
	ctx   context.Context
}

// joinPair is one spilled partition of a join: a build run and the
// probe run holding the same keys, at a split depth.
type joinPair struct {
	build, probe *spill.Run
	depth        int
}

// Open implements BatchIterator.
func (j *HashJoinIter) Open(ctx context.Context) error {
	common := j.Left.Schema().Intersect(j.Right.Schema())
	if common.Len() == 0 {
		// Degenerate to a product, as the logical definition does.
		j.isProduct = true
		j.prod = &ProductIter{Label: j.Label, Left: j.Left, Right: j.Right, Stats: j.Stats, Every: j.Every,
			windowBatcher: windowBatcher{BatchSize: j.BatchSize}, borrowed: j.borrowed}
		j.out = j.Left.Schema().Concat(j.Right.Schema())
		return j.prod.Open(ctx)
	}
	j.isProduct = false
	j.leftPos = j.Left.Schema().Positions(common.Attrs())
	j.rightPos = j.Right.Schema().Positions(common.Attrs())
	extra := j.Right.Schema().Minus(common)
	j.extraPos = j.Right.Schema().Positions(extra.Attrs())
	j.out = j.Left.Schema().Union(extra)

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

// build drains src into the index: each row's key is indexed once and
// its extra attributes are copied into the store slab, so src may lend
// its rows. Under a budget each row is charged before it is indexed,
// and the index table's growth with the next charge. A refusal is
// returned, unless spillRest is set: then the index and the rest of src
// go to depth-0 build runs (see spillIndex).
func (j *HashJoinIter) build(ctx context.Context, src BatchIterator, spillRest bool) error {
	spilled := false
	err := drainEvery(ctx, src, j.Every, func(t relation.Tuple) error {
		if !spilled {
			err := j.insert(t)
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
	if err = j.charge(0); spillRest && errors.Is(err, spill.ErrBudget) {
		return j.spillIndex()
	}
	return err
}

// insert indexes one build row, charging it first under a budget; a
// refused row is not indexed.
func (j *HashJoinIter) insert(t relation.Tuple) error {
	if j.Spill != nil {
		if err := j.charge(t.Footprint()); err != nil {
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

// charge charges n bytes plus the index table's growth since the last
// charge; a refusal charges nothing.
func (j *HashJoinIter) charge(n int64) error {
	tb := j.keyIx.TableBytes()
	n += tb - j.tableBytes
	if err := j.Spill.Charge(n); err != nil {
		return err
	}
	j.charged += n
	j.tableBytes = tb
	return nil
}

// dropIndex empties the index and gives its charge back.
func (j *HashJoinIter) dropIndex() {
	j.Spill.Release(j.charged)
	j.charged, j.tableBytes = 0, 0
	j.keyIx = relation.TupleIndex{}
	j.rows = nil
	j.store.Close()
}

// spillIndex moves the index to fresh depth-0 build runs, makes the
// matching probe runs and releases the index's charge. A build run
// holds right-schema tuples, rebuilt from key and extras, so a pair's
// build reads it as it reads the right input.
func (j *HashJoinIter) spillIndex() error {
	row := make(relation.Tuple, j.Right.Schema().Len())
	builds, err := fanOut(j.Spill, func(runs []*spill.Run) error {
		for id, key := range j.keyIx.Keys() {
			run := runs[spillPart(key.Hash64(), 0)]
			for i, p := range j.rightPos {
				row[p] = key[i]
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

// nextPair loads the next spilled pair whose sides both hold rows: its
// build run goes through build, and its probe run becomes the probe
// source. A pair whose build overflows is split one level deeper and
// its children go first. It reports false once no pair is left; on an
// error the failed pair stays queued for Close.
func (j *HashJoinIter) nextPair() (bool, error) {
	for len(j.pairs) > 0 {
		p := j.pairs[0]
		if p.build.Len() == 0 || p.probe.Len() == 0 {
			j.pairs = j.pairs[1:]
			p.build.Close()
			p.probe.Close()
			continue
		}
		build := j.reader(p.build, j.Right.Schema())
		err := build.Open(j.ctx)
		if err == nil {
			err = j.build(j.ctx, build, false)
		}
		if err == nil {
			err = build.Close()
		}
		if err == nil {
			j.pairs = j.pairs[1:]
			j.src = j.reader(p.probe, j.Left.Schema())
			return true, j.src.Open(j.ctx)
		}
		j.dropIndex()
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
		children[i] = joinPair{build: builds[i], probe: probes[i], depth: p.depth + 1}
	}
	j.Spill.AddPartitions(1)
	return children, nil
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

// SetRowBudget implements rowBudgeter; the degenerate product carries
// its own budget.
func (j *HashJoinIter) SetRowBudget(n int64) {
	j.windowBatcher.SetRowBudget(n)
	if j.isProduct && j.prod != nil {
		j.prod.SetRowBudget(n)
	}
}

// NextBatch implements BatchIterator: pending matches of the current
// probe tuple flush first, then the next probe batch streams through
// the cursor, each row probed and its matches emitted until the
// output batch fills. When a probe source ends, the next spilled pair,
// if any, takes over. An armed row budget bounds the output batch and
// the probe pulls.
func (j *HashJoinIter) NextBatch() (*relation.Batch, error) {
	if j.isProduct {
		return j.prod.NextBatch()
	}
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
			j.probe, j.pPos = ts, 0
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
	if j.isProduct {
		return j.prod.Close()
	}
	j.endProbe()
	for _, p := range j.pairs {
		p.build.Close()
		p.probe.Close()
	}
	j.pairs = nil
	j.strs.Close()
	j.probe, j.pPos = nil, 0
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
	if j.out.Len() == 0 {
		common := j.Left.Schema().Intersect(j.Right.Schema())
		j.out = j.Left.Schema().Union(j.Right.Schema().Minus(common))
	}
	return j.out
}

// SemiJoinIter streams left tuples that have a partner in the right
// input on the common attributes. Keep=false turns it into the
// anti-semi-join.
//
// Over one attribute set it is also the intersection and the
// difference: r ∩ s = r ⋉ s and r − s = r ▷ s. The left input is a set
// (every operator's output is), so both results, being subsets of it,
// need no output dedup.
type SemiJoinIter struct {
	Label       string
	Left, Right BatchIterator
	Keep        bool
	// SetOp, when set, names the set operator the semi-join runs; Open
	// then rejects inputs over different attribute sets.
	SetOp string
	Stats *Stats
	// Every is the cooperative ctx-poll interval of the build drain, in
	// tuples; 0 means DefaultCheckEvery.
	Every int
	windowBatcher
	keys       *relation.TupleIndex
	leftPos    []int
	degenerate bool // no common attributes
	rightAny   bool
	ids        []int
}

// Open implements BatchIterator.
func (s *SemiJoinIter) Open(ctx context.Context) error {
	if s.SetOp != "" && !s.Left.Schema().EqualSet(s.Right.Schema()) {
		return schemaErr(s.SetOp, s.Left.Schema(), s.Right.Schema())
	}
	common := s.Left.Schema().Intersect(s.Right.Schema())
	if err := s.Left.Open(ctx); err != nil {
		return err
	}
	if err := s.Right.Open(ctx); err != nil {
		return err
	}
	s.keys = new(relation.TupleIndex)
	if common.Len() == 0 {
		s.degenerate = true
		ts, err := pull(s.Right, 1)
		if err != nil {
			return err
		}
		s.rightAny = ts != nil
		return nil
	}
	s.degenerate = false
	s.leftPos = s.Left.Schema().Positions(common.Attrs())
	rightPos := s.Right.Schema().Positions(common.Attrs())
	return drainEvery(ctx, s.Right, s.Every, func(t relation.Tuple) error {
		s.keys.IDProj(t, rightPos)
		return nil
	})
}

// NextBatch implements BatchIterator: a whole probe batch is hashed
// against the build keys in one pass, survivors emitted into a pooled
// output batch. The armed row budget flows to the probe side (a
// semi-join only shrinks batches).
func (s *SemiJoinIter) NextBatch() (*relation.Batch, error) {
	if s.keys == nil {
		return nil, errNotOpen("SemiJoinIter")
	}
	for {
		ts, err := pull(s.Left, s.budget)
		if err != nil || ts == nil {
			return nil, err
		}
		out := s.outBatch()
		if s.degenerate {
			if s.rightAny == s.Keep {
				for _, t := range ts {
					out.Append(t)
				}
			}
		} else {
			s.ids = s.keys.LookupProjBatch(ts, s.leftPos, s.ids[:0])
			for i, t := range ts {
				if (s.ids[i] >= 0) == s.Keep {
					out.Append(t)
				}
			}
		}
		if n := out.Len(); n > 0 {
			s.Stats.count(s.Label, int64(n))
			return out, nil
		}
	}
}

// Close implements BatchIterator.
func (s *SemiJoinIter) Close() error {
	s.keys, s.ids = nil, nil
	s.release()
	err1 := s.Left.Close()
	err2 := s.Right.Close()
	if err1 != nil {
		return err1
	}
	return err2
}

// Schema implements BatchIterator.
func (s *SemiJoinIter) Schema() schema.Schema { return s.Left.Schema() }

// GroupIter is the blocking grouping operator; it materializes its
// input and delegates to algebra.Group.
type GroupIter struct {
	Label string
	Input BatchIterator
	By    []string
	Aggs  []algebra.AggSpec
	Stats *Stats
	// Every is the cooperative ctx-poll interval of the input drain, in
	// tuples; 0 means DefaultCheckEvery.
	Every int
	windowBatcher
	rows  []relation.Tuple
	pos   int
	outSc schema.Schema
}

// Open implements BatchIterator.
func (g *GroupIter) Open(ctx context.Context) error {
	if err := g.Input.Open(ctx); err != nil {
		return err
	}
	in := relation.New(g.Input.Schema())
	if err := drainEvery(ctx, g.Input, g.Every, func(t relation.Tuple) error {
		in.InsertOwned(t)
		return nil
	}); err != nil {
		return err
	}
	out := algebra.Group(in, g.By, g.Aggs)
	g.rows = out.Tuples()
	g.outSc = out.Schema()
	g.pos = 0
	return nil
}

// NextBatch implements BatchIterator.
func (g *GroupIter) NextBatch() (*relation.Batch, error) {
	if g.outSc.Len() == 0 && g.rows == nil {
		return nil, errNotOpen("GroupIter")
	}
	b := g.window(g.rows, &g.pos)
	if b != nil {
		g.Stats.count(g.Label, int64(b.Len()))
	}
	return b, nil
}

// Close implements BatchIterator.
func (g *GroupIter) Close() error { g.rows = nil; g.release(); return g.Input.Close() }

// Schema implements BatchIterator.
func (g *GroupIter) Schema() schema.Schema {
	if g.outSc.Len() > 0 {
		return g.outSc
	}
	attrs := append([]string(nil), g.By...)
	for _, a := range g.Aggs {
		attrs = append(attrs, a.As)
	}
	return schema.New(attrs...)
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
// sorted temp-file run whenever it would exceed the budget, and the
// runs are k-way merged on NextBatch. KeyedCompare's canonical tie-break
// makes the merged order identical to the in-memory sort's.
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
	// sorted runs spill to temp files and are merged on emit.
	Spill *spill.Tracker
	windowBatcher
	rows []relation.Tuple
	pos  int
	open bool

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
		err := s.Spill.Charge(fp)
		if err == nil {
			s.charged += fp
			s.rows = append(s.rows, t)
			return nil
		}
		if !errors.Is(err, spill.ErrBudget) {
			return err
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
	// The last buffer may leave the budget nearly full: keep chunks small.
	s.slab = relation.Slab{Charge: s.Spill.Charge, Release: s.Spill.Release, MaxValues: 128}
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
		t = s.slab.Concat(t, nil) // the head is the run's scratch; the consumer keeps t
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
