package exec

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"strconv"
	"sync"

	"divlaws/internal/division"
	"divlaws/internal/relation"
	"divlaws/internal/schema"
	"divlaws/internal/spill"
)

// This file holds the out-of-core machinery shared by the blocking
// operators: the external-sort merge used by SortIter and the
// recursive grace-hash partitioner used by the division and join
// operators. (A compile-owned spill.Tracker's lifetime is tied to the
// root cursor's Close; see FromBatch.)
//
// Budget model: only the operators whose live state grows with input
// size charge the tracker — SortIter's sort buffer, the two hash
// division states, the hash join's build side, and the parallel
// exchanges' materialized inputs. Since PR 10 that accounting covers
// the hash-table backing arrays too (division states fold TableBytes
// into Bytes; the grace join delta-charges its index table as it
// grows) and the emit slabs' one live chunk (charged on refill,
// released on retire — a slab that the budget refuses degrades to
// exact uncharged allocations, so output equivalence is unaffected).
// Streaming operators (selection, projection, merge division, top-k's
// O(k) heap) and the degenerate product join stay uncharged; the
// budget governs the dominant spillable state, not every transient
// allocation.

// spillFanout is the number of partitions each grace-hash split
// produces. It is a power of two so successive splits can consume
// disjoint slices of the 64-bit tuple hash.
const spillFanout = 8

// spillFanoutBits is log2(spillFanout): the hash bits consumed per
// recursion level.
const spillFanoutBits = 3

// maxSpillDepth bounds grace-hash recursion. A partition that still
// exceeds the budget after this many splits is dominated by a single
// key group (every split lands its tuples in one child), so deeper
// recursion cannot help and the query fails with a budget error.
const maxSpillDepth = 6

// effEvery resolves a ctx-poll interval, 0 meaning DefaultCheckEvery.
func effEvery(n int) int {
	if n <= 0 {
		return DefaultCheckEvery
	}
	return n
}

// spillPart selects the partition for a tuple hash at the given
// recursion depth, consuming a fresh bit slice per level so recursive
// splits genuinely redistribute.
func spillPart(h uint64, depth int) int {
	return int((h >> (spillFanoutBits * depth)) & (spillFanout - 1))
}

// forceSpillEnv reads DIVLAWS_FORCE_SPILL once: "1" selects a 64KB
// budget (small enough to force spilling in every suite), any other
// positive integer is a budget in bytes. It lets CI run the full test
// matrix down the spill paths without touching call sites.
var forceSpillEnv = sync.OnceValue(func() int64 {
	v := os.Getenv("DIVLAWS_FORCE_SPILL")
	if v == "" {
		return 0
	}
	if n, err := strconv.ParseInt(v, 10, 64); err == nil && n > 1 {
		return n
	}
	return 64 << 10
})

// sortSource is one input of the external-merge heap: either a spilled
// run on disk or the final in-memory sorted buffer.
type sortSource struct {
	run  *spill.Run
	rows []relation.Tuple
	pos  int
	head relation.Tuple
}

// advance pulls the source's next tuple. A run's is borrowed from the
// run until the next advance, which is as long as it is a merge head.
func (s *sortSource) advance(strs *spill.StringCache) (relation.Tuple, bool, error) {
	if s.run == nil {
		if s.pos >= len(s.rows) {
			return nil, false, nil
		}
		t := s.rows[s.pos]
		s.pos++
		return t, true, nil
	}
	t, err := s.run.Next(strs)
	if err == io.EOF {
		return nil, false, nil
	}
	if err != nil {
		return nil, false, err
	}
	return t, true, nil
}

// sortMerge is a k-way merge over sorted sources, a container/heap
// implementation ordered by the sort comparator. KeyedCompare's
// canonical full-tuple tie-break makes the merged order deterministic,
// so a spilled sort emits exactly the sequence the in-memory sort
// would.
type sortMerge struct {
	srcs []*sortSource
	cmp  func(a, b relation.Tuple) int
}

func (m *sortMerge) Len() int           { return len(m.srcs) }
func (m *sortMerge) Less(i, j int) bool { return m.cmp(m.srcs[i].head, m.srcs[j].head) < 0 }
func (m *sortMerge) Swap(i, j int)      { m.srcs[i], m.srcs[j] = m.srcs[j], m.srcs[i] }
func (m *sortMerge) Push(x any)         { m.srcs = append(m.srcs, x.(*sortSource)) }
func (m *sortMerge) Pop() any {
	n := len(m.srcs)
	s := m.srcs[n-1]
	m.srcs = m.srcs[:n-1]
	return s
}

// gracePart is one pending dividend partition run awaiting division.
type gracePart struct {
	run   *spill.Run
	depth int
}

// graceDivide runs hash division under a memory budget with the
// classic grace-hash degradation: the dividend is buffered in memory
// (charged) while it fits; on budget pressure it is hash-partitioned
// on the quotient attributes A into temp-file runs and each partition
// divided independently against the full divisor, recursing on
// partitions whose division state still exceeds the budget.
// Partitioning on A is lossless for both division variants because a
// quotient group's verdict depends only on its own tuples plus the
// whole (replicated) divisor.
//
// The divisor itself must fit in the budget — it is replicated into
// every partition's state, so spilling it cannot reduce the working
// set. A divisor larger than the budget fails with spill.ErrBudget.
//
// The API is push-style (addDivisor/addDividend/finish/next) so the
// exchange operator can fall back to it mid-drain.
type graceDivide struct {
	tr                      *spill.Tracker
	dividendSch, divisorSch schema.Schema
	aPos                    []int
	every                   int

	divisor    []relation.Tuple
	divCharged int64

	buf         []relation.Tuple
	bufCharged  int64
	partitioned bool
	parts       []*gracePart
	strs        *spill.StringCache // for reading the partition runs; set once partitioned

	results   []relation.Tuple
	rPos      int
	stCharged int64
	done      bool
	pollN     int
}

// newGraceDivide returns an empty grace divider for dividend ÷ divisor
// (÷* when C ≠ ∅) whose dividend partitions on the positions aPos of A.
func newGraceDivide(tr *spill.Tracker, dividend, divisor schema.Schema, aPos []int, every int) *graceDivide {
	if every <= 0 {
		every = DefaultCheckEvery
	}
	return &graceDivide{tr: tr, dividendSch: dividend, divisorSch: divisor, aPos: aPos, every: every}
}

// addDivisor retains one divisor tuple, charged against the budget.
func (g *graceDivide) addDivisor(t relation.Tuple) error {
	fp := t.Footprint()
	if err := g.tr.Charge(fp); err != nil {
		if errors.Is(err, spill.ErrBudget) {
			return fmt.Errorf("divisor does not fit in the memory budget (it is replicated into every grace partition): %w", err)
		}
		return err
	}
	g.divCharged += fp
	g.divisor = append(g.divisor, t)
	return nil
}

// addDividend buffers one dividend tuple, degrading to partition runs
// at the first budget overflow.
func (g *graceDivide) addDividend(ctx context.Context, t relation.Tuple) error {
	if g.partitioned {
		return g.writePart(t)
	}
	fp := t.Footprint()
	err := g.tr.Charge(fp)
	if err == nil {
		g.bufCharged += fp
		g.buf = append(g.buf, t)
		return nil
	}
	if !errors.Is(err, spill.ErrBudget) {
		return err
	}
	if err := g.spillBuffer(); err != nil {
		return err
	}
	return g.writePart(t)
}

// spillBuffer converts the in-memory dividend buffer into depth-0
// partition runs and releases its charge.
func (g *graceDivide) spillBuffer() error {
	parts := make([]*gracePart, spillFanout)
	for i := range parts {
		run, err := g.tr.NewRun()
		if err != nil {
			closeParts(parts)
			return err
		}
		parts[i] = &gracePart{run: run}
	}
	g.parts = parts
	g.partitioned = true
	for _, t := range g.buf {
		if err := g.writePart(t); err != nil {
			return err
		}
	}
	g.tr.Release(g.bufCharged)
	g.bufCharged = 0
	g.buf = nil
	g.strs = g.tr.NewStringCache()
	g.tr.AddPartitions(1)
	return nil
}

// writePart routes a dividend tuple to its depth-0 partition run.
// Valid only during the build phase, when g.parts holds exactly the
// fanout depth-0 partitions.
func (g *graceDivide) writePart(t relation.Tuple) error {
	return g.parts[spillPart(t.Hash64Proj(g.aPos), 0)].run.Append(t)
}

// finish seals the input. If nothing spilled it runs the division in
// memory, charging the state's growth — and degrades to partitioning
// after all if the state itself (bitmaps, counters, group tables)
// outgrows the budget even though the raw buffer fit.
func (g *graceDivide) finish(ctx context.Context) error {
	if g.partitioned {
		return nil // partitions are divided lazily in next
	}
	st, charged, err := g.feedState(ctx, func(yield func(relation.Tuple) error) error {
		for _, t := range g.buf {
			if err := yield(t); err != nil {
				return err
			}
		}
		return nil
	})
	if err == nil {
		g.results = st.Result().Tuples()
		g.stCharged = charged
		g.tr.Release(g.bufCharged)
		g.bufCharged = 0
		g.buf = nil
		g.done = true
		return nil
	}
	if !errors.Is(err, spill.ErrBudget) {
		return err
	}
	// The division state outgrew the budget even though the raw
	// buffer fit: partition from the (still complete) buffer and
	// divide per partition instead.
	return g.spillBuffer()
}

// feedState builds a fresh division state from the divisor plus the
// dividend tuples produced by src, charging the state's growth. On
// success it returns the state and its outstanding charge; on any
// error the charge has been released.
func (g *graceDivide) feedState(ctx context.Context, src func(yield func(relation.Tuple) error) error) (division.State, int64, error) {
	st, err := division.NewState(g.dividendSch, g.divisorSch)
	if err != nil {
		return nil, 0, err
	}
	for _, t := range g.divisor {
		st.AddDivisor(t)
	}
	last := st.Bytes()
	if err := g.tr.Charge(last); err != nil {
		if errors.Is(err, spill.ErrBudget) {
			return nil, 0, fmt.Errorf("division state for the divisor alone exceeds the memory budget: %w", err)
		}
		return nil, 0, err
	}
	charged := last
	n := 0
	err = src(func(t relation.Tuple) error {
		st.AddDividend(t)
		if now := st.Bytes(); now > last {
			if err := g.tr.Charge(now - last); err != nil {
				return err
			}
			charged += now - last
			last = now
		}
		if n++; n >= g.every {
			n = 0
			return ctx.Err()
		}
		return nil
	})
	if err != nil {
		g.tr.Release(charged)
		return nil, 0, err
	}
	return st, charged, nil
}

// next returns the next quotient tuple, dividing pending partitions
// lazily — at most one partition's division state is live at a time.
func (g *graceDivide) next(ctx context.Context) (relation.Tuple, bool, error) {
	for {
		if g.rPos < len(g.results) {
			t := g.results[g.rPos]
			g.rPos++
			return t, true, nil
		}
		// The served partition's results are done: drop its state
		// charge before loading the next one.
		g.tr.Release(g.stCharged)
		g.stCharged = 0
		g.results, g.rPos = nil, 0
		if g.done || len(g.parts) == 0 {
			g.done = true
			return nil, false, nil
		}
		p := g.parts[0]
		g.parts = g.parts[1:]
		if err := g.processPart(ctx, p); err != nil {
			return nil, false, err
		}
	}
}

// processPart divides one partition run against the retained divisor.
// If its state exceeds the budget the run is split one level deeper.
// Tuples are read borrowed: AddDividend does not retain them.
func (g *graceDivide) processPart(ctx context.Context, p *gracePart) error {
	if p.run.Len() == 0 {
		return p.run.Close()
	}
	if err := p.run.Rewind(); err != nil {
		p.run.Close()
		return err
	}
	st, charged, err := g.feedState(ctx, func(yield func(relation.Tuple) error) error {
		for {
			t, err := p.run.Next(g.strs)
			if err == io.EOF {
				return nil
			}
			if err != nil {
				return err
			}
			if err := yield(t); err != nil {
				return err
			}
		}
	})
	if err != nil {
		if errors.Is(err, spill.ErrBudget) {
			return g.splitPart(ctx, p)
		}
		p.run.Close()
		return err
	}
	g.results = st.Result().Tuples()
	g.rPos = 0
	g.stCharged = charged
	return p.run.Close()
}

// splitPart re-partitions a run one recursion level deeper and
// prepends the children to the worklist (depth-first keeps the
// pending-run count small).
func (g *graceDivide) splitPart(ctx context.Context, p *gracePart) error {
	children, err := splitRun(ctx, g.tr, g.strs, p.run, p.depth, g.every, func(t relation.Tuple) uint64 {
		return t.Hash64Proj(g.aPos)
	})
	p.run.Close()
	if err != nil {
		return err
	}
	g.parts = append(children, g.parts...)
	g.tr.AddPartitions(1)
	return nil
}

// splitRun redistributes a partition run into spillFanout children at
// depth+1 using a fresh slice of the given hash. It fails when the
// recursion depth is exhausted — at that point the partition is
// dominated by a single key group and splitting cannot shrink it.
// Tuples are read borrowed: Append encodes them before the next read.
func splitRun(ctx context.Context, tr *spill.Tracker, strs *spill.StringCache, run *spill.Run, depth, every int, hash func(relation.Tuple) uint64) ([]*gracePart, error) {
	next := depth + 1
	if next > maxSpillDepth {
		return nil, fmt.Errorf("exec: partition still exceeds the memory budget after %d recursive splits (one key group is larger than the budget): %w", maxSpillDepth, spill.ErrBudget)
	}
	children := make([]*gracePart, spillFanout)
	for i := range children {
		r, err := tr.NewRun()
		if err != nil {
			closeParts(children)
			return nil, err
		}
		children[i] = &gracePart{run: r, depth: next}
	}
	if err := run.Rewind(); err != nil {
		closeParts(children)
		return nil, err
	}
	n := 0
	for {
		t, err := run.Next(strs)
		if err == io.EOF {
			return children, nil
		}
		if err != nil {
			closeParts(children)
			return nil, err
		}
		if err := children[spillPart(hash(t), next)].run.Append(t); err != nil {
			closeParts(children)
			return nil, err
		}
		if n++; n >= every {
			n = 0
			if err := ctx.Err(); err != nil {
				closeParts(children)
				return nil, err
			}
		}
	}
}

func closeParts(parts []*gracePart) {
	for _, p := range parts {
		if p != nil {
			p.run.Close()
		}
	}
}

// close releases every outstanding charge and temp run. Idempotent.
func (g *graceDivide) close() {
	g.tr.Release(g.divCharged + g.bufCharged + g.stCharged)
	g.divCharged, g.bufCharged, g.stCharged = 0, 0, 0
	g.divisor, g.buf, g.results = nil, nil, nil
	g.strs.Close()
	closeParts(g.parts)
	g.parts = nil
	g.done = true
}

// drained reports whether every partition has been divided and served.
func (g *graceDivide) drained() bool {
	return g.done && g.rPos >= len(g.results)
}

// graceBatch fills a pooled output batch from a graceDivide, the
// shared NextBatch body of the budgeted division operators.
func graceBatch(g *graceDivide, ctx context.Context, wb *windowBatcher, stats *Stats, label string) (*relation.Batch, error) {
	out := wb.outBatch()
	bound := wb.effectiveCap()
	for out.Len() < bound {
		t, ok, err := g.next(ctx)
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
	stats.count(label, int64(out.Len()))
	return out, nil
}

// topKFromGrace drains a grace divider and keeps the k smallest
// quotient tuples under the keyed order — the sequential fallback of a
// budget-degraded top-k exchange, O(k) live beyond the divider itself.
func topKFromGrace(ctx context.Context, g *graceDivide, pos []int, desc []bool, k int64) ([]relation.Tuple, error) {
	h := relation.NewTopKHeap(int(k), relation.KeyedCompare(pos, desc))
	for {
		t, ok, err := g.next(ctx)
		if err != nil {
			return nil, err
		}
		if !ok {
			return h.Sorted(), nil
		}
		h.Add(t)
	}
}

// graceJoinPart pairs a build-side and probe-side partition run.
type graceJoinPart struct {
	build, probe *spill.Run
	depth        int
}

// graceJoin is HashJoinIter's budgeted engine: the build side is
// charged while the index fits; on overflow both sides are
// hash-partitioned on the join key into temp runs and each partition
// pair joined independently, recursing on build partitions whose
// index still exceeds the budget. Build-partition runs store the
// reordered tuple key ◦ extra so a partition's index can be rebuilt
// without the original schema's positions.
type graceJoin struct {
	tr      *spill.Tracker
	leftPos []int // probe-side key positions (original left schema)
	nk      int   // key arity
	every   int
	charged int64
	// tableBytes is the index hash-table footprint already folded into
	// charged; chargeTableDelta tops it up as the table grows.
	tableBytes int64
	// slab carves build and emit tuples; its live chunk is charged
	// against tr.
	slab relation.Slab

	// in-memory build (pre-overflow)
	keyIx relation.TupleIndex
	rows  [][]relation.Tuple

	partitioned bool
	parts       []*graceJoinPart
	strs        *spill.StringCache // for reading the partition runs; set once partitioned

	// streaming probe state
	probe   *spill.Run
	cur     relation.Tuple
	matches []relation.Tuple
	mIdx    int
	pollN   int
}

// graceJoinOverhead approximates the per-build-tuple index bookkeeping
// beyond the tuple itself: the keys-slice slot and the rows-slice
// entry. The hash-table backing arrays are charged exactly through
// chargeTableDelta, so they are deliberately not estimated here.
const graceJoinOverhead = 24

// addBuild charges and indexes one build-side (right) tuple,
// degrading to partition runs at the first overflow. keyPos/extraPos
// are the key and payload positions in the right schema.
func (g *graceJoin) addBuild(t relation.Tuple, keyPos, extraPos []int) error {
	if g.partitioned {
		return g.writeBuild(g.stored(t, keyPos, extraPos))
	}
	fp := t.Footprint() + graceJoinOverhead
	err := g.tr.Charge(fp)
	if err == nil {
		g.charged += fp
		g.index(g.stored(t, keyPos, extraPos))
		if terr := g.chargeTableDelta(); terr != nil {
			if !errors.Is(terr, spill.ErrBudget) {
				return terr
			}
			// The tuple is already indexed, and flushBuild writes every
			// indexed tuple to the partition runs — nothing is lost.
			return g.flushBuild()
		}
		return nil
	}
	if !errors.Is(err, spill.ErrBudget) {
		return err
	}
	if err := g.flushBuild(); err != nil {
		return err
	}
	return g.writeBuild(g.stored(t, keyPos, extraPos))
}

// stored builds the reordered tuple key ◦ extra in one slab
// allocation (Project + ConcatProj fused).
func (g *graceJoin) stored(t relation.Tuple, keyPos, extraPos []int) relation.Tuple {
	out := g.slab.Alloc(len(keyPos) + len(extraPos))
	for i, p := range keyPos {
		out[i] = t[p]
	}
	for i, p := range extraPos {
		out[len(keyPos)+i] = t[p]
	}
	return out
}

// chargeTableDelta charges the growth of the index's hash-table
// backing arrays since the last check. The delta joins g.charged, so
// every site that releases the build charge drops it automatically
// (tableBytes is re-zeroed there; a Reset table keeps its capacity
// and is re-charged in full on reuse).
func (g *graceJoin) chargeTableDelta() error {
	d := g.keyIx.TableBytes() - g.tableBytes
	if d <= 0 {
		return nil
	}
	if err := g.tr.Charge(d); err != nil {
		return err
	}
	g.charged += d
	g.tableBytes += d
	return nil
}

// index inserts one reordered build tuple (key ◦ extra) into the live
// in-memory index.
func (g *graceJoin) index(stored relation.Tuple) {
	keyPos := identityPos(g.nk)
	id, created := g.keyIx.IDProj(stored, keyPos)
	if created {
		g.rows = append(g.rows, nil)
	}
	g.rows[id] = append(g.rows[id], stored[g.nk:])
}

// identityPos returns [0, 1, ..., n-1].
func identityPos(n int) []int {
	pos := make([]int, n)
	for i := range pos {
		pos[i] = i
	}
	return pos
}

// flushBuild spills the in-memory index into depth-0 partition pairs
// and releases its charge.
func (g *graceJoin) flushBuild() error {
	parts := make([]*graceJoinPart, spillFanout)
	for i := range parts {
		b, err := g.tr.NewRun()
		if err != nil {
			g.closePartRuns(parts)
			return err
		}
		p, err := g.tr.NewRun()
		if err != nil {
			b.Close()
			g.closePartRuns(parts)
			return err
		}
		parts[i] = &graceJoinPart{build: b, probe: p}
	}
	g.parts = parts
	g.partitioned = true
	for id, key := range g.keyIx.Keys() {
		for _, extra := range g.rows[id] {
			if err := g.writeBuild(g.slab.Concat(key, extra)); err != nil {
				return err
			}
		}
	}
	g.slab.Close()
	g.tr.Release(g.charged)
	g.charged, g.tableBytes = 0, 0
	g.keyIx = relation.TupleIndex{}
	g.rows = nil
	g.strs = g.tr.NewStringCache()
	g.tr.AddPartitions(1)
	return nil
}

// writeBuild routes a reordered build tuple to its depth-0 partition.
// The key occupies positions 0..nk-1, so its projection hash equals
// the probe side's Hash64Proj(leftPos).
func (g *graceJoin) writeBuild(stored relation.Tuple) error {
	return g.parts[spillPart(stored.Hash64Proj(identityPos(g.nk)), 0)].build.Append(stored)
}

// addProbe routes a probe-side (left) tuple to its depth-0 partition.
// Only called once the build side has partitioned.
func (g *graceJoin) addProbe(t relation.Tuple) error {
	return g.parts[spillPart(t.Hash64Proj(g.leftPos), 0)].probe.Append(t)
}

// next returns the next joined tuple: probe-side cursor over the
// current partition, loading and recursing partition pairs lazily.
func (g *graceJoin) next(ctx context.Context) (relation.Tuple, bool, error) {
	for {
		if g.mIdx < len(g.matches) {
			t := g.slab.Concat(g.cur, g.matches[g.mIdx])
			g.mIdx++
			return t, true, nil
		}
		g.matches = nil
		if g.probe != nil {
			if g.pollN++; g.pollN >= g.every {
				g.pollN = 0
				if err := ctx.Err(); err != nil {
					return nil, false, err
				}
			}
			// Borrowed: cur is only ever concatenated, and only until
			// the next probe read.
			t, err := g.probe.Next(g.strs)
			if err == io.EOF {
				g.probe.Close()
				g.probe = nil
				g.slab.Close()
				g.tr.Release(g.charged)
				g.charged, g.tableBytes = 0, 0
				g.keyIx = relation.TupleIndex{}
				g.rows = nil
				continue
			}
			if err != nil {
				return nil, false, err
			}
			if id := g.keyIx.LookupProj(t, g.leftPos); id >= 0 {
				g.cur = t
				g.matches = g.rows[id]
				g.mIdx = 0
			}
			continue
		}
		if len(g.parts) == 0 {
			g.slab.Close()
			return nil, false, nil
		}
		p := g.parts[0]
		g.parts = g.parts[1:]
		if err := g.openPart(ctx, p); err != nil {
			return nil, false, err
		}
	}
}

// openPart rebuilds the index from one build run and arms the probe
// run, splitting the pair one level deeper if the index exceeds the
// budget.
func (g *graceJoin) openPart(ctx context.Context, p *graceJoinPart) error {
	if p.build.Len() == 0 || p.probe.Len() == 0 {
		p.build.Close()
		p.probe.Close()
		return nil
	}
	if err := p.build.Rewind(); err != nil {
		p.build.Close()
		p.probe.Close()
		return err
	}
	n := 0
	for {
		stored, err := p.build.Next(g.strs)
		if err == io.EOF {
			break
		}
		if err != nil {
			g.dropPart(p)
			return err
		}
		stored = g.slab.Concat(stored, nil) // the index retains it
		fp := stored.Footprint() + graceJoinOverhead
		if err := g.tr.Charge(fp); err != nil {
			g.slab.Close()
			g.tr.Release(g.charged)
			g.charged, g.tableBytes = 0, 0
			g.keyIx = relation.TupleIndex{}
			g.rows = nil
			if errors.Is(err, spill.ErrBudget) {
				return g.splitPair(ctx, p)
			}
			g.dropPart(p)
			return err
		}
		g.charged += fp
		g.index(stored)
		if err := g.chargeTableDelta(); err != nil {
			g.slab.Close()
			g.tr.Release(g.charged)
			g.charged, g.tableBytes = 0, 0
			g.keyIx = relation.TupleIndex{}
			g.rows = nil
			if errors.Is(err, spill.ErrBudget) {
				return g.splitPair(ctx, p)
			}
			g.dropPart(p)
			return err
		}
		if n++; n >= g.every {
			n = 0
			if err := ctx.Err(); err != nil {
				g.dropPart(p)
				return err
			}
		}
	}
	p.build.Close()
	if err := p.probe.Rewind(); err != nil {
		p.probe.Close()
		return err
	}
	g.probe = p.probe
	return nil
}

// splitPair re-partitions both runs of a pair one level deeper and
// prepends the child pairs to the worklist.
func (g *graceJoin) splitPair(ctx context.Context, p *graceJoinPart) error {
	keyPos := identityPos(g.nk)
	builds, err := splitRun(ctx, g.tr, g.strs, p.build, p.depth, g.every, func(t relation.Tuple) uint64 {
		return t.Hash64Proj(keyPos)
	})
	p.build.Close()
	if err != nil {
		p.probe.Close()
		return err
	}
	probes, err := splitRun(ctx, g.tr, g.strs, p.probe, p.depth, g.every, func(t relation.Tuple) uint64 {
		return t.Hash64Proj(g.leftPos)
	})
	p.probe.Close()
	if err != nil {
		closeParts(builds)
		return err
	}
	children := make([]*graceJoinPart, spillFanout)
	for i := range children {
		children[i] = &graceJoinPart{build: builds[i].run, probe: probes[i].run, depth: p.depth + 1}
	}
	g.parts = append(children, g.parts...)
	g.tr.AddPartitions(1)
	return nil
}

func (g *graceJoin) dropPart(p *graceJoinPart) {
	g.slab.Close()
	g.tr.Release(g.charged)
	g.charged, g.tableBytes = 0, 0
	g.keyIx = relation.TupleIndex{}
	g.rows = nil
	p.build.Close()
	p.probe.Close()
}

func (g *graceJoin) closePartRuns(parts []*graceJoinPart) {
	for _, p := range parts {
		if p != nil {
			p.build.Close()
			p.probe.Close()
		}
	}
}

// close releases the outstanding charge and every temp run.
func (g *graceJoin) close() {
	g.slab.Close()
	g.tr.Release(g.charged)
	g.charged, g.tableBytes = 0, 0
	g.keyIx = relation.TupleIndex{}
	g.rows, g.matches = nil, nil
	g.strs.Close()
	if g.probe != nil {
		g.probe.Close()
		g.probe = nil
	}
	g.closePartRuns(g.parts)
	g.parts = nil
}
