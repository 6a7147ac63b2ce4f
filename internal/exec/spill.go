package exec

import (
	"context"
	"fmt"
	"io"
	"os"
	"strconv"
	"sync"

	"divlaws/internal/relation"
	"divlaws/internal/schema"
	"divlaws/internal/spill"
)

// This file holds the out-of-core machinery shared by the blocking
// operators: the external-sort merge used by SortIter, and the grace-hash
// fan-out, recursive split and run reader used by the division and
// join operators. (A compile-owned spill.Tracker's lifetime is tied to
// the root cursor's Close; see FromBatch.)
//
// Budget model: only the operators whose live state grows with input
// size charge the tracker — SortIter's sort buffer, DivideIter's
// buffered inputs and every partition's division state (each worker's
// included), and the build of the hash join family — ⋈, and in its
// semi modes ⋉, ▷, ∩, − and every decorrelated [NOT] EXISTS — whether
// it reads the right input or a spilled pair's build run: the join
// charges each row before it is indexed, a semi mode each new key, and
// the index table's growth rides on the next charge. The emit slabs
// charge their one live chunk (on refill, released on retire — a slab
// that the budget refuses degrades to exact uncharged allocations, so
// output equivalence is unaffected); the join family has one, whether
// it emits from memory or from spilled pairs. Streaming operators
// (selection, projection, merge division, top-k's O(k) heap, the run
// readers' per-batch copies) and the degenerate joins (the product, a
// semi mode's one empty key) stay uncharged; the budget governs the
// dominant spillable state, not every transient allocation.

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

// fanOut creates spillFanout fresh runs and fills them; on an error,
// from either, it closes every run it created. It is the one place a
// grace-hash split makes its runs: the division's first overflow, the
// join's, and every deeper split of a partition.
func fanOut(tr *spill.Tracker, fill func([]*spill.Run) error) ([]*spill.Run, error) {
	runs := make([]*spill.Run, spillFanout)
	for i := range runs {
		r, err := tr.NewRun()
		if err != nil {
			closeRuns(runs)
			return nil, err
		}
		runs[i] = r
	}
	if err := fill(runs); err != nil {
		closeRuns(runs)
		return nil, err
	}
	return runs, nil
}

// splitRun redistributes a partition run into spillFanout children at
// depth+1 using a fresh slice of the given hash. It fails when the
// recursion depth is exhausted — at that point the partition is
// dominated by a single key group and splitting cannot shrink it.
// Tuples are read borrowed: Append encodes them before the next read.
func splitRun(ctx context.Context, tr *spill.Tracker, strs *spill.StringCache, run *spill.Run, depth, every int, hash func(relation.Tuple) uint64) ([]*spill.Run, error) {
	next := depth + 1
	if next > maxSpillDepth {
		return nil, fmt.Errorf("exec: partition still exceeds the memory budget after %d recursive splits (one key group is larger than the budget): %w", maxSpillDepth, spill.ErrBudget)
	}
	if err := run.Rewind(); err != nil {
		return nil, err
	}
	poll := poller(ctx, effEvery(every))
	return fanOut(tr, func(children []*spill.Run) error {
		for {
			t, err := run.Next(strs)
			if err == io.EOF {
				return nil
			}
			if err == nil {
				err = children[spillPart(hash(t), next)].Append(t)
			}
			if err == nil {
				err = poll()
			}
			if err != nil {
				return err
			}
		}
	})
}

func closeRuns(runs []*spill.Run) {
	for _, r := range runs {
		if r != nil {
			r.Close()
		}
	}
}

// runReader is a BatchIterator over a spilled run, the source a
// spilled hash join hands its own build and probe loop. Its batches
// are borrowed: each tuple is copied into a slab the next NextBatch
// rewinds, so batch and tuples are valid until then. It polls through
// the owner's poll once per tuple and decodes strings through the
// owner's cache; Open rewinds the run and Close closes it.
type runReader struct {
	run  *spill.Run
	sch  schema.Schema
	strs *spill.StringCache
	poll func() error
	windowBatcher
	slab relation.Slab
}

// Open implements BatchIterator.
func (r *runReader) Open(context.Context) error { return r.run.Rewind() }

// NextBatch implements BatchIterator.
func (r *runReader) NextBatch() (*relation.Batch, error) {
	r.slab.Rewind()
	out := r.outBatch()
	for bound := r.effectiveCap(); out.Len() < bound; {
		t, err := r.run.Next(r.strs)
		if err == io.EOF {
			break
		}
		if err == nil {
			err = r.poll()
		}
		if err != nil {
			return nil, err
		}
		out.Append(r.slab.Concat(t, nil))
	}
	if out.Len() == 0 {
		return nil, nil
	}
	return out, nil
}

// Close implements BatchIterator.
func (r *runReader) Close() error {
	r.slab.Close()
	r.release()
	return r.run.Close()
}

// Schema implements BatchIterator.
func (r *runReader) Schema() schema.Schema { return r.sch }
