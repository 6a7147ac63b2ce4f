package exec

import (
	"context"

	"divlaws/internal/plan"
	"divlaws/internal/relation"
	"divlaws/internal/schema"
)

// resolveSortKeys lowers a plan node's resolved sort keys to column
// positions and per-key directions against the input schema, the
// physical form the keyed tuple comparator takes.
func resolveSortKeys(sch schema.Schema, keys []plan.SortKey) (pos []int, desc []bool) {
	pos = make([]int, len(keys))
	desc = make([]bool, len(keys))
	for i, k := range keys {
		pos[i] = sch.MustIndex(k.Attr)
		desc[i] = k.Desc
	}
	return pos, desc
}

// TopKIter emits the K smallest tuples of its input in key order,
// holding O(K) tuples live: Open drains the child into a bounded
// max-heap (relation.TopKHeap) and — like LimitBatch at the limit
// boundary — closes the child the moment it is exhausted, so
// blocking and streaming subtrees release their resources before the
// first result tuple is served. K <= 0 never opens the child at all.
type TopKIter struct {
	Label string
	Input BatchIterator
	// ByPos and Desc are the sort-key positions and directions, as in
	// SortIter.
	ByPos []int
	Desc  []bool
	K     int64
	Stats *Stats
	// Every is the cooperative ctx-poll interval of the input drain, in
	// tuples; 0 means DefaultCheckEvery.
	Every int
	windowBatcher

	rows   []relation.Tuple
	pos    int
	opened bool
}

// Open implements BatchIterator.
func (t *TopKIter) Open(ctx context.Context) error {
	t.rows, t.pos = nil, 0
	t.opened = true
	if t.K <= 0 {
		return nil
	}
	if err := t.Input.Open(ctx); err != nil {
		return err
	}
	heap := relation.NewTopKHeap(int(t.K), relation.KeyedCompare(t.ByPos, t.Desc))
	if err := drainEvery(ctx, t.Input, t.Every, func(tup relation.Tuple) error { heap.Add(tup); return nil }); err != nil {
		return err
	}
	// Child exhausted: release the subtree now, before any tuple is
	// emitted. Close is idempotent, so TopKIter.Close stays harmless.
	if err := t.Input.Close(); err != nil {
		return err
	}
	t.rows = heap.Sorted()
	return nil
}

// NextBatch implements BatchIterator.
func (t *TopKIter) NextBatch() (*relation.Batch, error) {
	if !t.opened {
		return nil, errNotOpen("TopKIter")
	}
	b := t.window(t.rows, &t.pos)
	if b != nil {
		t.Stats.count(t.Label, int64(b.Len()))
	}
	return b, nil
}

// Close implements BatchIterator.
func (t *TopKIter) Close() error {
	t.rows, t.opened = nil, false
	t.release()
	return t.Input.Close()
}

// Schema implements BatchIterator.
func (t *TopKIter) Schema() schema.Schema { return t.Input.Schema() }

// mergeRuns k-way merges per-partition runs — each already in
// ascending cmp order — into the first k tuples of the combined
// order. Runs hold at most k tuples each, so the merge touches
// O(k·runs) tuples; with the handful of runs a worker fan-out
// produces, a linear scan over the run heads is the whole merge.
func mergeRuns(runs [][]relation.Tuple, cmp func(a, b relation.Tuple) int, k int64) []relation.Tuple {
	heads := make([]int, len(runs))
	// k comes straight from the user's LIMIT; cap the allocation by
	// what the runs can actually supply.
	capacity := k
	var avail int64
	for _, run := range runs {
		avail += int64(len(run))
	}
	if avail < capacity {
		capacity = avail
	}
	out := make([]relation.Tuple, 0, capacity)
	for int64(len(out)) < k {
		best := -1
		for i, run := range runs {
			if heads[i] >= len(run) {
				continue
			}
			if best < 0 || cmp(run[heads[i]], runs[best][heads[best]]) < 0 {
				best = i
			}
		}
		if best < 0 {
			break
		}
		out = append(out, runs[best][heads[best]])
		heads[best]++
	}
	return out
}
