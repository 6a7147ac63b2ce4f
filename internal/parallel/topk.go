package parallel

import (
	"context"
	"fmt"

	"divlaws/internal/relation"
)

// TopKBound is an order-aware pushdown into the partition workers: a
// worker under a bound keeps only its K smallest quotient tuples
// (under Cmp, a total order) in an O(K) heap, and emits them — in
// ascending Cmp order — only when its partition's quotient is
// complete. The partitionings keep quotients disjoint across
// partitions (hash on A for the small divide, hash on C for the great
// divide), so the K smallest tuples of the full quotient are
// always among the per-partition top-Ks and a K-way merge at the
// consumer reconstructs the global order exactly.
type TopKBound struct {
	// K is the per-partition retention bound; it must be positive.
	K int
	// Cmp is the total-order comparator: negative when a sorts before
	// b. It must be deterministic (break ties), so partial top-k
	// results are stable across runs and partitionings.
	Cmp func(a, b relation.Tuple) int
}

// validate rejects unusable bounds before any worker starts.
func (b TopKBound) validate() error {
	if b.K <= 0 {
		return fmt.Errorf("parallel: top-k bound K=%d is not positive", b.K)
	}
	if b.Cmp == nil {
		return fmt.Errorf("parallel: top-k bound without a comparator")
	}
	return nil
}

// topkSink is the bounded partition sink: adds go into a K-bounded
// heap (with the same cooperative ctx poll cadence as the feed
// loops), and flush emits the surviving tuples in ascending order
// through the regular batcher, so bounded emission rides the exact
// same channel plumbing as the unbounded stream.
type topkSink struct {
	ctx   context.Context
	heap  *relation.TopKHeap
	out   *batcher
	every int
	n     int
}

// add implements tupleSink.
func (s *topkSink) add(t relation.Tuple) error {
	if s.n++; s.n >= s.every {
		s.n = 0
		if err := s.ctx.Err(); err != nil {
			return err
		}
	}
	s.heap.Add(t)
	return nil
}

// flush implements tupleSink: the partition is complete, so the
// kept tuples are its definitive top K — emit them in order.
func (s *topkSink) flush() error {
	for _, t := range s.heap.Sorted() {
		if err := s.out.add(t); err != nil {
			return err
		}
	}
	return s.out.flush()
}
