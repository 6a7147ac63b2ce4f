// Package exec is the physical execution engine: every operator is a
// BatchIterator with Open/NextBatch/Close, exchanging reused
// relation.Batch slabs of up to CompileOptions.BatchSize tuples, so
// per-call interface overhead and the cooperative context polls are
// amortized across a whole batch, and tuples flow through pipelines
// without materializing intermediate relations unless an operator is
// inherently blocking. The tuple-at-a-time surface (Open/Next/Close)
// exists exactly once, on the FromBatch cursor CompileWith places over
// the root operator.
//
// The engine exists to make the paper's execution-level arguments
// measurable: hash-division consumes its dividend in one pass
// (Graefe), merge-group division preserves dividend grouping and
// pipelines quotient tuples out per group (the Law 1 discussion in
// §5.1.1), and the basic-algebra simulation of division materializes
// a quadratic intermediate (Leinders & Van den Bussche [25]), which
// the Stats counters expose.
//
// # Cancellation
//
// Open takes a context.Context which governs the whole life of the
// pipeline: blocking operators (hash builds, sorts, divisions,
// parallel exchanges) poll it every CheckEvery tuples (default
// DefaultCheckEvery, tunable via CompileOptions) while they drain
// their children, and the parallel division workers observe it
// mid-partition, so a cancelled context tears the pipeline down
// promptly instead of after the current blocking phase. The polling
// is deliberately batched rather than per-tuple: a ctx.Err() call per
// tuple costs a mutex acquisition in the hot loop, while the batched
// check is amortized to noise (see BenchmarkCancellationOverhead for
// the measurement that picked this design over per-tuple checks).
//
// # Kernels
//
// Two per-row costs are attacked on top of the batch protocol, each
// with the structure measurement picked. Set-op and semijoin probes
// hash each incoming batch in one pass through the wide hash kernel
// (relation.Hash64ProjBatch over hashkey's word-at-a-time string
// mixer) and then walk the table with precomputed hashes; the hash
// join instead probes row-at-the-cursor through the fused
// TupleIndex.LookupProj — hash plus walk in one frame — because on
// its short-key, L1-hot probe loop a separate hash pass costs a
// write and a re-read per row that the fusion avoids. Emit paths
// (join, product, theta join, and the spilled sort's merge, which
// copies the rows it reads from runs) carve output tuples out of a
// per-iterator relation.Slab instead of calling make per
// concatenation, and under a memory budget the live chunk is charged
// against the spill tracker (see relation.Slab for the lifetime and
// accounting rules). An emitter's tuples are owned by default: slab
// chunks are GC-owned, so they stay valid for as long as any consumer
// holds them. Where the plan shows that the consumer drops each tuple
// before its next pull — the root cursor, an unbudgeted division's
// dividend, a probe side — compile lets the emitter borrow instead,
// and it rewinds one chunk per batch, so the emit path allocates
// nothing per tuple (see compile for the rule). A sort's merge sizes
// that chunk to one batch of rows, so under the root cursor it
// allocates per batch, not per row.
package exec

import (
	"context"
	"fmt"
	"sync"

	"divlaws/internal/relation"
	"divlaws/internal/schema"
)

// BatchIterator is the physical operator interface: operators
// exchange slabs of up to CompileOptions.BatchSize tuples.
//
// Protocol: Open before the first NextBatch; NextBatch returns nil at
// end of stream and never an empty batch; the returned batch is owned
// by the operator and valid only until the next NextBatch or Close.
// The tuples inside are immutable. They are owned, and may be
// retained, unless compile made the operator borrowed (see compile):
// a borrowed tuple is valid only until the next NextBatch, so a
// consumer that keeps one copies it. Close does not overwrite the
// tuples already served (LimitBatch serves its final batch after
// closing its child). Close is idempotent and safe to call before
// Open or mid-stream (after a context cancellation, for example).
type BatchIterator interface {
	// Open prepares the operator (allocating hash tables, opening
	// children) under the given context. Blocking operators honor ctx
	// cancellation while they consume their children; the context must
	// stay valid until Close.
	Open(ctx context.Context) error
	// NextBatch produces the next batch, nil at end of stream. The
	// batch is reused: it is valid only until the next call.
	NextBatch() (*relation.Batch, error)
	// Close releases resources; idempotent.
	Close() error
	// Schema describes the produced tuples.
	Schema() schema.Schema
}

// DefaultCheckEvery is the default interval, in tuples, of the
// cooperative context checks inside blocking drain loops; tunable per
// query via CompileOptions.CheckEvery.
const DefaultCheckEvery = 1024

// drainEvery consumes child into sink a batch at a time, stopping at
// the sink's first error and polling ctx at batch boundaries, at least
// every `every` tuples (DefaultCheckEvery when every <= 0). It is the
// shared inner loop of every blocking operator.
func drainEvery(ctx context.Context, child BatchIterator, every int, sink func(relation.Tuple) error) error {
	every = effEvery(every)
	n := 0
	for {
		b, err := child.NextBatch()
		if err != nil {
			return err
		}
		if b == nil {
			return nil
		}
		for _, t := range b.Tuples() {
			if err := sink(t); err != nil {
				return err
			}
		}
		if n += b.Len(); n >= every {
			n = 0
			if err := ctx.Err(); err != nil {
				return err
			}
		}
	}
}

// Stats counts tuples emitted per operator label, making
// intermediate-result sizes observable (the quadratic-intermediate
// measurement of [25] relies on this). It is safe for concurrent use
// so parallel operators can share one collector across goroutines;
// read it with Get, Total, or Snapshot — never by reaching into the
// map while operators may still be running.
type Stats struct {
	mu      sync.Mutex
	emitted map[string]int64
}

// NewStats returns an empty Stats collector.
func NewStats() *Stats { return &Stats{emitted: make(map[string]int64)} }

// count records n tuples emitted by the labelled operator.
func (s *Stats) count(label string, n int64) {
	if s != nil {
		s.mu.Lock()
		s.emitted[label] += n
		s.mu.Unlock()
	}
}

// Get returns the tuple count recorded for one operator label.
func (s *Stats) Get(label string) int64 {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.emitted[label]
}

// Snapshot returns a copy of the per-operator counts. It is the
// supported way to read the whole collector — safe even while
// parallel operators are still appending — and the representation
// behind the public QueryStats surface.
func (s *Stats) Snapshot() map[string]int64 {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string]int64, len(s.emitted))
	for k, v := range s.emitted {
		out[k] = v
	}
	return out
}

// Total returns the total number of tuples emitted by all operators,
// the engine's measure of intermediate-result volume.
func (s *Stats) Total() int64 {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	var t int64
	for _, n := range s.emitted {
		t += n
	}
	return t
}

// Run drains a compiled plan into a set-semantics relation.
func Run(ctx context.Context, it *FromBatch) (*relation.Relation, error) {
	if err := it.Open(ctx); err != nil {
		return nil, err
	}
	defer it.Close()
	out := relation.New(it.Schema())
	if err := drainEvery(ctx, it.Input, 0, func(t relation.Tuple) error { out.Insert(t); return nil }); err != nil {
		return nil, err
	}
	return out, nil
}

// Drain consumes a compiled plan, returning only the tuple count; used
// by benchmarks that do not need the result.
func Drain(ctx context.Context, it *FromBatch) (int64, error) {
	if err := it.Open(ctx); err != nil {
		return 0, err
	}
	defer it.Close()
	var n int64
	if err := drainEvery(ctx, it.Input, 0, func(relation.Tuple) error { n++; return nil }); err != nil {
		return n, err
	}
	return n, nil
}

// errNotOpen guards against protocol misuse.
func errNotOpen(op string) error { return fmt.Errorf("exec: %s.NextBatch before Open", op) }
