// Package parallel runs the partition fan-out of the paper's
// intra-operator parallel divisions:
//
//   - Law 2 with precondition c2 (§5.1.1): partition the dividend on
//     the quotient attributes A — the paper's "two parallel index
//     scans" generalized to n — divide each partition against the
//     whole divisor, and union the quotients.
//
//   - Law 13 (§5.2.1): replicate the dividend, partition the divisor
//     on its group attributes C, great-divide each partition, and
//     union the quotients.
//
// Both laws ask only for disjoint key projections, so one hash
// partitioning serves both: the exchange operator (package exec)
// hash-partitions the dividend on A or the divisor on C while it
// drains its input, which makes c2 and Law 13's πC-disjointness hold
// by construction, and Run divides each partition in its own
// goroutine.
package parallel

import (
	"context"
	"runtime"
	"sync"

	"divlaws/internal/division"
	"divlaws/internal/relation"
)

// defaultCheckEvery is the default interval, in tuples, of the
// cooperative context polls inside parallel division workers;
// tunable per stream via Tuning.CheckEvery.
const defaultCheckEvery = 1024

// Tuning carries the per-stream knobs of the partition fan-out; the
// zero value means defaults everywhere, so callers without an opinion
// pass Tuning{}.
type Tuning struct {
	// BatchSize is the number of quotient tuples a partition worker
	// accumulates per EmitFunc call; 0 means EmitBatchSize.
	BatchSize int
	// CheckEvery is the cooperative ctx-poll interval of the worker
	// feed loops, in tuples; 0 means defaultCheckEvery.
	CheckEvery int
}

// batch resolves the emission batch size.
func (t Tuning) batch() int {
	if t.BatchSize > 0 {
		return t.BatchSize
	}
	return EmitBatchSize
}

// every resolves the ctx-poll interval.
func (t Tuning) every() int {
	if t.CheckEvery > 0 {
		return t.CheckEvery
	}
	return defaultCheckEvery
}

// DefaultWorkers is used when a worker count of 0 is given.
func DefaultWorkers() int { return runtime.GOMAXPROCS(0) }

// EmitBatchSize is the number of quotient tuples a partition worker
// accumulates before handing them downstream in one EmitFunc call.
// Batching amortizes the consumer's per-delivery costs (a channel
// send with a cancellation select, stats accounting) to noise
// without hurting first-row latency: a batch fills during the
// in-memory result scan, microseconds after the partition resolves.
const EmitBatchSize = 64

// EmitFunc receives streamed quotient tuples from partition workers
// in batches of up to EmitBatchSize (the final batch of a partition
// may be shorter). part identifies the emitting partition; batches
// of one partition arrive in order, but different partitions emit
// concurrently (one goroutine each), so implementations must be
// safe for concurrent use. The batch slice is owned by the receiver.
// Returning an error stops the emitting worker; the first error is
// reported by the stream call.
type EmitFunc func(part int, batch []relation.Tuple) error

// partitionGate, when non-nil, is called by every partition worker
// just before it starts dividing its partition. It exists only for
// tests, which block chosen partitions to prove that streaming
// consumers observe other partitions' quotients first.
var partitionGate func(part int)

// SetPartitionGateForTesting installs a hook called by each partition
// worker (with its partition index) before any division work, and
// returns a function restoring the previous hook. Tests use it to
// stall selected partitions deterministically; not for concurrent use
// with other tests mutating the gate.
func SetPartitionGateForTesting(fn func(part int)) (restore func()) {
	old := partitionGate
	partitionGate = fn
	return func() { partitionGate = old }
}

// Part is one partition's pair of division inputs. Run divides
// Dividend ÷ Divisor when the divisor's schema is contained in the
// dividend's, and Dividend ÷* Divisor otherwise.
type Part struct {
	Dividend, Divisor *relation.Relation
}

// Run divides every partition in its own goroutine, streaming each
// partition's quotient tuples to emit as soon as that partition
// resolves. The partitions must have disjoint key projections — on A
// for ÷ (Law 2 under c2), on C for ÷* (Law 13) — so their quotients
// are disjoint and their union is the whole quotient. algo picks the
// per-partition ÷ algorithm; empty means hash division, which every ÷*
// partition runs and which polls ctx every Tuning.CheckEvery dividend
// tuples (other algorithms are opaque relational computations, polled
// only before they start and while they emit). A non-nil bound caps each worker's emission at its K
// smallest quotient tuples. Run returns after every worker has
// finished; the first error observed (a schema violation, context
// cancellation or an emit rejection) stops the fan-out and is
// returned.
func Run(ctx context.Context, algo division.Algorithm, parts []Part, bound *TopKBound, tune Tuning, emit EmitFunc) error {
	if bound != nil {
		if err := bound.validate(); err != nil {
			return err
		}
	}
	return runWorkers(ctx, len(parts), func(ctx context.Context, i int) error {
		return dividePart(ctx, algo, i, parts[i], bound, tune, emit)
	})
}

// runWorkers spawns one goroutine per partition, waits for all of
// them, and returns the first error.
func runWorkers(ctx context.Context, n int, work func(ctx context.Context, i int) error) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if n == 1 {
		if gate := partitionGate; gate != nil {
			gate(0)
		}
		return work(ctx, 0)
	}
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if gate := partitionGate; gate != nil {
				gate(i)
			}
			errs[i] = work(ctx, i)
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// batcher accumulates one partition's quotient tuples and flushes
// them downstream every `size` tuples (EmitBatchSize by default),
// polling ctx at each flush so emission loops observe cancellation
// even when the sink itself cannot block on it.
type batcher struct {
	ctx  context.Context
	part int
	size int
	emit EmitFunc
	buf  []relation.Tuple
}

// add buffers one tuple, flushing a full batch.
func (b *batcher) add(t relation.Tuple) error {
	if b.buf == nil {
		b.buf = make([]relation.Tuple, 0, b.size)
	}
	b.buf = append(b.buf, t)
	if len(b.buf) >= b.size {
		return b.flush()
	}
	return nil
}

// flush hands the pending batch (if any) downstream; it must be
// called once more after the last add.
func (b *batcher) flush() error {
	if len(b.buf) == 0 {
		return nil
	}
	if err := b.ctx.Err(); err != nil {
		return err
	}
	batch := b.buf
	b.buf = nil
	return b.emit(b.part, batch)
}

// tupleSink absorbs one partition's quotient tuples; flush must be
// called once more after the final add. batcher is the plain
// streaming sink, topkSink the bounded order-aware one.
type tupleSink interface {
	add(relation.Tuple) error
	flush() error
}

// partSink builds the sink for one partition worker: a plain batcher,
// or a k-bounded heap when a top-k bound is pushed down.
func partSink(ctx context.Context, part int, bound *TopKBound, tune Tuning, emit EmitFunc) tupleSink {
	out := &batcher{ctx: ctx, part: part, size: tune.batch(), emit: emit}
	if bound == nil {
		return out
	}
	return &topkSink{ctx: ctx, heap: relation.NewTopKHeap(bound.K, bound.Cmp), out: out, every: tune.every()}
}

// emitRelation streams a materialized quotient downstream; the path
// of the non-hash algorithms, which compute their partition's
// quotient as an opaque relational computation first.
func emitRelation(sink tupleSink, q *relation.Relation) error {
	for _, t := range q.Tuples() {
		if err := sink.add(t); err != nil {
			return err
		}
	}
	return sink.flush()
}

// dividePart divides one partition cooperatively, streaming its
// quotient tuples out: hash division streams through the division
// state with a ctx poll every Tuning.CheckEvery tuples, any other ÷
// algorithm computes its partition's quotient as a whole first.
func dividePart(ctx context.Context, algo division.Algorithm, part int, p Part, bound *TopKBound, tune Tuning, emit EmitFunc) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	// The state validates the schemas for every algorithm: a bad pair
	// is this worker's error, not a panic.
	st, err := division.NewState(p.Dividend.Schema(), p.Divisor.Schema())
	if err != nil {
		return err
	}
	sink := partSink(ctx, part, bound, tune, emit)
	if algo != "" && algo != division.AlgoHash && p.Divisor.Schema().SubsetOf(p.Dividend.Schema()) {
		return emitRelation(sink, division.DivideWith(algo, p.Dividend, p.Divisor))
	}
	for _, t := range p.Divisor.Tuples() {
		st.AddDivisor(t)
	}
	every, n := tune.every(), 0
	for _, t := range p.Dividend.Tuples() {
		if n++; n >= every {
			n = 0
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		st.AddDividend(t)
	}
	if err := st.EachResult(sink.add); err != nil {
		return err
	}
	return sink.flush()
}
