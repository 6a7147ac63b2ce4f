package exec

import (
	"context"
	"errors"
	"runtime"
	"strconv"
	"sync"

	"divlaws/internal/division"
	"divlaws/internal/relation"
	"divlaws/internal/schema"
	"divlaws/internal/spill"
)

// DefaultExchangeBuffer is the capacity, in tuple batches of up to
// the operator's batch size, of the bounded channel between a streaming
// exchange's partition workers and its consumer. The bound is the
// backpressure mechanism: workers that outrun the consumer block on
// the channel instead of materializing the whole quotient, so an
// early-exiting parent (LIMIT, Rows.Close) leaves most of the
// quotient uncomputed.
const DefaultExchangeBuffer = 16

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

// exchange owns the worker fan-out of a streaming exchange operator:
// one goroutine per partition, a bounded batch channel they feed, and
// a cancel function tearing them down. The first worker error is
// recorded in err and cancels the others; the last worker to finish
// closes ch, so a reader that sees ch closed may read err.
type exchange struct {
	ch     chan []relation.Tuple
	cancel context.CancelFunc

	mu   sync.Mutex
	left int   // workers still running
	err  error // first worker error

	cur []relation.Tuple // worker batch partly served under a row budget
	pos int
}

// startExchange starts n workers, work(ctx, i, send) for i in [0, n),
// each in its own goroutine, streaming into a bounded batch channel of
// the given capacity (0 means DefaultExchangeBuffer). send blocks
// under backpressure but aborts — returning the context's error — once
// the exchange is cancelled; work must return promptly after
// cancellation. When every worker has succeeded, the last one runs
// finish (if non-nil) with the same send before the channel closes.
func startExchange(ctx context.Context, buffer, n int,
	work func(ctx context.Context, part int, send func([]relation.Tuple) error) error,
	finish func(send func([]relation.Tuple) error) error) *exchange {
	if buffer <= 0 {
		buffer = DefaultExchangeBuffer
	}
	exCtx, cancel := context.WithCancel(ctx)
	ex := &exchange{ch: make(chan []relation.Tuple, buffer), cancel: cancel, left: n}
	send := func(batch []relation.Tuple) error {
		if err := exCtx.Err(); err != nil {
			return err
		}
		select {
		case ex.ch <- batch:
			return nil
		case <-exCtx.Done():
			return exCtx.Err()
		}
	}
	if n == 0 {
		close(ex.ch)
		return ex
	}
	for i := 0; i < n; i++ {
		go func(i int) {
			if gate := partitionGate; gate != nil {
				gate(i)
			}
			err := work(exCtx, i, send)
			ex.mu.Lock()
			if err != nil && ex.err == nil {
				ex.err = err
				cancel()
			}
			ex.left--
			last := ex.left == 0
			ex.mu.Unlock()
			if !last {
				return
			}
			// Every other worker has returned, so err is this
			// goroutine's alone until the channel closes.
			if ex.err == nil && finish != nil {
				ex.err = finish(send)
			}
			close(ex.ch)
		}(i)
	}
	return ex
}

// nextBatch pulls one worker batch off the exchange untouched: the
// workers' tuple slices flow to the consumer without copying. A
// positive limit (the consumer's row budget) caps the served window,
// keeping the rest of the worker batch as the remainder cursor, served
// first on the next call — a bounded consumer sees exactly the rows it
// asked for. nil tuples mark end of stream, with err reporting how the
// workers finished.
func (ex *exchange) nextBatch(limit int) ([]relation.Tuple, error) {
	if ex.pos >= len(ex.cur) {
		ex.cur, ex.pos = nil, 0
		batch, ok := <-ex.ch
		if !ok {
			return nil, ex.err
		}
		ex.cur, ex.pos = batch, 0
	}
	end := len(ex.cur)
	if limit > 0 && ex.pos+limit < end {
		end = ex.pos + limit
	}
	ts := ex.cur[ex.pos:end]
	if end == len(ex.cur) {
		ex.cur, ex.pos = nil, 0
	} else {
		ex.pos = end
	}
	return ts, nil
}

// stop cancels the fan-out and waits for every worker to exit — the
// last one closes the channel — so callers get deterministic teardown
// with no goroutine leaks. It is idempotent.
func (ex *exchange) stop() {
	ex.cancel()
	for range ex.ch {
	}
}

// partition is one worker's share of an exchange: its division state
// and the two inputs it feeds it, one of them the replicated input.
type partition struct {
	st                division.State
	dividend, divisor []relation.Tuple
}

// divide feeds the partition's state, divisor first, then streams the
// quotient to emit, polling ctx every `every` tuples throughout.
func (pt partition) divide(ctx context.Context, every int, emit func(relation.Tuple) error) error {
	n := 0
	poll := func() error {
		if n++; n < every {
			return nil
		}
		n = 0
		return ctx.Err()
	}
	for _, t := range pt.divisor {
		if err := poll(); err != nil {
			return err
		}
		pt.st.AddDivisor(t)
	}
	for _, t := range pt.dividend {
		if err := poll(); err != nil {
			return err
		}
		pt.st.AddDividend(t)
	}
	return pt.st.EachResult(func(t relation.Tuple) error {
		if err := poll(); err != nil {
			return err
		}
		return emit(t)
	})
}

// sendBatches hands ts downstream in consecutive windows of up to size
// tuples.
func sendBatches(ts []relation.Tuple, size int, send func([]relation.Tuple) error) error {
	for start := 0; start < len(ts); start += size {
		if err := send(ts[start:min(start+size, len(ts))]); err != nil {
			return err
		}
	}
	return nil
}

// ParallelDivideIter is the streaming exchange operator for
// plan.ParallelDivide and plan.ParallelGreatDivide; the variant follows
// from the schemas. When C = R2 − R1 is empty (r1 ÷ r2) the divisor is
// replicated and the dividend hash-partitioned on the quotient
// attributes A (Law 2 under c2); otherwise (r1 ÷* r2) the dividend is
// replicated and the divisor hash-partitioned on its group attributes
// C (Law 13). Either partitioning makes its law's disjointness premise
// hold by construction. Open drains the replicated input, partitions
// the other one straight off its child — never materialized whole
// before partitioning — into plain tuple slices, and launches one
// goroutine per non-empty partition; each worker divides its partition
// and emits its finished quotient tuples into a bounded channel, which
// the last worker to finish closes. NextBatch pulls from the
// channel, so the first row surfaces as soon as the first partition
// resolves — the pipeline above never waits for the slowest worker —
// and Close (or context cancellation) tears the workers down
// mid-stream. Per-partition emission counts are recorded in Stats
// under "<label>/part<i>" as tuples flow, so an early exit leaves them
// below the full quotient sizes.
type ParallelDivideIter struct {
	Label             string
	Dividend, Divisor BatchIterator
	// Workers is the partition/goroutine count; 0 means GOMAXPROCS.
	Workers int
	// Buffer is the exchange channel capacity; 0 means
	// DefaultExchangeBuffer.
	Buffer int
	// TopKN, when positive, switches the exchange to its order-aware
	// top-k form: every partition worker keeps an O(TopKN) heap over
	// the TopKPos/TopKDesc keys and the last worker to finish k-way
	// merges the per-partition runs, so NextBatch serves the global top
	// TopKN in key order without the quotient ever materializing.
	TopKN    int64
	TopKPos  []int
	TopKDesc []bool
	Stats    *Stats
	// Every is the cooperative ctx-poll interval of the input drains
	// and worker feed loops, in tuples; 0 means DefaultCheckEvery.
	Every int
	// Spill, when non-nil, budgets the exchange: both inputs are
	// charged as they are buffered, and if they exceed the budget the
	// operator degrades to the sequential grace division, which spills
	// the dividend to temp-file runs.
	Spill *spill.Tracker
	windowBatcher

	out schema.Schema
	ex  *exchange

	charged  int64
	grace    *graceDivide
	gctx     context.Context
	fb       bool
	fallback []relation.Tuple
	fbTopK   bool
	fPos     int
}

// Open implements BatchIterator.
func (p *ParallelDivideIter) Open(ctx context.Context) error {
	dividendSch, divisorSch := p.Dividend.Schema(), p.Divisor.Schema()
	split, err := division.SplitOf(dividendSch, divisorSch)
	if err != nil {
		return err
	}
	p.out = split.Quotient()
	aPos := dividendSch.Positions(split.A.Attrs())
	g := newGraceDivide(p.Spill, dividendSch, divisorSch, aPos, p.Every)
	p.grace, p.gctx = g, ctx

	// The replicated input and the partitioned one with its key
	// positions, each with the grace divider's entry for its role.
	addDividend := func(t relation.Tuple) error { return g.addDividend(ctx, t) }
	replIn, replAdd := p.Divisor, g.addDivisor
	partIn, partAdd, key := p.Dividend, addDividend, aPos
	if split.C.Len() > 0 {
		replIn, replAdd = p.Dividend, addDividend
		partIn, partAdd, key = p.Divisor, g.addDivisor, divisorSch.Positions(split.C.Attrs())
	}
	w := p.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	// Exec operators emit sets and the division states absorb
	// duplicates anyway, so the buffered inputs are plain tuple slices.
	var replicated []relation.Tuple
	parts := make([][]relation.Tuple, w)

	// keep charges t to the in-memory build and reports whether it fits.
	// At the first budget overflow it hands everything buffered so far
	// to the grace divider, which re-buffers (and spills) under its own
	// charge; from then on every tuple goes there. A nil tracker never
	// overflows.
	keep := func(t relation.Tuple) (bool, error) {
		if p.fb {
			return false, nil
		}
		fp := t.Footprint()
		err := p.Spill.Charge(fp)
		if err == nil {
			p.charged += fp
			return true, nil
		}
		if !errors.Is(err, spill.ErrBudget) {
			return false, err
		}
		p.fb = true
		p.Spill.Release(p.charged)
		p.charged = 0
		for _, rt := range replicated {
			if err := replAdd(rt); err != nil {
				return false, err
			}
		}
		for _, pr := range parts {
			for _, pt := range pr {
				if err := partAdd(pt); err != nil {
					return false, err
				}
			}
		}
		replicated, parts = nil, nil
		return false, nil
	}

	if err := replIn.Open(ctx); err != nil {
		return err
	}
	if err := drainEvery(ctx, replIn, p.Every, func(t relation.Tuple) error {
		ok, err := keep(t)
		if ok {
			replicated = append(replicated, t)
		} else if err == nil {
			err = replAdd(t)
		}
		return err
	}); err != nil {
		return err
	}
	if err := partIn.Open(ctx); err != nil {
		return err
	}
	hp := &hashPartitioner{pos: key, emit: func(t relation.Tuple, h uint64) error {
		ok, err := keep(t)
		if ok {
			i := h % uint64(w)
			parts[i] = append(parts[i], t)
		} else if err == nil {
			err = partAdd(t)
		}
		return err
	}}
	if err := drainEvery(ctx, partIn, p.Every, hp.add); err != nil {
		return err
	}
	if err := hp.flush(); err != nil {
		return err
	}
	if p.fb {
		if err := g.finish(ctx); err != nil {
			return err
		}
		if p.TopKN > 0 {
			top, err := topKFromGrace(ctx, g, p.TopKPos, p.TopKDesc, p.TopKN)
			if err != nil {
				return err
			}
			p.fallback, p.fPos, p.fbTopK = top, 0, true
		}
		return nil
	}

	work := make([]partition, 0, w)
	for _, pr := range parts {
		if len(pr) == 0 {
			continue
		}
		st, err := division.NewState(dividendSch, divisorSch)
		if err != nil {
			return err
		}
		if split.C.Len() == 0 {
			work = append(work, partition{st: st, dividend: pr, divisor: replicated})
		} else {
			work = append(work, partition{st: st, dividend: replicated, divisor: pr})
		}
	}
	p.ex = p.startWorkers(ctx, work)
	return nil
}

// startWorkers launches one exchange worker per partition. A streaming
// worker sends its quotient in batches as it goes; under a fused top-k
// a worker keeps only its partition's k smallest tuples, and the last
// worker to finish k-way merges those runs into the global top k —
// inherently a barrier, since any partition may hold the global
// minimum, but one over at most k·partitions tuples.
func (p *ParallelDivideIter) startWorkers(ctx context.Context, work []partition) *exchange {
	every, size, label, stats := effEvery(p.Every), p.batchCap(), p.Label, p.Stats
	if p.TopKN > 0 {
		k, cmp := p.TopKN, relation.KeyedCompare(p.TopKPos, p.TopKDesc)
		runs := make([][]relation.Tuple, len(work))
		return startExchange(ctx, p.Buffer, len(work), func(ctx context.Context, i int, _ func([]relation.Tuple) error) error {
			h := relation.NewTopKHeap(int(k), cmp)
			if err := work[i].divide(ctx, every, func(t relation.Tuple) error { h.Add(t); return nil }); err != nil {
				return err
			}
			if runs[i] = h.Sorted(); len(runs[i]) > 0 {
				stats.count(partLabel(label, i), int64(len(runs[i])))
			}
			return nil
		}, func(send func([]relation.Tuple) error) error {
			return sendBatches(mergeRuns(runs, cmp, k), size, send)
		})
	}
	return startExchange(ctx, p.Buffer, len(work), func(ctx context.Context, i int, send func([]relation.Tuple) error) error {
		var buf []relation.Tuple
		flush := func() error {
			if len(buf) == 0 {
				return nil
			}
			if err := send(buf); err != nil {
				return err
			}
			stats.count(partLabel(label, i), int64(len(buf)))
			buf = nil
			return nil
		}
		err := work[i].divide(ctx, every, func(t relation.Tuple) error {
			if buf == nil {
				buf = make([]relation.Tuple, 0, size)
			}
			if buf = append(buf, t); len(buf) < size {
				return nil
			}
			return flush()
		})
		if err != nil {
			return err
		}
		return flush()
	}, nil)
}

// NextBatch implements BatchIterator: the workers' emission batches
// flow through untouched, capped by any armed row budget.
func (p *ParallelDivideIter) NextBatch() (*relation.Batch, error) {
	if p.fbTopK {
		b := p.window(p.fallback, &p.fPos)
		if b != nil {
			p.Stats.count(p.Label, int64(b.Len()))
		}
		return b, nil
	}
	if p.fb {
		return graceBatch(p.grace, p.gctx, &p.windowBatcher, p.Stats, p.Label)
	}
	if p.ex == nil {
		return nil, errNotOpen("ParallelDivideIter")
	}
	ts, err := p.ex.nextBatch(int(p.budget))
	if ts == nil {
		return nil, err
	}
	p.Stats.count(p.Label, int64(len(ts)))
	return p.adopt(ts), nil
}

// Close implements BatchIterator. It cancels the exchange and blocks until
// every partition worker has exited, so mid-stream teardown leaves no
// goroutines behind.
func (p *ParallelDivideIter) Close() error {
	if p.ex != nil {
		p.ex.stop()
		p.ex = nil
	}
	if p.grace != nil {
		p.grace.close()
		p.grace = nil
	}
	p.Spill.Release(p.charged)
	p.charged = 0
	p.fallback, p.fb, p.fbTopK = nil, false, false
	p.release()
	err1 := p.Dividend.Close()
	err2 := p.Divisor.Close()
	if err1 != nil {
		return err1
	}
	return err2
}

// Schema implements BatchIterator. It is derived from the children's
// schemas so parents may call it before Open.
func (p *ParallelDivideIter) Schema() schema.Schema {
	if p.out.Len() == 0 {
		p.out = quotientSchema(p.Dividend.Schema(), p.Divisor.Schema())
	}
	return p.out
}

// partitionChunk is the number of tuples a hashPartitioner hashes per
// Hash64ProjBatch pass.
const partitionChunk = 256

// hashPartitioner chunks a per-tuple drain so partition hashes are
// computed batch-at-a-time: tuples buffer until a chunk fills, the
// whole chunk's key hashes come out of one Hash64ProjBatch pass, and
// emit receives each (tuple, hash) pair in arrival order. The caller
// must flush after the drain to push out the final partial chunk.
type hashPartitioner struct {
	pos    []int
	emit   func(t relation.Tuple, h uint64) error
	buf    []relation.Tuple
	hashes []uint64
}

func (hp *hashPartitioner) add(t relation.Tuple) error {
	hp.buf = append(hp.buf, t)
	if len(hp.buf) >= partitionChunk {
		return hp.flush()
	}
	return nil
}

func (hp *hashPartitioner) flush() error {
	if len(hp.buf) == 0 {
		return nil
	}
	hp.hashes = relation.Hash64ProjBatch(hp.buf, hp.pos, hp.hashes[:0])
	for i, t := range hp.buf {
		if err := hp.emit(t, hp.hashes[i]); err != nil {
			hp.buf = hp.buf[:0]
			return err
		}
	}
	hp.buf = hp.buf[:0]
	return nil
}

// partLabel names partition i of a parallel operator in Stats.
func partLabel(label string, i int) string {
	return label + "/part" + strconv.Itoa(i)
}
