package exec

import (
	"context"
	"errors"
	"strconv"
	"sync"

	"divlaws/internal/division"
	"divlaws/internal/parallel"
	"divlaws/internal/relation"
	"divlaws/internal/schema"
	"divlaws/internal/spill"
)

// DefaultExchangeBuffer is the capacity, in tuple batches of up to
// parallel.EmitBatchSize, of the bounded channel between a streaming
// exchange's partition workers and its consumer. The bound is the
// backpressure mechanism: workers that outrun the consumer block on
// the channel instead of materializing the whole quotient, so an
// early-exiting parent (LIMIT, Rows.Close) leaves most of the
// quotient uncomputed.
const DefaultExchangeBuffer = 16

// exchange owns the worker fan-out of a streaming exchange operator:
// a bounded batch channel fed by partition workers via a coordinator
// goroutine, a cancel function tearing the fan-out down, and a done
// channel marking full termination. err is written by the
// coordinator before done closes, so readers must observe <-done (or
// a closed ch, which done ordering guarantees follows err) first.
// Batching (parallel.EmitBatchSize tuples per send) amortizes the
// channel handoff and the per-partition stats accounting to noise,
// keeping streamed throughput at parity with the old materializing
// exchange.
type exchange struct {
	ch     chan []relation.Tuple
	cancel context.CancelFunc
	done   chan struct{}
	err    error

	cur []relation.Tuple // worker batch partly served under a row budget
	pos int
}

// startExchange launches run in a coordinator goroutine streaming
// into a bounded batch channel of the given capacity (0 means
// DefaultExchangeBuffer). run receives a derived context and a send
// function that blocks under backpressure but aborts — returning the
// context's error — once the exchange is cancelled; run must return
// promptly after cancellation.
func startExchange(ctx context.Context, buffer int, run func(ctx context.Context, send func([]relation.Tuple) error) error) *exchange {
	if buffer <= 0 {
		buffer = DefaultExchangeBuffer
	}
	exCtx, cancel := context.WithCancel(ctx)
	ex := &exchange{
		ch:     make(chan []relation.Tuple, buffer),
		cancel: cancel,
		done:   make(chan struct{}),
	}
	go func() {
		defer close(ex.done)
		defer close(ex.ch)
		ex.err = run(exCtx, func(batch []relation.Tuple) error {
			select {
			case ex.ch <- batch:
				return nil
			case <-exCtx.Done():
				return exCtx.Err()
			}
		})
	}()
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
			<-ex.done
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

// stop cancels the fan-out and waits for every worker to exit, so
// callers get deterministic teardown with no goroutine leaks. It is
// idempotent.
func (ex *exchange) stop() {
	ex.cancel()
	<-ex.done
}

// startTopKExchange launches the order-aware form of a streaming
// exchange: stream runs the partition fan-out under a top-k bound
// (each worker emits only its k smallest quotient tuples, sorted —
// O(k) live per worker), the coordinator collects the per-partition
// runs, k-way merges them into the global top k, and streams the
// merged result through the usual bounded channel. The merge is
// inherently a barrier — any partition may hold the global minimum —
// but it touches at most k·workers tuples instead of the quotient.
func startTopKExchange(ctx context.Context, buffer, batch int, pos []int, desc []bool, k int64, label string, stats *Stats,
	stream func(ctx context.Context, bound parallel.TopKBound, emit parallel.EmitFunc) error) *exchange {
	cmp := relation.KeyedCompare(pos, desc)
	bound := parallel.TopKBound{K: int(k), Cmp: cmp}
	if batch <= 0 {
		batch = parallel.EmitBatchSize
	}
	return startExchange(ctx, buffer, func(exCtx context.Context, send func([]relation.Tuple) error) error {
		// Partitions emit their (tiny, ≤k) runs concurrently; the mutex
		// guards the map, not the hot per-tuple loop.
		var mu sync.Mutex
		runs := make(map[int][]relation.Tuple)
		err := stream(exCtx, bound, func(part int, batch []relation.Tuple) error {
			mu.Lock()
			runs[part] = append(runs[part], batch...)
			mu.Unlock()
			stats.count(partLabel(label, part), int64(len(batch)))
			return exCtx.Err()
		})
		if err != nil {
			return err
		}
		ordered := make([][]relation.Tuple, 0, len(runs))
		for _, run := range runs {
			ordered = append(ordered, run)
		}
		merged := mergeRuns(ordered, cmp, k)
		for start := 0; start < len(merged); start += batch {
			end := start + batch
			if end > len(merged) {
				end = len(merged)
			}
			if err := send(merged[start:end]); err != nil {
				return err
			}
		}
		return nil
	})
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
// before partitioning — and launches one goroutine per non-empty
// partition; each worker divides its partition and emits its finished
// quotient tuples into a bounded channel. NextBatch pulls from the
// channel, so the first row surfaces as soon as the first partition
// resolves — the pipeline above never waits for the slowest worker —
// and Close (or context cancellation) tears the workers down
// mid-stream. Per-partition emission counts are recorded in Stats
// under "<label>/part<i>" as tuples flow, so an early exit leaves them
// below the full quotient sizes.
type ParallelDivideIter struct {
	Label             string
	Dividend, Divisor BatchIterator
	// Algo is the per-partition ÷ algorithm; empty means hash
	// division, which every ÷* partition runs.
	Algo division.Algorithm
	// Workers is the partition/goroutine count; 0 means GOMAXPROCS.
	Workers int
	// Buffer is the exchange channel capacity; 0 means
	// DefaultExchangeBuffer.
	Buffer int
	// TopKN, when positive, switches the exchange to its order-aware
	// top-k form: every partition worker keeps an O(TopKN) heap over
	// the TopKPos/TopKDesc keys and the consumer k-way merges the
	// per-partition runs, so NextBatch serves the global top TopKN in
	// key order without the quotient ever materializing.
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
		w = parallel.DefaultWorkers()
	}
	replicated := relation.New(replIn.Schema())
	parts := make([]*relation.Relation, w)
	for i := range parts {
		parts[i] = relation.New(partIn.Schema())
	}

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
		for _, rt := range replicated.Tuples() {
			if err := replAdd(rt); err != nil {
				return false, err
			}
		}
		for _, pr := range parts {
			for _, pt := range pr.Tuples() {
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
			replicated.InsertOwned(t)
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
			parts[h%uint64(w)].InsertOwned(t)
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

	work := make([]parallel.Part, 0, w)
	for _, pr := range parts {
		switch {
		case pr.Empty():
		case split.C.Len() == 0:
			work = append(work, parallel.Part{Dividend: pr, Divisor: replicated})
		default:
			work = append(work, parallel.Part{Dividend: replicated, Divisor: pr})
		}
	}
	tune := parallel.Tuning{BatchSize: p.BatchSize, CheckEvery: p.Every}
	if p.TopKN > 0 {
		p.ex = startTopKExchange(ctx, p.Buffer, p.BatchSize, p.TopKPos, p.TopKDesc, p.TopKN, p.Label, p.Stats,
			func(runCtx context.Context, bound parallel.TopKBound, emit parallel.EmitFunc) error {
				return parallel.Run(runCtx, p.Algo, work, &bound, tune, emit)
			})
		return nil
	}
	p.ex = startExchange(ctx, p.Buffer, func(exCtx context.Context, send func([]relation.Tuple) error) error {
		return parallel.Run(exCtx, p.Algo, work, nil, tune, func(part int, batch []relation.Tuple) error {
			if err := send(batch); err != nil {
				return err
			}
			p.Stats.count(partLabel(p.Label, part), int64(len(batch)))
			return nil
		})
	})
	return nil
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
