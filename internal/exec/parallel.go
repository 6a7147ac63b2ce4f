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
// plan.ParallelDivide: Open materializes both inputs,
// range-partitions the dividend on the quotient attributes A (Law 2
// under c2, which the partitioning establishes by construction), and
// launches one goroutine per partition; each worker runs the
// streaming division.DivideState over its partition and emits its
// finished quotient tuples into a bounded channel. NextBatch pulls from
// the channel, so the first row surfaces as soon as the first
// partition resolves — the pipeline above never waits for the
// slowest worker — and Close (or context cancellation) tears the
// workers down mid-stream. Per-partition emission counts are
// recorded in Stats under "<label>/part<i>" as tuples flow, so an
// early exit leaves them below the full quotient sizes.
type ParallelDivideIter struct {
	Label             string
	Dividend, Divisor BatchIterator
	// Algo is the per-partition algorithm; empty means hash-division.
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
	// Spill, when non-nil, budgets the exchange: the dividend is
	// hash-partitioned on A while draining (streamed, charged) instead
	// of materialized first, and if even the partitions exceed the
	// budget the operator degrades to the sequential grace division.
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

// tuning bundles the iterator's knobs for the parallel fan-out.
func (p *ParallelDivideIter) tuning() parallel.Tuning {
	return parallel.Tuning{BatchSize: p.BatchSize, CheckEvery: p.Every}
}

// Open implements BatchIterator.
func (p *ParallelDivideIter) Open(ctx context.Context) error {
	split, err := division.SmallSplit(p.Dividend.Schema(), p.Divisor.Schema())
	if err != nil {
		return err
	}
	algo := p.Algo
	if algo == "" {
		algo = division.AlgoHash
	}
	if p.Spill != nil {
		p.out = split.A
		return p.openBudgeted(ctx, split, algo)
	}
	dividend, err := drainChild(ctx, p.Dividend, p.Every)
	if err != nil {
		return err
	}
	divisor, err := drainChild(ctx, p.Divisor, p.Every)
	if err != nil {
		return err
	}
	p.out = split.A
	if p.TopKN > 0 {
		p.ex = startTopKExchange(ctx, p.Buffer, p.BatchSize, p.TopKPos, p.TopKDesc, p.TopKN, p.Label, p.Stats,
			func(runCtx context.Context, bound parallel.TopKBound, emit parallel.EmitFunc) error {
				return parallel.DivideStreamTopK(runCtx, algo, dividend, divisor, p.Workers, bound, p.tuning(), emit)
			})
		return nil
	}
	p.ex = startExchange(ctx, p.Buffer, func(exCtx context.Context, send func([]relation.Tuple) error) error {
		return parallel.DivideStream(exCtx, algo, dividend, divisor, p.Workers, p.tuning(),
			func(part int, batch []relation.Tuple) error {
				if err := send(batch); err != nil {
					return err
				}
				p.Stats.count(partLabel(p.Label, part), int64(len(batch)))
				return nil
			})
	})
	return nil
}

// openBudgeted is Open under a memory budget: the divisor is drained
// charged (it is replicated to every worker and must fit), the
// dividend hash-partitioned on A straight off its child — streamed,
// never materialized whole before partitioning — and the workers run
// over the charged partitions. If the partitions themselves exceed the
// budget the operator falls back to the sequential grace division,
// which spills the dividend to temp-file runs.
func (p *ParallelDivideIter) openBudgeted(ctx context.Context, split division.Split, algo division.Algorithm) error {
	dividendSch, divisorSch := p.Dividend.Schema(), p.Divisor.Schema()
	aPos := dividendSch.Positions(split.A.Attrs())
	g := newGraceDivide(p.Spill, aPos, p.Every,
		func() (divSpillState, error) { return division.NewDivideState(dividendSch, divisorSch) })
	p.grace, p.gctx = g, ctx

	if err := p.Divisor.Open(ctx); err != nil {
		return err
	}
	if err := drainEvery(ctx, p.Divisor, p.Every, g.addDivisor); err != nil {
		return err
	}
	if err := p.Dividend.Open(ctx); err != nil {
		return err
	}
	w := p.Workers
	if w <= 0 {
		w = parallel.DefaultWorkers()
	}
	parts := make([]*relation.Relation, w)
	for i := range parts {
		parts[i] = relation.New(dividendSch)
	}
	hp := &hashPartitioner{pos: aPos, emit: func(t relation.Tuple, h uint64) error {
		if p.fb {
			return g.addDividend(ctx, t)
		}
		fp := t.Footprint()
		err := p.Spill.Charge(fp)
		if err == nil {
			p.charged += fp
			parts[int(h%uint64(w))].InsertOwned(t)
			return nil
		}
		if !errors.Is(err, spill.ErrBudget) {
			return err
		}
		// Budget hit mid-partitioning: hand everything to the grace
		// divider, which re-buffers (and spills) under its own charge.
		p.fb = true
		p.Spill.Release(p.charged)
		p.charged = 0
		for _, part := range parts {
			for _, pt := range part.Tuples() {
				if err := g.addDividend(ctx, pt); err != nil {
					return err
				}
			}
		}
		parts = nil
		return g.addDividend(ctx, t)
	}}
	if err := drainEvery(ctx, p.Dividend, p.Every, hp.add); err != nil {
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
	live := parts[:0]
	for _, part := range parts {
		if !part.Empty() {
			live = append(live, part)
		}
	}
	divisor := relation.New(divisorSch)
	for _, t := range g.divisor {
		divisor.InsertOwned(t)
	}
	if p.TopKN > 0 {
		p.ex = startTopKExchange(ctx, p.Buffer, p.BatchSize, p.TopKPos, p.TopKDesc, p.TopKN, p.Label, p.Stats,
			func(runCtx context.Context, bound parallel.TopKBound, emit parallel.EmitFunc) error {
				return parallel.DividePartsStream(runCtx, algo, live, divisor, &bound, p.tuning(), emit)
			})
		return nil
	}
	p.ex = startExchange(ctx, p.Buffer, func(exCtx context.Context, send func([]relation.Tuple) error) error {
		return parallel.DividePartsStream(exCtx, algo, live, divisor, nil, p.tuning(),
			func(part int, batch []relation.Tuple) error {
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
		split, err := division.SmallSplit(p.Dividend.Schema(), p.Divisor.Schema())
		if err != nil {
			panic(err)
		}
		p.out = split.A
	}
	return p.out
}

// ParallelGreatDivideIter is the streaming exchange operator for
// plan.ParallelGreatDivide: the dividend is replicated, the divisor
// hash-partitioned on its group attributes C (Law 13, whose
// πC-disjointness premise the partitioning establishes by
// construction), and one worker per partition great-divides and
// streams its quotient tuples into the exchange channel; see
// ParallelDivideIter for the exchange mechanics.
type ParallelGreatDivideIter struct {
	Label             string
	Dividend, Divisor BatchIterator
	Algo              division.Algorithm
	Workers           int
	// Buffer is the exchange channel capacity; 0 means
	// DefaultExchangeBuffer.
	Buffer int
	// TopKN/TopKPos/TopKDesc enable the order-aware top-k exchange;
	// see ParallelDivideIter.
	TopKN    int64
	TopKPos  []int
	TopKDesc []bool
	Stats    *Stats
	// Every is the cooperative ctx-poll interval of the input drains
	// and worker feed loops, in tuples; 0 means DefaultCheckEvery.
	Every int
	// Spill, when non-nil, budgets the exchange: the divisor is
	// hash-partitioned on C while draining (streamed, charged) instead
	// of materialized first, and on budget pressure the operator
	// degrades to the sequential grace great-division.
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

// tuning bundles the iterator's knobs for the parallel fan-out.
func (g *ParallelGreatDivideIter) tuning() parallel.Tuning {
	return parallel.Tuning{BatchSize: g.BatchSize, CheckEvery: g.Every}
}

// Open implements BatchIterator.
func (g *ParallelGreatDivideIter) Open(ctx context.Context) error {
	split, err := division.GreatSplit(g.Dividend.Schema(), g.Divisor.Schema())
	if err != nil {
		return err
	}
	algo := g.Algo
	if algo == "" {
		algo = division.GreatAlgoHash
	}
	if g.Spill != nil {
		g.out = split.A.Concat(split.C)
		return g.openBudgeted(ctx, split, algo)
	}
	dividend, err := drainChild(ctx, g.Dividend, g.Every)
	if err != nil {
		return err
	}
	divisor, err := drainChild(ctx, g.Divisor, g.Every)
	if err != nil {
		return err
	}
	g.out = split.A.Concat(split.C)
	if g.TopKN > 0 {
		g.ex = startTopKExchange(ctx, g.Buffer, g.BatchSize, g.TopKPos, g.TopKDesc, g.TopKN, g.Label, g.Stats,
			func(runCtx context.Context, bound parallel.TopKBound, emit parallel.EmitFunc) error {
				return parallel.GreatDivideStreamTopK(runCtx, algo, dividend, divisor, g.Workers, bound, g.tuning(), emit)
			})
		return nil
	}
	g.ex = startExchange(ctx, g.Buffer, func(exCtx context.Context, send func([]relation.Tuple) error) error {
		return parallel.GreatDivideStream(exCtx, algo, dividend, divisor, g.Workers, g.tuning(),
			func(part int, batch []relation.Tuple) error {
				if err := send(batch); err != nil {
					return err
				}
				g.Stats.count(partLabel(g.Label, part), int64(len(batch)))
				return nil
			})
	})
	return nil
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

// openBudgeted is Open under a memory budget: the dividend is drained
// charged (it is replicated to every worker), the divisor
// hash-partitioned on its group attributes C straight off its child —
// preserving Law 13's πC-disjointness — and the workers run over the
// charged partitions. On budget pressure the operator falls back to
// the sequential grace great-division, which spills the dividend.
func (g *ParallelGreatDivideIter) openBudgeted(ctx context.Context, split division.Split, algo division.Algorithm) error {
	dividendSch, divisorSch := g.Dividend.Schema(), g.Divisor.Schema()
	aPos := dividendSch.Positions(split.A.Attrs())
	cPos := divisorSch.Positions(split.C.Attrs())
	gd := newGraceDivide(g.Spill, aPos, g.Every,
		func() (divSpillState, error) { return division.NewGreatDivideState(dividendSch, divisorSch) })
	g.grace, g.gctx = gd, ctx

	// The dividend is the replicated side here: buffer it charged, and
	// degrade to the grace division (which spills it) on overflow.
	if err := g.Dividend.Open(ctx); err != nil {
		return err
	}
	dividend := relation.New(dividendSch)
	if err := drainEvery(ctx, g.Dividend, g.Every, func(t relation.Tuple) error {
		if g.fb {
			return gd.addDividend(ctx, t)
		}
		fp := t.Footprint()
		err := g.Spill.Charge(fp)
		if err == nil {
			g.charged += fp
			dividend.InsertOwned(t)
			return nil
		}
		if !errors.Is(err, spill.ErrBudget) {
			return err
		}
		g.fb = true
		g.Spill.Release(g.charged)
		g.charged = 0
		for _, dt := range dividend.Tuples() {
			if err := gd.addDividend(ctx, dt); err != nil {
				return err
			}
		}
		dividend = nil
		return gd.addDividend(ctx, t)
	}); err != nil {
		return err
	}

	if err := g.Divisor.Open(ctx); err != nil {
		return err
	}
	w := g.Workers
	if w <= 0 {
		w = parallel.DefaultWorkers()
	}
	parts := make([]*relation.Relation, w)
	for i := range parts {
		parts[i] = relation.New(divisorSch)
	}
	hp := &hashPartitioner{pos: cPos, emit: func(t relation.Tuple, h uint64) error {
		if g.fb {
			return gd.addDivisor(t)
		}
		fp := t.Footprint()
		err := g.Spill.Charge(fp)
		if err == nil {
			g.charged += fp
			parts[int(h%uint64(w))].InsertOwned(t)
			return nil
		}
		if !errors.Is(err, spill.ErrBudget) {
			return err
		}
		// Budget hit while partitioning the divisor: hand everything
		// to the grace divider. It retains the divisor in memory, so a
		// divisor that genuinely cannot fit fails with a budget error.
		g.fb = true
		g.Spill.Release(g.charged)
		g.charged = 0
		for _, dt := range dividend.Tuples() {
			if err := gd.addDividend(ctx, dt); err != nil {
				return err
			}
		}
		dividend = nil
		for _, part := range parts {
			for _, pt := range part.Tuples() {
				if err := gd.addDivisor(pt); err != nil {
					return err
				}
			}
		}
		parts = nil
		return gd.addDivisor(t)
	}}
	if err := drainEvery(ctx, g.Divisor, g.Every, hp.add); err != nil {
		return err
	}
	if err := hp.flush(); err != nil {
		return err
	}
	if g.fb {
		if err := gd.finish(ctx); err != nil {
			return err
		}
		if g.TopKN > 0 {
			top, err := topKFromGrace(ctx, gd, g.TopKPos, g.TopKDesc, g.TopKN)
			if err != nil {
				return err
			}
			g.fallback, g.fPos, g.fbTopK = top, 0, true
		}
		return nil
	}
	live := parts[:0]
	for _, part := range parts {
		if !part.Empty() {
			live = append(live, part)
		}
	}
	if g.TopKN > 0 {
		g.ex = startTopKExchange(ctx, g.Buffer, g.BatchSize, g.TopKPos, g.TopKDesc, g.TopKN, g.Label, g.Stats,
			func(runCtx context.Context, bound parallel.TopKBound, emit parallel.EmitFunc) error {
				return parallel.GreatDividePartsStream(runCtx, algo, dividend, live, &bound, g.tuning(), emit)
			})
		return nil
	}
	g.ex = startExchange(ctx, g.Buffer, func(exCtx context.Context, send func([]relation.Tuple) error) error {
		return parallel.GreatDividePartsStream(exCtx, algo, dividend, live, nil, g.tuning(),
			func(part int, batch []relation.Tuple) error {
				if err := send(batch); err != nil {
					return err
				}
				g.Stats.count(partLabel(g.Label, part), int64(len(batch)))
				return nil
			})
	})
	return nil
}

// NextBatch implements BatchIterator: the workers' emission batches
// flow through untouched, capped by any armed row budget.
func (g *ParallelGreatDivideIter) NextBatch() (*relation.Batch, error) {
	if g.fbTopK {
		b := g.window(g.fallback, &g.fPos)
		if b != nil {
			g.Stats.count(g.Label, int64(b.Len()))
		}
		return b, nil
	}
	if g.fb {
		return graceBatch(g.grace, g.gctx, &g.windowBatcher, g.Stats, g.Label)
	}
	if g.ex == nil {
		return nil, errNotOpen("ParallelGreatDivideIter")
	}
	ts, err := g.ex.nextBatch(int(g.budget))
	if ts == nil {
		return nil, err
	}
	g.Stats.count(g.Label, int64(len(ts)))
	return g.adopt(ts), nil
}

// Close implements BatchIterator; see ParallelDivideIter.Close.
func (g *ParallelGreatDivideIter) Close() error {
	if g.ex != nil {
		g.ex.stop()
		g.ex = nil
	}
	if g.grace != nil {
		g.grace.close()
		g.grace = nil
	}
	g.Spill.Release(g.charged)
	g.charged = 0
	g.fallback, g.fb, g.fbTopK = nil, false, false
	g.release()
	err1 := g.Dividend.Close()
	err2 := g.Divisor.Close()
	if err1 != nil {
		return err1
	}
	return err2
}

// Schema implements BatchIterator. It is derived from the children's
// schemas so parents may call it before Open.
func (g *ParallelGreatDivideIter) Schema() schema.Schema {
	if g.out.Len() == 0 {
		split, err := division.GreatSplit(g.Dividend.Schema(), g.Divisor.Schema())
		if err != nil {
			panic(err)
		}
		g.out = split.A.Concat(split.C)
	}
	return g.out
}

// drainChild opens a child operator and materializes it, honoring
// ctx cancellation via the shared drain loop.
func drainChild(ctx context.Context, it BatchIterator, every int) (*relation.Relation, error) {
	if err := it.Open(ctx); err != nil {
		return nil, err
	}
	out := relation.New(it.Schema())
	if err := drainEvery(ctx, it, every, func(t relation.Tuple) error { out.InsertOwned(t); return nil }); err != nil {
		return nil, err
	}
	return out, nil
}

// partLabel names partition i of a parallel operator in Stats.
func partLabel(label string, i int) string {
	return label + "/part" + strconv.Itoa(i)
}
