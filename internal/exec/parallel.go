package exec

import (
	"context"
	"strconv"
	"sync"

	"divlaws/internal/relation"
)

// DefaultExchangeBuffer is the capacity, in tuple batches of up to
// the operator's batch size, of the bounded channel between a streaming
// exchange's partition workers and its consumer. The bound is the
// backpressure mechanism: workers that outrun the consumer block on
// the channel instead of materializing the whole quotient, so an
// early-exiting parent (LIMIT, Rows.Close) leaves most of the
// quotient uncomputed.
const DefaultExchangeBuffer = 16

// partitionGate, when non-nil, is called by a division worker with a
// partition's index just before it starts dividing that partition. It
// exists only for tests, which block chosen partitions to prove that
// streaming consumers observe other partitions' quotients first.
var partitionGate func(part int)

// SetPartitionGateForTesting installs a hook called by a division
// worker (with the partition index) before it divides a partition, and
// returns a function restoring the previous hook. Tests use it to
// stall selected partitions deterministically; not for concurrent use
// with other tests mutating the gate.
func SetPartitionGateForTesting(fn func(part int)) (restore func()) {
	old := partitionGate
	partitionGate = fn
	return func() { partitionGate = old }
}

// exchange owns the worker fan-out of a streaming exchange operator:
// one goroutine per worker, a bounded batch channel they feed, and
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
// cancellation. When every worker has succeeded, the last one, i =
// last, runs finish with the same context and send before the channel
// closes.
func startExchange(ctx context.Context, buffer, n int,
	work func(ctx context.Context, i int, send func([]relation.Tuple) error) error,
	finish func(ctx context.Context, last int, send func([]relation.Tuple) error) error) *exchange {
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
			if ex.err == nil {
				ex.err = finish(exCtx, i, send)
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
