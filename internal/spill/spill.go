// Package spill is the shared memory-accounting and out-of-core layer
// behind the engine's per-query memory budget (WithMemoryLimit).
//
// A Tracker holds the budget: blocking operators Charge the
// approximate footprint of every tuple they retain and Release it when
// the state is dropped. A Charge that would exceed the budget fails
// with ErrBudget — the operator's cue to degrade out of core: sort
// spills sorted runs, hash division and hash join grace-hash partition
// their inputs into runs and recurse per partition.
//
// A run is a framed sequence of tuples in the engine's injective key
// encoding (value.AppendKey / value.DecodeKey), written once and read
// back one or more times:
//
//	frame   = uvarint(len(payload)) payload
//	payload = uvarint(arity) value.AppendKey(v0) ... value.AppendKey(vn-1)
//
// The length prefix lets the reader slurp a whole frame before
// decoding, so a torn write surfaces as a framing error rather than a
// misparse; a length longer than the run, or an arity larger than the
// payload has bytes, is refused before it sizes anything. A query's
// runs share one file that the Tracker makes on the first block
// written and unlinks at once, so no path outlives the query on any
// exit path, a crash included. A run is a chain of blockSize blocks in
// it, written and read with WriteAt/ReadAt through the run's one block
// buffer, so concurrent runs share the descriptor; a closed run's
// blocks go to the tracker's free list for the next, and its buffer to
// a package-wide pool that the next run to write takes from, in this
// query or a later one. I/O failures —
// including test-injected ones via FailWriteAfter/FailReadAfter — and
// corrupt frames surface as errors wrapping ErrIO, never as hangs,
// panics or partial results.
//
// Neither edge of a run costs a heap object per tuple. Append encodes
// into the run's frame buffer and copies it to the block. Run.Next
// returns the tuple borrowed — the run's own scratch slice, valid until
// the next Next on that run — which is all a consumer needs that
// copies what it keeps (the division states, repartitioning, the join
// probe, a sort-merge head while it waits). A consumer that retains
// the tuple or passes it on (the join build side, the merge when it
// emits) copies it into its relation.Slab. The slab's append-only GC-owned chunks keep
// it intact for as long as anyone holds it, across later reads, Rewind
// and Close, unless the operator's own consumer drops each batch before
// the next: then the operator rewinds one chunk per batch, as the merge
// under the root cursor does. Either way every string comes from the
// reading operator's StringCache, never from a run's buffers: a repeat
// is served from it, compared by bytes, so a hit allocates nothing; a
// miss is cut from the cache's live chunk, so misses cost one
// allocation per chunk, not per string. A retained string pins the
// chunk it was cut from, as a retained tuple pins its slab chunk.
//
// Charged to the tracker: the cache's slot array and the bytes of the
// strings its slots hold — sized from the budget and halved until the
// budget takes it, so a tight or full budget means a small cache or
// none, never an error — and, by the consumer, its slab's live chunk.
// Not charged: one block buffer (32 KiB) per open run that holds data,
// pooled across queries once the run closes, its frame buffer (one
// frame long) and its one-tuple scratch; and the string chunks beyond
// the bytes the slots hold: the live chunk's evicted strings and free
// tail, and every retired chunk, which a retained string keeps alive
// beyond what its holder's Footprint charges. Charging the whole live
// chunk up front instead left a spilled sort's merge no room for its
// slab when the last sort buffer had nearly filled the budget.
package spill

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"
	"sync"
	"sync/atomic"

	"divlaws/internal/hashkey"
	"divlaws/internal/relation"
	"divlaws/internal/value"
)

// ErrBudget is returned by Tracker.Charge when granting the request
// would exceed the query's memory limit. Operators that can spill
// treat it as a signal to go out of core; operators that cannot
// propagate it, and the root API surfaces it as
// divlaws.ErrMemoryBudget.
var ErrBudget = errors.New("memory budget exceeded")

// budgetError is Charge's refusal. Refusals are routine — every probe
// of a full budget makes one — so the message is formatted only when
// somebody reads it.
type budgetError struct{ limit, used, requested int64 }

func (e *budgetError) Error() string {
	return fmt.Sprintf("%v (limit %d bytes, %d in use, %d requested)", ErrBudget, e.limit, e.used, e.requested)
}

func (e *budgetError) Unwrap() error { return ErrBudget }

// ErrIO wraps every spill-file failure (create, write, read, close,
// corrupt frame), including injected ones, so callers can classify disk
// trouble on the spill path separately from query-logic errors.
var ErrIO = errors.New("spill I/O error")

// Stats is a point-in-time snapshot of a Tracker's accounting.
type Stats struct {
	// Limit is the budget in bytes (always > 0 for a live tracker).
	Limit int64
	// Used is the currently charged footprint.
	Used int64
	// Peak is the high-water mark of Used over the tracker's life.
	Peak int64
	// Spilled is the total bytes appended to runs.
	Spilled int64
	// Runs is the number of runs that held data (sort runs and hash
	// partitions alike): a run counts at its first successful Append.
	Runs int64
	// Partitions counts grace-hash partitioning passes: each time an
	// operator splits an over-budget input (or re-splits an
	// over-budget partition) this increments by one.
	Partitions int64
}

// Tracker enforces one query's memory budget and owns its spill
// file. All methods are safe for concurrent use and nil-safe: a
// nil *Tracker is the unlimited budget — Charge always succeeds,
// Release is a no-op — so operators charge unconditionally.
type Tracker struct {
	limit int64

	used atomic.Int64
	peak atomic.Int64

	spilled    atomic.Int64
	runs       atomic.Int64
	partitions atomic.Int64
	liveRuns   atomic.Int64

	failWrite atomic.Int64 // countdown to injected write failure; <=0 disabled
	failRead  atomic.Int64 // countdown to injected read failure; <=0 disabled

	mu     sync.Mutex // guards the rest
	f      *os.File   // the spill file, nil until the first block is written
	blocks int64      // blocks the file holds
	free   []int64    // offsets of the blocks closed runs gave back
	closed bool
}

// NewTracker builds a tracker enforcing a budget of limit bytes.
// limit <= 0 returns nil: the unlimited tracker.
func NewTracker(limit int64) *Tracker {
	if limit <= 0 {
		return nil
	}
	return &Tracker{limit: limit}
}

// Limit returns the budget in bytes, or 0 for the nil (unlimited)
// tracker.
func (t *Tracker) Limit() int64 {
	if t == nil {
		return 0
	}
	return t.limit
}

// Charge reserves n bytes of the budget, failing with an error
// wrapping ErrBudget — and reserving nothing — if the reservation
// would exceed the limit. A nil tracker always succeeds.
func (t *Tracker) Charge(n int64) error {
	if t == nil || n <= 0 {
		return nil
	}
	for {
		used := t.used.Load()
		if used+n > t.limit {
			return &budgetError{limit: t.limit, used: used, requested: n}
		}
		if t.used.CompareAndSwap(used, used+n) {
			for {
				p := t.peak.Load()
				if used+n <= p || t.peak.CompareAndSwap(p, used+n) {
					return nil
				}
			}
		}
	}
}

// Release returns n previously charged bytes to the budget.
func (t *Tracker) Release(n int64) {
	if t == nil || n <= 0 {
		return
	}
	t.used.Add(-n)
}

// AddPartitions records grace-hash partitioning passes for Stats.
func (t *Tracker) AddPartitions(n int64) {
	if t != nil {
		t.partitions.Add(n)
	}
}

// Snapshot returns the tracker's current accounting; the zero Stats
// for a nil tracker.
func (t *Tracker) Snapshot() Stats {
	if t == nil {
		return Stats{}
	}
	return Stats{
		Limit:      t.limit,
		Used:       t.used.Load(),
		Peak:       t.peak.Load(),
		Spilled:    t.spilled.Load(),
		Runs:       t.runs.Load(),
		Partitions: t.partitions.Load(),
	}
}

// LiveRuns returns the number of runs created and not yet closed —
// the invariant leak tests assert returns to zero on every teardown
// path.
func (t *Tracker) LiveRuns() int64 {
	if t == nil {
		return 0
	}
	return t.liveRuns.Load()
}

// FailWriteAfter arms fault injection: the n-th subsequent run write
// (1-based, counted across all runs) fails with an error wrapping
// ErrIO. n <= 0 disarms.
func (t *Tracker) FailWriteAfter(n int64) {
	if t != nil {
		t.failWrite.Store(n)
	}
}

// FailReadAfter arms fault injection: the n-th subsequent run read
// fails with an error wrapping ErrIO. n <= 0 disarms.
func (t *Tracker) FailReadAfter(n int64) {
	if t != nil {
		t.failRead.Store(n)
	}
}

// countdown decrements c if positive and reports whether it just hit
// zero — i.e. whether this call is the armed n-th event.
func countdown(c *atomic.Int64) bool {
	for {
		v := c.Load()
		if v <= 0 {
			return false
		}
		if c.CompareAndSwap(v, v-1) {
			return v == 1
		}
	}
}

// Close closes the spill file. Idempotent; safe to call with runs
// still open: their later reads and writes fail with ErrIO.
func (t *Tracker) Close() error {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return nil
	}
	t.closed = true
	if t.f == nil {
		return nil
	}
	if err := t.f.Close(); err != nil {
		return fmt.Errorf("%w: close spill file: %v", ErrIO, err)
	}
	return nil
}

// allocBlock returns the offset of a free block of the spill file,
// making and unlinking the file on first use.
func (t *Tracker) allocBlock() (int64, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return 0, fmt.Errorf("%w: tracker closed", ErrIO)
	}
	if n := len(t.free); n > 0 {
		off := t.free[n-1]
		t.free = t.free[:n-1]
		return off, nil
	}
	if t.f == nil {
		f, err := os.CreateTemp("", "divlaws-spill-*")
		if err != nil {
			return 0, fmt.Errorf("%w: create spill file: %v", ErrIO, err)
		}
		if err := os.Remove(f.Name()); err != nil {
			f.Close()
			return 0, fmt.Errorf("%w: unlink spill file: %v", ErrIO, err)
		}
		t.f = f
	}
	t.blocks++
	return (t.blocks - 1) * blockSize, nil
}

// blockSize is the unit a run writes and reads, and the size of its
// one buffer: small enough for a k-way merge to keep many runs open.
const blockSize = 32 << 10

// blockPool holds the block buffers of closed runs for the next run
// to write, in this query or a later one: within a query every run of
// a fan-out or a merge is open at once, so reuse comes across queries.
var blockPool = sync.Pool{New: func() any { return new([blockSize]byte) }}

// maxFrame caps one tuple's frame: Append refuses to write a longer
// one and the reader refuses to believe one.
const maxFrame = 1 << 30

// A Run is a write-once, read-back sequence of tuples in the injective
// key encoding, a chain of blocks in the tracker's spill file. Typical
// life cycle: NewRun, Append until done, Rewind, Next until io.EOF,
// Close (which frees the blocks). Rewind may be called again to re-read
// from the top. A run that stays empty, as most partitions of a deep
// grace-hash split do, costs no block and no buffer. A Run is not safe
// for concurrent use.
type Run struct {
	t       *Tracker
	blocks  []int64        // the file offsets of the run's written blocks, in order
	block   []byte         // writing: the tail being filled; reading: the block loaded
	pos     int            // reading: the next byte of block
	next    int            // reading: the index of the next block to load
	buf     []byte         // one frame, encoded or read
	scratch relation.Tuple // the borrowed tuple Next returns
	size    int64          // bytes appended
	tuples  int64
	read    bool // rewound: Append is refused
	closed  bool
}

// NewRun returns a fresh run on the tracker's spill file (see Run). It
// panics on a nil tracker: only budgeted queries spill.
func (t *Tracker) NewRun() (*Run, error) {
	if t == nil {
		panic("spill: NewRun on nil Tracker")
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return nil, fmt.Errorf("%w: tracker closed", ErrIO)
	}
	t.liveRuns.Add(1)
	return &Run{t: t}, nil
}

// Append writes one tuple frame (see the package comment). The payload
// is encoded behind a reserved header into which the length prefix is
// then written right-aligned, so the frame is copied out in one piece.
func (r *Run) Append(t relation.Tuple) error {
	if r.closed || r.read {
		return fmt.Errorf("%w: append to closed or read-mode run", ErrIO)
	}
	if countdown(&r.t.failWrite) {
		return fmt.Errorf("%w: injected write failure", ErrIO)
	}
	const hdr = binary.MaxVarintLen64
	b := append(r.buf[:0], make([]byte, hdr)...)
	b = binary.AppendUvarint(b, uint64(len(t)))
	b = t.AppendKey(b)
	r.buf = b
	var prefix [hdr]byte
	n := binary.PutUvarint(prefix[:], uint64(len(b)-hdr))
	frame := b[hdr-n:]
	copy(frame, prefix[:n])
	if len(frame) > maxFrame {
		return fmt.Errorf("%w: %d-byte tuple is too large to spill", ErrIO, len(frame))
	}
	if err := r.write(frame); err != nil {
		return err
	}
	if r.tuples == 0 {
		r.t.runs.Add(1)
	}
	r.tuples++
	return nil
}

// write appends p to the run, writing each block out as it fills.
func (r *Run) write(p []byte) error {
	if r.block == nil {
		r.block = blockPool.Get().(*[blockSize]byte)[:0]
	}
	for len(p) > 0 {
		if len(r.block) == blockSize {
			if err := r.flush(); err != nil {
				return err
			}
		}
		n := copy(r.block[len(r.block):blockSize], p)
		r.block, p = r.block[:len(r.block)+n], p[n:]
		r.size += int64(n)
		r.t.spilled.Add(int64(n))
	}
	return nil
}

// flush writes the block buffer out as the run's next block.
func (r *Run) flush() error {
	off, err := r.t.allocBlock()
	if err != nil {
		return err
	}
	r.blocks = append(r.blocks, off)
	if _, err := r.t.f.WriteAt(r.block, off); err != nil {
		return fmt.Errorf("%w: write: %v", ErrIO, err)
	}
	r.block = r.block[:0]
	return nil
}

// Len returns the number of tuples appended so far.
func (r *Run) Len() int64 { return r.tuples }

// Rewind writes out the tail block and positions the run for reading
// from the first tuple. After Rewind, Append is an error.
func (r *Run) Rewind() error {
	if r.closed {
		return fmt.Errorf("%w: rewind closed run", ErrIO)
	}
	if !r.read && len(r.block) > 0 {
		if err := r.flush(); err != nil {
			return err
		}
	}
	r.read = true
	r.block, r.pos, r.next = r.block[:0], 0, 0
	return nil
}

// ReadByte and Read serve the frame reader from the loaded block,
// loading the next one as it runs out.
func (r *Run) ReadByte() (byte, error) {
	if r.pos == len(r.block) {
		if err := r.load(); err != nil {
			return 0, err
		}
	}
	r.pos++
	return r.block[r.pos-1], nil
}

func (r *Run) Read(p []byte) (int, error) {
	if r.pos == len(r.block) {
		if err := r.load(); err != nil {
			return 0, err
		}
	}
	n := copy(p, r.block[r.pos:])
	r.pos += n
	return n, nil
}

// load reads the run's next block into the buffer (the last holds
// what is left of the run), or returns io.EOF after the last.
func (r *Run) load() error {
	if r.next == len(r.blocks) {
		return io.EOF
	}
	n := min(blockSize, r.size-int64(r.next)*blockSize)
	if _, err := r.t.f.ReadAt(r.block[:n], r.blocks[r.next]); err != nil {
		// %v, not %w: a short read is a damaged run, not its end.
		return fmt.Errorf("read block: %v", err)
	}
	r.block, r.pos, r.next = r.block[:n], 0, r.next+1
	return nil
}

// cacheMaxSlots caps the string cache, whose slot array (16-byte string
// headers) otherwise takes 1/32 of the budget; its chunk holds as many
// bytes. On the benchmark's out-of-core data about a third of the
// strings decoded miss it: a partition's or a merge's distinct values
// outnumber the slots.
const cacheMaxSlots = 2048

// A StringCache is a direct-mapped cache of recently decoded strings,
// owned by one reading operator and shared by the runs it reads, so
// that a repeated string costs a comparison, not an allocation. A miss
// copies its bytes into the cache's live chunk and is a substring of
// it; when the chunk is full the cache starts another, so misses cost
// an allocation per chunk, not per string. A retired chunk belongs to
// the strings cut from it: its bytes are never written again, and it
// lives as long as any of them. It is not safe for concurrent use. See
// the package comment for what is charged.
type StringCache struct {
	tr      *Tracker
	slots   []string        // a power of two long; nil until the first string
	chunk   strings.Builder // the live chunk, len(slots)*16 bytes: the slots' strings are cut from it
	charged int64
}

// NewStringCache returns an empty cache charging t.
func (t *Tracker) NewStringCache() *StringCache { return &StringCache{tr: t} }

// Close returns the cache's charge; strings it handed out stay valid.
// Nil-safe and idempotent.
func (c *StringCache) Close() {
	if c != nil {
		c.tr.Release(c.charged)
		c.charged, c.slots = 0, []string{}
		c.chunk.Reset()
	}
}

// grow builds the slot array when the first string is decoded — runs
// of numbers never pay for one — halving it until the budget takes it.
// A refusing budget gets no slots.
func (c *StringCache) grow() []string {
	n := int64(cacheMaxSlots)
	for n*16 > c.tr.limit/32 {
		n /= 2
	}
	for ; n > 0; n /= 2 {
		if c.tr.Charge(n*16) == nil {
			c.charged += n * 16
			return make([]string, n)
		}
	}
	return []string{}
}

// intern returns string(b), the cached one when the slot b hashes to
// holds an equal string. A miss cuts the string from the live chunk,
// retiring the chunk first if the string does not fit (the first miss
// makes the first chunk that way), replaces the slot's string and
// settles the difference in pinned bytes (Charge and Release each
// ignore a non-positive amount, so one of them acts). A string longer
// than 1/8 of a chunk, any string when the cache has no slots, and a
// miss the budget refuses are allocated on their own and not cached.
func (c *StringCache) intern(b []byte) string {
	if c.slots == nil {
		c.slots = c.grow()
	}
	if len(b) == 0 || len(b) > len(c.slots)*16/8 {
		return string(b)
	}
	slot := &c.slots[hashkey.Adjust(hashkey.Sum64(b))&uint64(len(c.slots)-1)]
	if *slot != string(b) {
		if c.chunk.Len()+len(b) > c.chunk.Cap() {
			// Retire the chunk to the strings cut from it: empty the
			// slots, which point into it, and give back what they pinned.
			pinned := c.charged - int64(len(c.slots)*16)
			c.tr.Release(pinned)
			c.charged -= pinned
			clear(c.slots)
			c.chunk.Reset()
			c.chunk.Grow(len(c.slots) * 16)
		}
		grow := int64(len(b) - len(*slot))
		if c.tr.Charge(grow) != nil {
			return string(b)
		}
		c.tr.Release(-grow)
		c.charged += grow
		c.chunk.Write(b)
		s := c.chunk.String()
		*slot = s[len(s)-len(b):]
	}
	return *slot
}

// Next decodes the next tuple into the run's scratch and returns it
// borrowed: valid until the next Next on this run. Strings come from
// c. It returns io.EOF after the last tuple, or an error wrapping
// ErrIO on a read failure or a corrupt frame.
func (r *Run) Next(c *StringCache) (relation.Tuple, error) {
	if r.closed || !r.read {
		return nil, fmt.Errorf("%w: read on closed or write-mode run", ErrIO)
	}
	if countdown(&r.t.failRead) {
		return nil, fmt.Errorf("%w: injected read failure", ErrIO)
	}
	frameLen, err := binary.ReadUvarint(r)
	if err == io.EOF {
		return nil, io.EOF
	}
	if err != nil {
		return nil, fmt.Errorf("%w: read frame length: %v", ErrIO, err)
	}
	if frameLen > maxFrame || frameLen > uint64(r.size) {
		return nil, fmt.Errorf("%w: frame length %d in a run of %d bytes", ErrIO, frameLen, r.size)
	}
	r.buf = slices.Grow(r.buf[:0], int(frameLen))[:frameLen]
	if _, err := io.ReadFull(r, r.buf); err != nil {
		return nil, fmt.Errorf("%w: read frame: %v", ErrIO, err)
	}
	arity, used := binary.Uvarint(r.buf)
	// Every value is at least its kind byte.
	if used <= 0 || arity > uint64(len(r.buf)-used) {
		return nil, fmt.Errorf("%w: bad frame arity", ErrIO)
	}
	rest, intern := r.buf[used:], c.intern
	r.scratch = slices.Grow(r.scratch[:0], int(arity))[:arity]
	for i := range r.scratch {
		if r.scratch[i], rest, err = value.DecodeKey(rest, intern); err != nil {
			return nil, fmt.Errorf("%w: decode tuple: %v", ErrIO, err)
		}
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes in frame", ErrIO, len(rest))
	}
	return r.scratch, nil
}

// Close gives the run's blocks back to the tracker and its buffer back
// to the pool. Idempotent.
func (r *Run) Close() error {
	if r == nil || r.closed {
		return nil
	}
	r.closed = true
	r.t.liveRuns.Add(-1)
	r.t.mu.Lock()
	r.t.free = append(r.t.free, r.blocks...)
	r.t.mu.Unlock()
	if r.block != nil {
		blockPool.Put((*[blockSize]byte)(r.block[:blockSize]))
	}
	r.blocks, r.block = nil, nil
	return nil
}
