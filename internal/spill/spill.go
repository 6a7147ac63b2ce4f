// Package spill is the shared memory-accounting and out-of-core layer
// behind the engine's per-query memory budget (WithMemoryLimit).
//
// A Tracker holds the budget: blocking operators Charge the
// approximate footprint of every tuple they retain and Release it when
// the state is dropped. A Charge that would exceed the budget fails
// with ErrBudget — the operator's cue to degrade out of core: sort
// spills sorted runs, hash division and hash join grace-hash partition
// their inputs to temp files and recurse per partition.
//
// Runs are the temp files themselves: framed sequences of tuples in
// the engine's injective key encoding (value.AppendKey /
// value.DecodeKey), written once and read back one or more times:
//
//	frame   = uvarint(len(payload)) payload
//	payload = uvarint(arity) value.AppendKey(v0) ... value.AppendKey(vn-1)
//
// The length prefix lets the reader slurp a whole frame before
// decoding, so a torn write surfaces as a framing error rather than a
// misparse; a length longer than the run, or an arity larger than the
// payload has bytes, is refused before it sizes anything. All runs
// live under a single lazily-created os.MkdirTemp directory that
// Tracker.Close removes, so a query tears down to an empty temp
// namespace on every exit path. I/O failures — including
// test-injected ones via FailWriteAfter/FailReadAfter — and corrupt
// frames surface as errors wrapping ErrIO, never as hangs, panics or
// partial results.
//
// Neither edge of a run costs a heap object per tuple. Append encodes
// into the run's reusable buffer and issues one Write. Run.Next
// returns the tuple borrowed — the run's own scratch slice, valid until
// the next Next on that run — which is all a consumer needs that
// copies what it keeps (the division states, repartitioning, the join
// probe, a sort-merge head while it waits). A consumer that retains
// the slice (the join build side, the merge when it emits) makes it
// owned by copying it into its relation.Slab, whose append-only
// GC-owned chunks keep it intact for as long as anyone holds it,
// across later reads, Rewind and Close. Either way every string is an
// ordinary, individually GC-owned Go string, so a retained value.Value
// never pins a buffer; repeats are served from the reading operator's
// StringCache, compared by bytes, so a hit allocates nothing.
//
// Charged to the tracker: the cache's slot array and the bytes of the
// strings it pins — sized from the budget and halved until the budget
// takes it, so a tight or full budget means a small cache or none,
// never an error — and, by the consumer, its slab's live chunk. Not
// charged: each open run's 32 KiB bufio buffer, its frame buffer (one
// frame long) and its one-tuple scratch.
package spill

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"slices"
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

// ErrIO wraps every spill-file I/O failure (create, write, read,
// seek), including injected ones, so callers can classify disk
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
	// Spilled is the total bytes written to spill files.
	Spilled int64
	// Runs is the number of spill files created (sort runs and hash
	// partitions alike).
	Runs int64
	// Partitions counts grace-hash partitioning passes: each time an
	// operator splits an over-budget input (or re-splits an
	// over-budget partition) this increments by one.
	Partitions int64
}

// Tracker enforces one query's memory budget and owns its spill
// directory. All methods are safe for concurrent use and nil-safe: a
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

	mu     sync.Mutex
	dir    string
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

// Dir returns the tracker's spill directory path, or "" if no run has
// been created yet (the directory is made lazily on first spill).
func (t *Tracker) Dir() string {
	if t == nil {
		return ""
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dir
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

// Close removes the spill directory and everything under it.
// Idempotent; safe to call with runs still open (on unix an unlinked
// file stays readable through its descriptor, so racing readers fail
// soft at worst). Returns the removal error, if any.
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
	if t.dir == "" {
		return nil
	}
	return os.RemoveAll(t.dir)
}

// runDir returns the spill directory, creating it on first use.
func (t *Tracker) runDir() (string, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return "", fmt.Errorf("%w: tracker closed", ErrIO)
	}
	if t.dir == "" {
		dir, err := os.MkdirTemp("", "divlaws-spill-*")
		if err != nil {
			return "", fmt.Errorf("%w: mkdir: %v", ErrIO, err)
		}
		t.dir = dir
	}
	return t.dir, nil
}

// runBufSize bounds the per-run buffer, keeping a k-way merge's
// resident footprint modest even with many runs open.
const runBufSize = 32 << 10

// maxFrame caps one tuple's frame: Append refuses to write a longer
// one and the reader refuses to believe one.
const maxFrame = 1 << 30

// A Run is one spill file: a write-once, read-back sequence of tuples
// in the injective key encoding. Typical life cycle: NewRun, Append
// until done, Rewind, Next until io.EOF, Close (which deletes the
// file). Rewind may be called again to re-read from the top. A Run is
// not safe for concurrent use.
type Run struct {
	t       *Tracker
	f       *os.File
	w       *bufio.Writer
	r       *bufio.Reader
	buf     []byte
	scratch relation.Tuple // the borrowed tuple Next returns
	size    int64          // bytes appended
	tuples  int64
	closed  bool
}

// NewRun creates a fresh spill file in the tracker's directory. It
// panics on a nil tracker: only budgeted queries spill.
func (t *Tracker) NewRun() (*Run, error) {
	if t == nil {
		panic("spill: NewRun on nil Tracker")
	}
	dir, err := t.runDir()
	if err != nil {
		return nil, err
	}
	f, err := os.CreateTemp(dir, "run-*")
	if err != nil {
		return nil, fmt.Errorf("%w: create run: %v", ErrIO, err)
	}
	t.runs.Add(1)
	t.liveRuns.Add(1)
	return &Run{t: t, f: f, w: bufio.NewWriterSize(f, runBufSize)}, nil
}

// Append writes one tuple frame (see the package comment). The payload
// is encoded behind a reserved header into which the length prefix is
// then written right-aligned, so the frame leaves in one Write.
func (r *Run) Append(t relation.Tuple) error {
	if r.closed || r.w == nil {
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
	if _, err := r.w.Write(frame); err != nil {
		return fmt.Errorf("%w: write: %v", ErrIO, err)
	}
	r.t.spilled.Add(int64(len(frame)))
	r.size += int64(len(frame))
	r.tuples++
	return nil
}

// Len returns the number of tuples appended so far.
func (r *Run) Len() int64 { return r.tuples }

// Rewind flushes any pending writes and positions the run for reading
// from the first tuple. After Rewind, Append is an error.
func (r *Run) Rewind() error {
	if r.closed {
		return fmt.Errorf("%w: rewind closed run", ErrIO)
	}
	if r.w != nil {
		if err := r.w.Flush(); err != nil {
			return fmt.Errorf("%w: flush: %v", ErrIO, err)
		}
		r.w = nil
	}
	if _, err := r.f.Seek(0, io.SeekStart); err != nil {
		return fmt.Errorf("%w: seek: %v", ErrIO, err)
	}
	if r.r == nil {
		r.r = bufio.NewReaderSize(r.f, runBufSize)
	} else {
		r.r.Reset(r.f)
	}
	return nil
}

// cacheMaxSlots caps the string cache, whose slot array (16-byte string
// headers) otherwise takes 1/32 of the budget: 2048 slots hold a
// partition's distinct keys on the benchmark's data.
const cacheMaxSlots = 2048

// A StringCache is a direct-mapped cache of recently decoded strings,
// owned by one reading operator and shared by the runs it reads, so
// that a repeated string costs a comparison, not an allocation. It is
// not safe for concurrent use. See the package comment for what is
// charged.
type StringCache struct {
	tr      *Tracker
	slots   []string // a power of two long; nil until the first string
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
// holds an equal string. A miss replaces the slot's string and settles
// the difference in pinned bytes (Charge and Release each ignore a
// non-positive amount, so one of them acts); if the budget refuses,
// the string is returned uncached.
func (c *StringCache) intern(b []byte) string {
	if c.slots == nil {
		c.slots = c.grow()
	}
	if len(c.slots) == 0 {
		return string(b)
	}
	slot := &c.slots[hashkey.Adjust(hashkey.Sum64(b))&uint64(len(c.slots)-1)]
	if *slot != string(b) {
		grow := int64(len(b) - len(*slot))
		if c.tr.Charge(grow) != nil {
			return string(b)
		}
		c.tr.Release(-grow)
		c.charged += grow
		*slot = string(b)
	}
	return *slot
}

// Next decodes the next tuple into the run's scratch and returns it
// borrowed: valid until the next Next on this run. Strings come from
// c. It returns io.EOF after the last tuple, or an error wrapping
// ErrIO on a read failure or a corrupt frame.
func (r *Run) Next(c *StringCache) (relation.Tuple, error) {
	if r.closed || r.r == nil {
		return nil, fmt.Errorf("%w: read on closed or write-mode run", ErrIO)
	}
	if countdown(&r.t.failRead) {
		return nil, fmt.Errorf("%w: injected read failure", ErrIO)
	}
	frameLen, err := binary.ReadUvarint(r.r)
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
	if _, err := io.ReadFull(r.r, r.buf); err != nil {
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

// Close closes and deletes the run's file. Idempotent.
func (r *Run) Close() error {
	if r == nil || r.closed {
		return nil
	}
	r.closed = true
	r.w, r.r = nil, nil
	name := r.f.Name()
	err := r.f.Close()
	if rmErr := os.Remove(name); err == nil && rmErr != nil && !os.IsNotExist(rmErr) {
		err = rmErr
	}
	r.t.liveRuns.Add(-1)
	if err != nil {
		return fmt.Errorf("%w: close run: %v", ErrIO, err)
	}
	return nil
}
