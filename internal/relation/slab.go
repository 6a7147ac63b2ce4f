package relation

import "divlaws/internal/value"

// Slab chunk sizing, in value slots. Chunks start small and double up
// to the cap: a 1024-slot chunk is ~32 KiB at 32 accounted bytes per
// slot — large enough that chunk turnover vanishes from emit-path
// profiles — but charging 32 KiB up front against a tight spill
// budget (the default spill-sweep limit is 64 KiB) would crowd out
// the build side and force extra partitioning, so short-lived or
// tightly budgeted iterators only ever pay for small chunks. With
// doubling, total over-allocation is bounded by the last chunk; a
// 64-slot first chunk (2 KiB) keeps emit-light queries cheap while
// reaching the cap in four refills, and measured strictly fewer
// bytes per join than a smaller start (more, smaller chunks cost
// more in chunk turnover than they save in tail waste).
const (
	slabFirstChunkValues = 64
	slabMaxChunkValues   = 1024
)

// slabChargeBackoff is how many Allocs a slab waits before retrying a
// refused budget charge, so a hard-refusing tracker is not probed
// under its mutex on every emitted tuple.
const slabChargeBackoff = 64

// slabValueBytes is the accounted heap cost per value slot, matching
// the struct size value.Value's Footprint uses.
const slabValueBytes = 32

// Slab is a bump allocator for emitted tuples — the join, product,
// and theta-join emit paths, and the sort merge's copies of spilled
// rows, carve each output tuple out of a shared chunk instead of
// paying one make per Concat.
//
// Lifetime rule: chunks are append-only and GC-owned. A full chunk is
// retired by dropping the slab's reference to it, never by resetting
// it, so every tuple ever sliced out stays valid for as long as its
// consumer holds it — emitted tuples are immutable and are never
// invalidated by later slab activity. The cost is that a retired
// chunk lives until its last tuple does, which is exactly the
// lifetime the tuples themselves need.
//
// The one exception is Rewind, for an owner whose tuples are
// borrowed: its consumer drops each tuple before asking for the next
// batch, so the owner rewinds at the top of every batch and the live
// chunk is carved again from offset 0, overwriting the tuples the
// previous batch was served. The borrowed product, hash join and
// spilled sort's merge do this. Close never overwrites: it only drops
// the chunk, so tuples carved before a Close stay valid.
//
// The zero Slab is ready to use and unaccounted. Setting Charge and
// Release (before first use) accounts the live chunk's bytes against
// a memory budget: the previous chunk's charge is released when it is
// retired — its memory now belongs to the emitted tuples, which
// downstream buffering operators account themselves — so at most one
// chunk is ever charged. If Charge refuses a fresh chunk, Alloc
// degrades to exact per-tuple uncharged allocations and retries the
// budget on the next refill, preserving spill-vs-unlimited output
// equivalence under any budget.
//
// A Slab is not safe for concurrent use; each iterator owns its own.
type Slab struct {
	Charge  func(int64) error
	Release func(int64)
	// MaxValues, when positive, replaces the default 1024-value cap on
	// chunk growth: the sort merge, filled while the budget may be
	// nearly full, caps its chunks at one batch of rows.
	MaxValues int

	chunk   []value.Value
	off     int
	charged int64
	nextCap int
	backoff int // Allocs to skip before retrying a refused Charge
}

// Alloc returns a tuple of n values carved from the live chunk:
// zeroed on a fresh chunk, stale after a Rewind, so callers set every
// slot. The tuple's capacity is clipped to its length, so appends by
// the caller can never bleed into neighboring tuples.
func (s *Slab) Alloc(n int) Tuple {
	if s.off+n > len(s.chunk) {
		if !s.refill(n) {
			return make(Tuple, n)
		}
	}
	t := Tuple(s.chunk[s.off : s.off+n : s.off+n])
	s.off += n
	return t
}

// refill retires the live chunk and charges a fresh one, reporting
// whether the budget allowed it.
func (s *Slab) refill(n int) bool {
	limit := slabMaxChunkValues
	if s.MaxValues > 0 {
		limit = s.MaxValues
	}
	c := s.nextCap
	if c == 0 {
		c = min(slabFirstChunkValues, limit)
	}
	if n > c {
		c = n
	}
	s.nextCap = min(2*c, limit)
	bytes := int64(c) * slabValueBytes
	if s.Charge != nil {
		if s.backoff > 0 {
			s.backoff--
			return false
		}
		if err := s.Charge(bytes); err != nil {
			// Budget refused: don't hammer the tracker on every Alloc —
			// retry after a few dozen fallback tuples.
			s.backoff = slabChargeBackoff
			return false
		}
		if s.charged > 0 {
			s.Release(s.charged)
		}
		s.charged = bytes
	}
	s.chunk = make([]value.Value, c)
	s.off = 0
	return true
}

// Concat returns a⧺b allocated from the slab — the slab form of
// Tuple.Concat.
func (s *Slab) Concat(a, b Tuple) Tuple {
	t := s.Alloc(len(a) + len(b))
	copy(t, a)
	copy(t[len(a):], b)
	return t
}

// ConcatProj returns a⧺b[pos...] allocated from the slab — the slab
// form of Tuple.ConcatProj.
func (s *Slab) ConcatProj(a, b Tuple, pos []int) Tuple {
	t := s.Alloc(len(a) + len(pos))
	copy(t, a)
	for i, p := range pos {
		t[len(a)+i] = b[p]
	}
	return t
}

// Rewind makes the whole live chunk free again from offset 0, so the
// next Allocs overwrite every tuple carved from it since it became
// live. Only an owner whose consumers have dropped all of those tuples
// may call it (see the lifetime rule). The chunk keeps its budget
// charge; retired chunks are not reclaimed.
func (s *Slab) Rewind() { s.off = 0 }

// Close releases the live chunk's budget charge and drops the chunk,
// returning the slab to its initial small-chunk state. Tuples already
// allocated remain valid (the chunk is GC-owned); the slab itself is
// reusable afterwards. Budgeted iterators call Close whenever they
// release the rest of their charge — e.g. between grace-join
// partitions — so a slab never squats on a tight budget across
// phases.
func (s *Slab) Close() {
	if s.charged > 0 {
		s.Release(s.charged)
		s.charged = 0
	}
	s.chunk, s.off, s.nextCap, s.backoff = nil, 0, 0, 0
}
