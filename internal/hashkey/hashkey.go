// Package hashkey is the engine's 64-bit hashing layer: wide
// (word-at-a-time) primitives that fold a tuple's injective key
// encoding into a uint64 without materializing it, an open-addressed
// hash table that maps hashes to small integer handles, and the
// bitmap used by the hash-division operators.
//
// The table never stores keys. Callers keep their own tuple storage,
// store indexes into it as table values, and verify every candidate a
// probe returns against that storage, so results stay exact even when
// hashes collide. SetMaskForTesting degrades every hash to a few bits
// to force collisions and exercise that verification.
package hashkey

import (
	"encoding/binary"
	"sync/atomic"
)

// offset64 is the FNV-1a offset basis, kept as the initial hash state
// so an empty input hashes to a well-known nonzero constant.
const offset64 = 14695981039346656037

// prime64 is the FNV-1a prime, used only by the byte-at-a-time
// AddByte fallback.
const prime64 = 1099511628211

// 64-bit finalizer constants (Murmur3 fmix64), used by the
// word-at-a-time mixer in AddUint64.
const (
	mix64a = 0xff51afd7ed558ccd
	mix64b = 0xc4ceb9fe1a85ec53
)

// New returns the initial hash state.
func New() uint64 { return offset64 }

// AddByte folds one byte into h (one FNV-1a round). It survives as
// the odd-byte fallback; the hot paths fold whole words through
// AddUint64 instead.
func AddByte(h uint64, b byte) uint64 { return (h ^ uint64(b)) * prime64 }

// AddUint64 folds a 64-bit payload into h in one multiply–xorshift
// round (the Murmur3 finalizer applied to h^u) instead of eight
// serial AddByte steps. Every tuple field — and every string's tail
// round — funnels through here, so its latency sets the per-row
// floor of every hash operator's probe phase; two data-independent
// multiplies beat FNV's eight dependent ones while mixing at least
// as well — the finalizer avalanches every input bit into every
// output bit, which the open-addressed Table needs because it
// derives slots from the low bits. (Interior string chunks use the
// cheaper chunkPrime fold; see AddString.)
func AddUint64(h uint64, u uint64) uint64 {
	h ^= u
	h ^= h >> 33
	h *= mix64a
	h ^= h >> 33
	h *= mix64b
	h ^= h >> 33
	return h
}

// chunkPrime is the odd multiplier of the interior chunk fold in
// AddString/AddBytes (2⁶⁴/φ). Because it is odd, each chunk round
// h′ = (h ⊕ chunk)·chunkPrime is a bijection of the state, so no
// entropy is ever lost along a string — two strings with a differing
// chunk keep differing states all the way to the tail round.
const chunkPrime = 0x9E3779B97F4A7C15

// AddString folds the bytes of s into h word-at-a-time: full 8-byte
// little-endian chunks each cost one xor-multiply round, and a single
// length-fold tail round absorbs the remaining 0–7 bytes together
// with the byte length. The interior rounds are deliberately cheaper
// than AddUint64 — a full finalizer per chunk triples the latency
// chain of a long key for avalanche nobody reads, since only the
// final state reaches a Table. The tail round IS a full AddUint64,
// so the returned hash is always finalizer-avalanched no matter how
// the chunks mixed, which the open-addressed Table needs because it
// derives slots from the low bits. Folding the length into the tail
// keeps zero-padding pairs ("a" vs "a\x00") apart: the tail word
// carries the residual bytes in its low 56 bits and len(s) mod 256
// in its top byte, and inputs whose lengths differ by 8 or more
// already differ in chunk count. AddString(h, s) ==
// AddBytes(h, []byte(s)) for equal contents, always.
func AddString(h uint64, s string) uint64 {
	n := len(s)
	for len(s) >= 8 {
		h = (h ^ le64String(s)) * chunkPrime
		s = s[8:]
	}
	var tail uint64
	switch {
	case len(s) >= 4:
		// Two overlapping 4-byte reads cover 4–7 residual bytes
		// without a per-byte loop. Overlapping positions OR equal
		// values, so the packed word reproduces the bytes exactly —
		// injective for each length, and the length byte separates
		// the lengths.
		k := len(s) - 4
		lo := uint64(s[0]) | uint64(s[1])<<8 | uint64(s[2])<<16 | uint64(s[3])<<24
		hi := uint64(s[k]) | uint64(s[k+1])<<8 | uint64(s[k+2])<<16 | uint64(s[k+3])<<24
		tail = lo | hi<<(8*uint(k))
	case len(s) > 0:
		// 1–3 bytes: first, middle, last — distinct packings per
		// length once the length byte is folded in.
		tail = uint64(s[0]) | uint64(s[len(s)/2])<<8 | uint64(s[len(s)-1])<<16
	}
	return AddUint64(h, tail|uint64(n)<<56)
}

// AddBytes folds b into h, chunked and tail-packed exactly like
// AddString.
func AddBytes(h uint64, b []byte) uint64 {
	n := len(b)
	for len(b) >= 8 {
		h = (h ^ binary.LittleEndian.Uint64(b)) * chunkPrime
		b = b[8:]
	}
	var tail uint64
	switch {
	case len(b) >= 4:
		k := len(b) - 4
		lo := uint64(binary.LittleEndian.Uint32(b))
		hi := uint64(binary.LittleEndian.Uint32(b[k:]))
		tail = lo | hi<<(8*uint(k))
	case len(b) > 0:
		tail = uint64(b[0]) | uint64(b[len(b)/2])<<8 | uint64(b[len(b)-1])<<16
	}
	return AddUint64(h, tail|uint64(n)<<56)
}

// le64String reads the first 8 bytes of s as a little-endian word —
// the string twin of binary.LittleEndian.Uint64, written so the
// compiler collapses it to a single load on little-endian targets.
func le64String(s string) uint64 {
	_ = s[7]
	return uint64(s[0]) | uint64(s[1])<<8 | uint64(s[2])<<16 | uint64(s[3])<<24 |
		uint64(s[4])<<32 | uint64(s[5])<<40 | uint64(s[6])<<48 | uint64(s[7])<<56
}

// Sum64 returns the wide-kernel hash of b.
func Sum64(b []byte) uint64 { return AddBytes(New(), b) }

// Sum64String returns the wide-kernel hash of s, equal to Sum64 of
// the same bytes.
func Sum64String(s string) uint64 { return AddString(New(), s) }

// testMask, when nonzero, is ANDed onto every hash entering a Table,
// collapsing the hash space so collisions become routine. It exists
// only for tests; see SetMaskForTesting.
var testMask atomic.Uint64

// SetMaskForTesting makes every Table degrade hashes to h & m,
// forcing collisions so tests can prove the verification paths keep
// results exact. It returns a function restoring the previous mask.
// Not for concurrent use with other tests mutating the mask.
func SetMaskForTesting(m uint64) (restore func()) {
	old := testMask.Swap(m)
	return func() { testMask.Store(old) }
}

// Adjust applies the test mask to h. Table does so on every probe;
// any other hash-indexed structure that tests must be able to force
// collisions in (the spill reader's string cache) calls it too.
func Adjust(h uint64) uint64 {
	if m := testMask.Load(); m != 0 {
		return h & m
	}
	return h
}

const minCap = 16

// Table is an open-addressed, linear-probing hash table mapping
// 64-bit hashes to caller-side integer handles (indexes into the
// caller's storage, at most 1<<31-1). Only the low 32 bits of each
// hash are stored as the slot tag — the low bits also derive the
// slot, so growth re-slots correctly, and a narrower tag merely lets
// the occasional unequal key through to the caller's verification,
// which runs on every candidate anyway. Several entries may share a
// tag: Probe walks all of them and the caller tells equal keys
// apart. The zero Table is empty and ready to use; it grows at 3/4
// load and never shrinks.
type Table struct {
	tags []uint32
	vals []int32
	n    int
}

// Len returns the number of stored entries.
func (t *Table) Len() int { return t.n }

// Bytes returns the heap footprint of the table's backing arrays
// (4 bytes per tag slot + 4 per value slot), for memory-budget
// accounting. It jumps when the table grows and never shrinks, like
// the arrays themselves.
func (t *Table) Bytes() int64 {
	return int64(len(t.tags))*4 + int64(len(t.vals))*4
}

// Reset discards all entries, keeping the allocated capacity.
func (t *Table) Reset() {
	for i := range t.vals {
		t.vals[i] = -1
	}
	t.n = 0
}

func (t *Table) alloc(c int) {
	t.tags = make([]uint32, c)
	t.vals = make([]int32, c)
	for i := range t.vals {
		t.vals[i] = -1
	}
}

// Probe starts a lookup for hash h. Call Next until it reports no
// more candidates; Insert may then add a value under h. Probe and
// Next allocate nothing.
func (t *Table) Probe(h uint64) Probe {
	tag := uint32(Adjust(h))
	p := Probe{t: t, tag: tag}
	if len(t.vals) > 0 {
		p.i = uint64(tag) & uint64(len(t.vals)-1)
	} else {
		p.empty = true
	}
	return p
}

// Probe is an in-progress lookup over a Table. It is a value type;
// it must not outlive the next Insert on its table.
type Probe struct {
	t     *Table
	tag   uint32
	i     uint64
	empty bool // table had no slots when the probe started
}

// Next returns the next candidate value stored under the probed
// hash; ok is false once an empty slot ends the probe. The caller
// must verify the candidate's key, as different keys can hash alike.
func (p *Probe) Next() (val int, ok bool) {
	if p.empty {
		return 0, false
	}
	t := p.t
	mask := uint64(len(t.vals) - 1)
	for {
		v := t.vals[p.i]
		if v < 0 {
			return 0, false
		}
		match := t.tags[p.i] == p.tag
		p.i = (p.i + 1) & mask
		if match {
			return int(v), true
		}
	}
}

// Insert stores val under the probed hash. It must only be called
// after Next has reported no more candidates — the probe then rests
// on an empty slot and the caller has verified the key is absent.
func (p *Probe) Insert(val int) {
	t := p.t
	if (t.n+1)*4 > len(t.vals)*3 {
		t.grow()
		t.insert(p.tag, val)
		return
	}
	// Next leaves p.i one past the returned candidate, so the empty
	// slot that ended the probe is p.i itself only when the probe
	// stopped there; re-derive it by walking from p.i (it is empty or
	// the walk is short — Insert is the cold path of a miss).
	i := p.i
	mask := uint64(len(t.vals) - 1)
	for t.vals[i] >= 0 {
		i = (i + 1) & mask
	}
	t.tags[i] = p.tag
	t.vals[i] = int32(val)
	t.n++
}

// insert places (tag, val) at the first empty slot of its probe
// chain.
func (t *Table) insert(tag uint32, val int) {
	mask := uint64(len(t.vals) - 1)
	i := uint64(tag) & mask
	for t.vals[i] >= 0 {
		i = (i + 1) & mask
	}
	t.tags[i] = tag
	t.vals[i] = int32(val)
	t.n++
}

func (t *Table) grow() {
	c := len(t.vals) * 2
	if c < minCap {
		c = minCap
	}
	oldT, oldV := t.tags, t.vals
	t.alloc(c)
	t.n = 0
	for i, v := range oldV {
		if v >= 0 {
			t.insert(oldT[i], int(v))
		}
	}
}

// Bitset is a fixed-size bitmap; hash-division uses one per quotient
// candidate to record which divisor elements the group has covered.
type Bitset []uint64

// NewBitset returns a bitmap holding n bits, all clear.
func NewBitset(n int) Bitset { return make(Bitset, (n+63)/64) }

// Set sets bit i and reports whether it was previously clear.
func (b Bitset) Set(i int) bool {
	w, m := i/64, uint64(1)<<(i%64)
	if b[w]&m != 0 {
		return false
	}
	b[w] |= m
	return true
}
