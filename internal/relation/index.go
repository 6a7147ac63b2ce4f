package relation

import (
	"slices"

	"divlaws/internal/hashkey"
)

// TupleIndex assigns dense integer ids (0, 1, 2, …, in first-seen
// order) to distinct tuples — the building block behind every hash
// operator in the engine: join build sides, dedup sets, divisor
// bit-numbering tables, grouping keys. It hashes tuples to 64 bits,
// stores compact tags in an open-addressed table, and verifies every
// probe candidate against the stored tuple, so ids are exact even
// under hash collisions.
//
// The zero TupleIndex is empty and ready to use. Lookups allocate
// nothing; an insertion of a projection materializes the projected
// tuple once, when the key is new.
type TupleIndex struct {
	table hashkey.Table
	keys  []Tuple
	// hashes is scratch for the batch methods' hash pass, reused
	// across batches so steady-state batch probing allocates nothing.
	hashes []uint64
}

// Len returns the number of distinct keys indexed.
func (ix *TupleIndex) Len() int { return len(ix.keys) }

// TableBytes returns the heap footprint of the index's hash-table
// backing arrays (the keys' tuple storage is accounted separately by
// callers, which own the tuples).
func (ix *TupleIndex) TableBytes() int64 { return ix.table.Bytes() }

// Key returns the tuple with the given id. The result is owned by
// the index and must not be mutated (it may be shared with output
// relations).
func (ix *TupleIndex) Key(id int) Tuple { return ix.keys[id] }

// Keys returns all indexed tuples in id order; the slice and its
// tuples must not be mutated.
func (ix *TupleIndex) Keys() []Tuple { return ix.keys }

// Reset discards all keys, keeping allocated capacity.
func (ix *TupleIndex) Reset() {
	ix.table.Reset()
	ix.keys = ix.keys[:0]
}

// ID returns t's id, assigning the next free id if t is new; created
// reports whether it did. The index aliases t when it is new, so the
// caller must not mutate it afterwards.
func (ix *TupleIndex) ID(t Tuple) (id int, created bool) {
	return ix.idHashed(t.Hash64(), t)
}

// IDProj is ID for the projection t[pos...]; the projection is
// materialized only when it is new.
func (ix *TupleIndex) IDProj(t Tuple, pos []int) (id int, created bool) {
	return ix.IDProjHashed(t.Hash64Proj(pos), t, pos)
}

// Lookup returns t's id, or -1 if t is not indexed. It allocates
// nothing. The hash and the probe walk share one frame: this is the
// fused per-row probe the innermost join loops sit on, where a
// second call per row is measurable, so it deliberately duplicates
// LookupHashed's walk instead of delegating to it.
func (ix *TupleIndex) Lookup(t Tuple) int {
	p := ix.table.Probe(t.Hash64())
	for {
		v, ok := p.Next()
		if !ok {
			return -1
		}
		if ix.keys[v].Equal(t) {
			return v
		}
	}
}

// IDBatch assigns ids to every tuple of ts in order, appending each
// tuple's (id, created) to ids and created — the batch-at-a-time form
// of ID. It runs two passes: Hash64Batch computes the whole batch's
// hashes into reused scratch, then a pure probe loop consumes them,
// so the hash kernel and the table's probe chains each stay hot. The
// index aliases newly inserted tuples, so the caller must not mutate
// them.
func (ix *TupleIndex) IDBatch(ts []Tuple, ids []int, created []bool) ([]int, []bool) {
	ix.hashes = Hash64Batch(ts, ix.hashes[:0])
	for i, t := range ts {
		id, c := ix.idHashed(ix.hashes[i], t)
		ids = append(ids, id)
		created = append(created, c)
	}
	return ids, created
}

// IDProjBatch is IDBatch for the projections ts[i][pos...]; a
// projection is materialized only when it is new.
func (ix *TupleIndex) IDProjBatch(ts []Tuple, pos []int, ids []int, created []bool) ([]int, []bool) {
	ix.hashes = Hash64ProjBatch(ts, pos, ix.hashes[:0])
	for i, t := range ts {
		id, c := ix.IDProjHashed(ix.hashes[i], t, pos)
		ids = append(ids, id)
		created = append(created, c)
	}
	return ids, created
}

// idHashed is ID with the tuple's hash already computed.
func (ix *TupleIndex) idHashed(h uint64, t Tuple) (id int, created bool) {
	p := ix.table.Probe(h)
	for {
		v, ok := p.Next()
		if !ok {
			break
		}
		if ix.keys[v].Equal(t) {
			return v, false
		}
	}
	id = len(ix.keys)
	p.Insert(id)
	ix.keys = append(ix.keys, t)
	return id, true
}

// IDProjHashed is IDProj with the projection's hash, h, already
// computed.
func (ix *TupleIndex) IDProjHashed(h uint64, t Tuple, pos []int) (id int, created bool) {
	p := ix.table.Probe(h)
	for {
		v, ok := p.Next()
		if !ok {
			break
		}
		if t.ProjEqual(pos, ix.keys[v]) {
			return v, false
		}
	}
	id = len(ix.keys)
	p.Insert(id)
	ix.keys = append(ix.keys, t.Project(pos))
	return id, true
}

// LookupBatch appends the id of every tuple of ts (or -1) to ids —
// the whole-tuple batch probe behind batch set operators. Like
// IDBatch it hashes the batch in one pass first; it grows ids once up
// front and allocates nothing else in steady state.
func (ix *TupleIndex) LookupBatch(ts []Tuple, ids []int) []int {
	ix.hashes = Hash64Batch(ts, ix.hashes[:0])
	ids = slices.Grow(ids, len(ts))
	for i, t := range ts {
		ids = append(ids, ix.LookupHashed(ix.hashes[i], t))
	}
	return ids
}

// LookupProjBatch appends the id of every projection ts[i][pos...]
// (or -1) to ids — the batch probe behind batch hash operators. Same
// two-pass shape as LookupBatch.
func (ix *TupleIndex) LookupProjBatch(ts []Tuple, pos []int, ids []int) []int {
	ix.hashes = Hash64ProjBatch(ts, pos, ix.hashes[:0])
	ids = slices.Grow(ids, len(ts))
	for i, t := range ts {
		ids = append(ids, ix.LookupProjHashed(ix.hashes[i], t, pos))
	}
	return ids
}

// LookupHashed is Lookup with the tuple's hash already computed.
func (ix *TupleIndex) LookupHashed(h uint64, t Tuple) int {
	p := ix.table.Probe(h)
	for {
		v, ok := p.Next()
		if !ok {
			return -1
		}
		if ix.keys[v].Equal(t) {
			return v
		}
	}
}

// LookupProjHashed is LookupProj with the projection's hash already
// computed.
func (ix *TupleIndex) LookupProjHashed(h uint64, t Tuple, pos []int) int {
	p := ix.table.Probe(h)
	for {
		v, ok := p.Next()
		if !ok {
			return -1
		}
		if t.ProjEqual(pos, ix.keys[v]) {
			return v
		}
	}
}

// LookupProj returns the id of the projection t[pos...], or -1. It
// allocates nothing. Like Lookup it is fused — hash plus probe walk
// in one frame — because it is the per-row probe of the hash join.
func (ix *TupleIndex) LookupProj(t Tuple, pos []int) int {
	p := ix.table.Probe(t.Hash64Proj(pos))
	for {
		v, ok := p.Next()
		if !ok {
			return -1
		}
		if t.ProjEqual(pos, ix.keys[v]) {
			return v
		}
	}
}
