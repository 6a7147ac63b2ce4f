// Package relation implements set-semantics relations: immutable
// schemas over ordered attributes, tuples of typed values, duplicate
// elimination on insert, canonical ordering, and set-level equality.
//
// Every operator in the paper (Appendix A) has set semantics, so the
// Relation type dedups tuples on insert — a 64-bit hash table whose
// candidates are verified against the stored tuples — and all
// comparisons between relations are order-insensitive.
//
// Immutability contract: a relation is built single-threaded and is
// read-only from the moment it is shared — registered in a catalog,
// handed to a plan, or viewed with WithSchema. Everything that lets
// queries run concurrently without copying (scans window the tuple
// slice, rename views share slice and table, catalog snapshots hand
// the same *Relation to every query) rests on it, so it is stated
// here once.
//
// The package also carries the engine's row-shaped performance
// primitives: Batch (the reused slab the batch execution path
// exchanges), the batch hash kernels Hash64Batch/Hash64ProjBatch
// (one tight pass per batch through the wide hashkey mixer), and
// Slab, the append-only bump allocator the join emit paths carve
// output tuples from (see Slab for its lifetime rule).
package relation

import (
	"fmt"
	"sort"
	"strings"

	"divlaws/internal/hashkey"
	"divlaws/internal/schema"
	"divlaws/internal/value"
)

// Tuple is an ordered list of values, positionally aligned with a
// relation's schema.
type Tuple []value.Value

// Equal reports whether two tuples have the same length and pairwise
// Equal values.
func (t Tuple) Equal(u Tuple) bool {
	if len(t) != len(u) {
		return false
	}
	for i := range t {
		if !t[i].Equal(u[i]) {
			return false
		}
	}
	return true
}

// Key returns the injective byte encoding of the tuple used for set
// semantics and hash-based operators.
func (t Tuple) Key() string { return string(t.AppendKey(nil)) }

// AppendKey appends the tuple's injective encoding to dst.
func (t Tuple) AppendKey(dst []byte) []byte {
	for _, v := range t {
		dst = v.AppendKey(dst)
	}
	return dst
}

// Hash64 returns the FNV-1a hash of the tuple's injective encoding,
// computed incrementally — no bytes are materialized. Equal tuples
// hash equally; distinct tuples may collide, so hash-based operators
// verify candidates with Equal.
func (t Tuple) Hash64() uint64 {
	h := hashkey.New()
	for _, v := range t {
		h = v.HashKey(h)
	}
	return h
}

// Hash64Proj returns Hash64 of the projection t[pos...] without
// materializing it: it equals t.Project(pos).Hash64().
func (t Tuple) Hash64Proj(pos []int) uint64 {
	h := hashkey.New()
	for _, p := range pos {
		h = t[p].HashKey(h)
	}
	return h
}

// ProjEqual reports whether the projection t[pos...] equals u,
// without materializing the projection.
func (t Tuple) ProjEqual(pos []int, u Tuple) bool {
	if len(pos) != len(u) {
		return false
	}
	for i, p := range pos {
		if !t[p].Equal(u[i]) {
			return false
		}
	}
	return true
}

// ConcatProj returns t ◦ u[pos...] as a fresh tuple in one
// allocation, the fused Concat(Project) of the hash-join emit path.
func (t Tuple) ConcatProj(u Tuple, pos []int) Tuple {
	out := make(Tuple, 0, len(t)+len(pos))
	out = append(out, t...)
	for _, p := range pos {
		out = append(out, u[p])
	}
	return out
}

// Clone returns a copy of the tuple sharing no storage with t.
func (t Tuple) Clone() Tuple { return append(Tuple(nil), t...) }

// Concat returns the concatenation t ◦ u as a fresh tuple.
func (t Tuple) Concat(u Tuple) Tuple {
	out := make(Tuple, 0, len(t)+len(u))
	out = append(out, t...)
	out = append(out, u...)
	return out
}

// Project returns the tuple restricted to the given source positions.
func (t Tuple) Project(pos []int) Tuple {
	out := make(Tuple, len(pos))
	for i, p := range pos {
		out[i] = t[p]
	}
	return out
}

// Footprint approximates the live heap bytes held by the tuple: the
// slice header and backing array plus each value's payload. Operators
// charge this against a memory budget, so it deliberately rounds up.
func (t Tuple) Footprint() int64 {
	const sliceHeader = 24
	n := int64(sliceHeader)
	for _, v := range t {
		n += v.Footprint()
	}
	return n
}

// Compare orders tuples lexicographically by value.Compare.
func (t Tuple) Compare(u Tuple) int {
	n := len(t)
	if len(u) < n {
		n = len(u)
	}
	for i := 0; i < n; i++ {
		if c := value.Compare(t[i], u[i]); c != 0 {
			return c
		}
	}
	switch {
	case len(t) < len(u):
		return -1
	case len(t) > len(u):
		return 1
	default:
		return 0
	}
}

// String renders the tuple like the paper's figures: "1, blue".
func (t Tuple) String() string {
	parts := make([]string, len(t))
	for i, v := range t {
		parts[i] = v.String()
	}
	return strings.Join(parts, ", ")
}

// Relation is a set of tuples over a fixed schema. The zero Relation
// is unusable; construct with New.
type Relation struct {
	sch    schema.Schema
	tuples []Tuple
	seen   hashkey.Table
	shared bool // a WithSchema view still borrowing seen; see unshare
}

// New returns an empty relation with the given schema.
func New(sch schema.Schema) *Relation {
	return &Relation{sch: sch}
}

// Schema returns the relation's schema.
func (r *Relation) Schema() schema.Schema { return r.sch }

// WithSchema returns r under another schema of the same arity — the
// rename operator ρ, which changes no tuple — in O(1): the view
// shares r's tuple slice and dedup table instead of re-inserting
// every tuple. Creating a view reads r and writes nothing to it, so
// concurrent binds may view one registered relation at once.
//
// The two stay independent sets. The view copies on its first insert
// (it keeps the tuples and rebuilds a private table). An insert into
// r afterwards appends beyond the view's length-capped slice, and
// what it adds to the table they still share points past that
// length, which the view's probes skip.
func (r *Relation) WithSchema(sch schema.Schema) *Relation {
	if sch.Len() != r.sch.Len() {
		panic(fmt.Sprintf("relation: WithSchema %v over schema %v", sch, r.sch))
	}
	n := len(r.tuples)
	return &Relation{sch: sch, tuples: r.tuples[:n:n], seen: r.seen, shared: true}
}

// unshare gives a view its own dedup table before its first insert.
func (r *Relation) unshare() {
	ts := r.tuples
	r.tuples, r.seen, r.shared = nil, hashkey.Table{}, false
	for _, t := range ts {
		r.InsertOwned(t)
	}
}

// Len returns the cardinality |r|.
func (r *Relation) Len() int { return len(r.tuples) }

// Empty reports whether the relation has no tuples.
func (r *Relation) Empty() bool { return len(r.tuples) == 0 }

// Insert adds a tuple under set semantics, reporting whether it was
// new. The tuple is cloned, so callers may reuse their slice. Insert
// panics if the arity does not match the schema.
func (r *Relation) Insert(t Tuple) bool {
	if !r.addIfAbsent(t) {
		return false
	}
	r.tuples = append(r.tuples, t.Clone())
	return true
}

// InsertOwned is Insert without the defensive clone: the relation
// aliases t, so the caller must not mutate it afterwards. Hot paths
// use it for tuples that are freshly built or already owned by
// another relation (tuples are immutable by convention — see
// Tuples).
func (r *Relation) InsertOwned(t Tuple) bool {
	if !r.addIfAbsent(t) {
		return false
	}
	r.tuples = append(r.tuples, t)
	return true
}

// addIfAbsent reserves a dedup-table slot for t if no equal tuple is
// present; when it reports true the caller must append exactly one
// tuple. Key strings are never built: the table stores 64-bit hashes
// and candidates are verified against the stored tuples.
func (r *Relation) addIfAbsent(t Tuple) bool {
	if len(t) != r.sch.Len() {
		panic(fmt.Sprintf("relation: arity %d tuple into schema %v", len(t), r.sch))
	}
	if r.shared {
		r.unshare()
	}
	p := r.seen.Probe(t.Hash64())
	for {
		v, ok := p.Next()
		if !ok {
			break
		}
		if r.tuples[v].Equal(t) {
			return false
		}
	}
	p.Insert(len(r.tuples))
	return true
}

// InsertAll inserts every tuple of s (schemas must have equal arity;
// attribute names are not checked, mirroring positional set union).
// The tuples are shared with s, not cloned.
func (r *Relation) InsertAll(s *Relation) {
	for _, t := range s.tuples {
		r.InsertOwned(t)
	}
}

// Contains reports whether the tuple is in the relation.
func (r *Relation) Contains(t Tuple) bool {
	p := r.seen.Probe(t.Hash64())
	for {
		v, ok := p.Next()
		if !ok {
			return false
		}
		// v >= len only in a view whose source grew; see WithSchema.
		if v < len(r.tuples) && r.tuples[v].Equal(t) {
			return true
		}
	}
}

// ContainsKey reports whether a tuple with the given injective key
// encoding (Tuple.Key) is present.
func (r *Relation) ContainsKey(key string) bool {
	var scratch [64]byte
	p := r.seen.Probe(value.HashEncodedKey(hashkey.New(), key))
	for {
		v, ok := p.Next()
		if !ok {
			return false
		}
		if v < len(r.tuples) && string(r.tuples[v].AppendKey(scratch[:0])) == key {
			return true
		}
	}
}

// Tuples returns the relation's tuples in insertion order. The slice
// and its tuples must not be mutated.
func (r *Relation) Tuples() []Tuple { return r.tuples }

// Sorted returns the tuples in canonical (lexicographic) order as a
// fresh slice.
func (r *Relation) Sorted() []Tuple {
	out := make([]Tuple, len(r.tuples))
	copy(out, r.tuples)
	sort.Slice(out, func(i, j int) bool { return out[i].Compare(out[j]) < 0 })
	return out
}

// Clone returns a deep copy of the relation.
func (r *Relation) Clone() *Relation {
	out := New(r.sch)
	for _, t := range r.tuples {
		out.Insert(t)
	}
	return out
}

// Equal reports set equality: same schema (ordered) and the same set
// of tuples.
func (r *Relation) Equal(s *Relation) bool {
	if !r.sch.Equal(s.sch) || r.Len() != s.Len() {
		return false
	}
	for _, t := range r.tuples {
		if !s.Contains(t) {
			return false
		}
	}
	return true
}

// EquivalentTo reports equality up to attribute order: both relations
// must have the same attribute set, and after aligning s's columns to
// r's order the tuple sets must match. This is how the laws state
// equivalences: π_{A∪C}(...) may emit columns in a different order on
// each side.
func (r *Relation) EquivalentTo(s *Relation) bool {
	if r.Len() != s.Len() || !r.sch.EqualSet(s.sch) {
		return false
	}
	pos := s.sch.Positions(r.sch.Attrs())
	for _, t := range s.tuples {
		if !r.Contains(t.Project(pos)) {
			return false
		}
	}
	return true
}

// Reorder returns a relation with columns rearranged into the given
// attribute order, which must be a permutation of the schema.
func (r *Relation) Reorder(attrs []string) *Relation {
	target := schema.New(attrs...)
	if !target.EqualSet(r.sch) {
		panic(fmt.Sprintf("relation: Reorder %v is not a permutation of %v", attrs, r.sch))
	}
	pos := r.sch.Positions(attrs)
	out := New(target)
	for _, t := range r.tuples {
		out.InsertOwned(t.Project(pos))
	}
	return out
}

// String renders the relation as a small table in canonical order,
// matching the layout of the paper's figures:
//
//	a b
//	1 1
//	2 3
func (r *Relation) String() string {
	var b strings.Builder
	b.WriteString(strings.Join(r.sch.Attrs(), " "))
	for _, t := range r.Sorted() {
		b.WriteByte('\n')
		parts := make([]string, len(t))
		for i, v := range t {
			parts[i] = v.String()
		}
		b.WriteString(strings.Join(parts, " "))
	}
	return b.String()
}

// Ints is a test and example helper: it builds a relation of integer
// tuples over the named attributes.
func Ints(attrs []string, rows [][]int64) *Relation {
	r := New(schema.New(attrs...))
	for _, row := range rows {
		if len(row) != len(attrs) {
			panic(fmt.Sprintf("relation: Ints row %v does not match attrs %v", row, attrs))
		}
		t := make(Tuple, len(row))
		for i, x := range row {
			t[i] = value.Int(x)
		}
		r.InsertOwned(t)
	}
	return r
}

// FromRows builds a relation from untyped rows, converting Go values
// (int, int64, float64, string, bool, nil) to values. It panics on an
// unsupported type; it is a constructor for tests, examples and
// loaders, not a hot path.
func FromRows(sch schema.Schema, rows [][]any) *Relation {
	r := New(sch)
	for _, row := range rows {
		if len(row) != sch.Len() {
			panic(fmt.Sprintf("relation: row arity %d vs schema %v", len(row), sch))
		}
		t := make(Tuple, len(row))
		for i, x := range row {
			t[i] = ToValue(x)
		}
		r.Insert(t)
	}
	return r
}

// Rows returns the relation's tuples as untyped Go rows in insertion
// order — the inverse of FromRows. It copies; use it to hand
// relations to row-based surfaces (the public API's constructors),
// not in hot paths.
func (r *Relation) Rows() [][]any {
	out := make([][]any, len(r.tuples))
	for i, t := range r.tuples {
		row := make([]any, len(t))
		for j, v := range t {
			row[j] = v.Native()
		}
		out[i] = row
	}
	return out
}

// ToValue converts a Go scalar to a Value, panicking on unsupported
// types.
func ToValue(x any) value.Value {
	switch v := x.(type) {
	case nil:
		return value.Null
	case bool:
		return value.Bool(v)
	case int:
		return value.Int(int64(v))
	case int64:
		return value.Int(v)
	case float64:
		return value.Float(v)
	case string:
		return value.String(v)
	case value.Value:
		return v
	default:
		panic(fmt.Sprintf("relation: unsupported Go value %T", x))
	}
}
