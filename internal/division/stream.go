package division

import (
	"divlaws/internal/hashkey"
	"divlaws/internal/relation"
	"divlaws/internal/schema"
)

// State is the incremental feeding protocol of the streaming hash
// divisions, DivideState and GreatDivideState: every divisor tuple,
// then every dividend tuple, then the quotient. Bytes approximates
// the live footprint for memory budgets.
type State interface {
	AddDivisor(relation.Tuple)
	AddDividend(relation.Tuple)
	Bytes() int64
	Result() *relation.Relation
	EachResult(func(relation.Tuple) error) error
}

// NewState returns the streaming state of dividend ÷ divisor when C =
// R2 − R1 is empty and of dividend ÷* divisor otherwise; see SplitOf.
func NewState(dividend, divisor schema.Schema) (State, error) {
	var (
		st  State
		err error
	)
	if divisor.SubsetOf(dividend) {
		st, err = NewDivideState(dividend, divisor)
	} else {
		st, err = NewGreatDivideState(dividend, divisor)
	}
	if err != nil {
		return nil, err // not a typed nil inside the interface
	}
	return st, nil
}

// DivideState incrementally computes the small divide r1 ÷ r2 from
// streamed tuples: feed every divisor tuple with AddDivisor, then
// every dividend tuple with AddDividend, then call Result. It is
// Graefe's hash-division turned inside out so physical operators can
// consume their child iterators directly, with no intermediate
// relation materialization and no per-tuple key allocations —
// duplicate inputs are absorbed by the bit-numbering table and the
// candidate bitmaps, so callers need not pre-deduplicate.
type DivideState struct {
	split      Split
	aPos, bPos []int // dividend positions
	bOrder     []int // divisor positions

	divisor relation.TupleIndex // B value -> bit index
	cands   relation.TupleIndex // A value -> candidate id
	bits    []hashkey.Bitset    // per candidate: divisor bits covered
	seen    []int               // per candidate: count of set bits
	sealed  bool
	bytes   int64 // approximate live footprint, for memory budgets
}

// indexEntryOverhead approximates the per-entry bookkeeping of a
// TupleIndex beyond the retained tuple itself (keys-slice slot, id).
// The hash-table backing arrays are accounted exactly through
// TableBytes in Bytes instead, so budget charges jump when a table
// doubles rather than drifting behind its real capacity — and this
// constant deliberately no longer estimates table slots.
const indexEntryOverhead = 24

// projFootprint approximates the heap bytes of t's projection onto
// pos without materializing it.
func projFootprint(t relation.Tuple, pos []int) int64 {
	n := int64(24) // slice header
	for _, p := range pos {
		n += t[p].Footprint()
	}
	return n
}

// Bytes approximates the state's live heap footprint: retained key
// tuples, candidate bitmaps, and counters. Operators running under a
// memory budget charge its growth after every Add.
func (s *DivideState) Bytes() int64 {
	return s.bytes + s.divisor.TableBytes() + s.cands.TableBytes()
}

// NewDivideState validates the schemas and returns an empty state.
func NewDivideState(dividend, divisor schema.Schema) (*DivideState, error) {
	split, err := SmallSplit(dividend, divisor)
	if err != nil {
		return nil, err
	}
	return &DivideState{
		split:  split,
		aPos:   dividend.Positions(split.A.Attrs()),
		bPos:   dividend.Positions(split.B.Attrs()),
		bOrder: divisor.Positions(split.B.Attrs()),
	}, nil
}

// AddDivisor feeds one divisor tuple. All divisor tuples must be fed
// before the first dividend tuple; duplicates are fine.
func (s *DivideState) AddDivisor(t relation.Tuple) {
	if s.sealed {
		panic("division: AddDivisor after AddDividend")
	}
	if _, created := s.divisor.IDProj(t, s.bOrder); created {
		s.bytes += projFootprint(t, s.bOrder) + indexEntryOverhead
	}
}

// AddDividend feeds one dividend tuple. The state does not retain t.
func (s *DivideState) AddDividend(t relation.Tuple) {
	s.sealed = true
	n := s.divisor.Len()
	if n == 0 {
		// Empty divisor: every dividend group qualifies; just collect
		// the distinct quotient candidates.
		if _, created := s.cands.IDProj(t, s.aPos); created {
			s.bytes += projFootprint(t, s.aPos) + indexEntryOverhead
		}
		return
	}
	bit := s.divisor.LookupProj(t, s.bPos)
	if bit < 0 {
		return // matches no divisor tuple
	}
	id, created := s.cands.IDProj(t, s.aPos)
	if created {
		s.bits = append(s.bits, hashkey.NewBitset(n))
		s.seen = append(s.seen, 0)
		s.bytes += projFootprint(t, s.aPos) + indexEntryOverhead + int64(n/8) + 32
	}
	if s.bits[id].Set(bit) {
		s.seen[id]++
	}
}

// Result returns the quotient relation. Candidates are emitted in
// first-seen order, matching the materialized HashDivide.
func (s *DivideState) Result() *relation.Relation {
	out := relation.New(s.split.A)
	s.EachResult(func(t relation.Tuple) error {
		out.InsertOwned(t)
		return nil
	})
	return out
}

// EachResult streams the quotient tuples to fn in first-seen
// candidate order, without materializing a relation — the emission
// path of the streaming exchange operators. Tuples are owned by the
// state and must not be mutated. fn's first error stops the scan and
// is returned.
func (s *DivideState) EachResult(fn func(relation.Tuple) error) error {
	n := s.divisor.Len()
	for id, a := range s.cands.Keys() {
		if n == 0 || s.seen[id] == n {
			if err := fn(a); err != nil {
				return err
			}
		}
	}
	return nil
}

// GreatDivideState incrementally computes the great divide r1 ÷* r2
// from streamed tuples, mirroring DivideState for the counting
// set-containment division: divisor first, then dividend, then
// Result. Duplicate input tuples are absorbed (the divisor side by a
// full-tuple dedup, the dividend side by per-candidate B bitmaps).
type GreatDivideState struct {
	split       Split
	aPos, b1Pos []int // dividend positions
	b2Pos, cPos []int // divisor positions

	divisorSeen relation.TupleIndex // full divisor tuples (dedup)
	bIx         relation.TupleIndex // distinct B values
	gIx         relation.TupleIndex // distinct C groups
	members     [][]int32           // per B id: divisor groups containing it
	sizes       []int32             // per group: distinct B count
	cands       relation.TupleIndex // distinct A values
	cBits       []hashkey.Bitset    // per candidate: B ids covered
	hits        [][]int32           // per candidate: per-group hit count
	sealed      bool
	bytes       int64 // approximate live footprint, for memory budgets
}

// Bytes approximates the state's live heap footprint; see
// DivideState.Bytes.
func (s *GreatDivideState) Bytes() int64 {
	return s.bytes + s.divisorSeen.TableBytes() + s.bIx.TableBytes() +
		s.gIx.TableBytes() + s.cands.TableBytes()
}

// NewGreatDivideState validates the schemas and returns an empty
// state.
func NewGreatDivideState(dividend, divisor schema.Schema) (*GreatDivideState, error) {
	split, err := GreatSplit(dividend, divisor)
	if err != nil {
		return nil, err
	}
	return &GreatDivideState{
		split: split,
		aPos:  dividend.Positions(split.A.Attrs()),
		b1Pos: dividend.Positions(split.B.Attrs()),
		b2Pos: divisor.Positions(split.B.Attrs()),
		cPos:  divisor.Positions(split.C.Attrs()),
	}, nil
}

// AddDivisor feeds one divisor tuple; the state retains it only when
// it is new. All divisor tuples must precede the first dividend
// tuple.
func (s *GreatDivideState) AddDivisor(t relation.Tuple) {
	if s.sealed {
		panic("division: AddDivisor after AddDividend")
	}
	if _, created := s.divisorSeen.ID(t); !created {
		return
	}
	s.bytes += t.Footprint() + indexEntryOverhead
	bID, bNew := s.bIx.IDProj(t, s.b2Pos)
	if bNew {
		s.members = append(s.members, nil)
		s.bytes += projFootprint(t, s.b2Pos) + indexEntryOverhead + 24
	}
	gID, gNew := s.gIx.IDProj(t, s.cPos)
	if gNew {
		s.sizes = append(s.sizes, 0)
		s.bytes += projFootprint(t, s.cPos) + indexEntryOverhead + 4
	}
	s.sizes[gID]++
	s.members[bID] = append(s.members[bID], int32(gID))
	s.bytes += 4
}

// AddDividend feeds one dividend tuple. The state does not retain t.
func (s *GreatDivideState) AddDividend(t relation.Tuple) {
	s.sealed = true
	bID := s.bIx.LookupProj(t, s.b1Pos)
	if bID < 0 {
		return // B value absent from every divisor group
	}
	id, created := s.cands.IDProj(t, s.aPos)
	if created {
		s.cBits = append(s.cBits, hashkey.NewBitset(s.bIx.Len()))
		s.hits = append(s.hits, make([]int32, s.gIx.Len()))
		s.bytes += projFootprint(t, s.aPos) + indexEntryOverhead +
			int64(s.bIx.Len()/8) + 32 + int64(s.gIx.Len())*4 + 24
	}
	// Count each distinct B value once per candidate, even if the
	// stream repeats (A, B) pairs.
	if s.cBits[id].Set(bID) {
		hits := s.hits[id]
		for _, g := range s.members[bID] {
			hits[g]++
		}
	}
}

// Result returns the quotient relation over A ∪ C: a pair (a, c)
// qualifies when a's group covered every distinct B value of divisor
// group c.
func (s *GreatDivideState) Result() *relation.Relation {
	out := relation.New(s.split.A.Concat(s.split.C))
	s.EachResult(func(t relation.Tuple) error {
		out.InsertOwned(t)
		return nil
	})
	return out
}

// EachResult streams the quotient tuples (a, c) to fn in first-seen
// candidate order; see DivideState.EachResult. Each emitted tuple is
// freshly concatenated, so fn may retain it.
func (s *GreatDivideState) EachResult(fn func(relation.Tuple) error) error {
	for id, a := range s.cands.Keys() {
		hits := s.hits[id]
		for g, size := range s.sizes {
			if hits[g] == size {
				if err := fn(a.Concat(s.gIx.Key(g))); err != nil {
					return err
				}
			}
		}
	}
	return nil
}
