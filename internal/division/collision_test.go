package division_test

import (
	"math/rand"
	"strconv"
	"strings"
	"testing"

	"divlaws/internal/algebra"
	"divlaws/internal/division"
	"divlaws/internal/hashkey"
	"divlaws/internal/relation"
	"divlaws/internal/schema"
	"divlaws/internal/value"
)

// These tests degrade every hashkey table to a handful of distinct
// hash values (SetMaskForTesting), so almost every probe walks a
// collision chain, and assert that every division, its definitions
// as plans through plan.Eval and exec included, still agrees with the
// reference. The reference decides membership by comparison alone and
// the results are compared by their injective keys: the collision
// verification, not hash uniqueness, carries the correctness.

func TestSmallDivideUnderForcedCollisions(t *testing.T) {
	restore := hashkey.SetMaskForTesting(0x7) // 8 distinct hashes total
	defer restore()
	rng := rand.New(rand.NewSource(99))
	impls := smallImpls()
	for trial := 0; trial < 150; trial++ {
		r1, r2full := randDatabase(rng, 1+rng.Intn(40), 1+rng.Intn(8), 5, 6, 1)
		r2 := projectB(r2full)
		checkAgainst(t, impls, r1, r2, algebra.Divide(r1, r2))
	}
}

func TestGreatDivideUnderForcedCollisions(t *testing.T) {
	restore := hashkey.SetMaskForTesting(0x7)
	defer restore()
	rng := rand.New(rand.NewSource(101))
	impls := greatImpls()
	for trial := 0; trial < 150; trial++ {
		r1, r2 := randDatabase(rng, 1+rng.Intn(40), 1+rng.Intn(12), 4, 5, 3)
		checkAgainst(t, impls, r1, r2, algebra.GreatDivide(r1, r2))
	}
}

// TestDivisionUnderForcedCollisionsStringKeys re-runs the masked
// sweeps with decorated string attributes of varying length, so every
// collision-chain probe in both division families goes through the
// word-at-a-time string hash kernel (chunked bodies and all tail
// lengths) instead of the single-mix integer path.
func TestDivisionUnderForcedCollisionsStringKeys(t *testing.T) {
	restore := hashkey.SetMaskForTesting(0x7)
	defer restore()
	rng := rand.New(rand.NewSource(103))
	sv := func(prefix string, n int) value.Value {
		return value.String(prefix + strings.Repeat("x", n%9) + "-" + strconv.Itoa(n))
	}
	small, great := smallImpls(), greatImpls()
	for trial := 0; trial < 60; trial++ {
		r1 := relation.New(schema.New("a", "b"))
		r2 := relation.New(schema.New("b"))
		r2g := relation.New(schema.New("b", "c"))
		for i := 0; i < 1+rng.Intn(5); i++ {
			r2.Insert(relation.Tuple{sv("part-", rng.Intn(8))})
		}
		for i := 0; i < 2+rng.Intn(10); i++ {
			r2g.Insert(relation.Tuple{sv("part-", rng.Intn(8)), sv("color-", rng.Intn(3))})
		}
		for i := 0; i < 5+rng.Intn(40); i++ {
			r1.Insert(relation.Tuple{sv("supplier-", rng.Intn(8)), sv("part-", rng.Intn(8))})
		}
		checkAgainst(t, small, r1, r2, algebra.Divide(r1, r2))
		checkAgainst(t, great, r1, r2g, algebra.GreatDivide(r1, r2g))
	}
}

// TestStreamingStatesAbsorbDuplicates feeds raw duplicate-laden
// streams (no pre-dedup relation) into the divide states under
// forced collisions, as the streaming iterators do.
func TestStreamingStatesAbsorbDuplicates(t *testing.T) {
	restore := hashkey.SetMaskForTesting(0x3)
	defer restore()
	rng := rand.New(rand.NewSource(103))
	for trial := 0; trial < 100; trial++ {
		r1, r2 := randDatabase(rng, 1+rng.Intn(30), 1+rng.Intn(10), 4, 5, 3)
		if r1.Empty() || r2.Empty() {
			continue
		}
		st, err := division.NewGreatDivideState(r1.Schema(), r2.Schema())
		if err != nil {
			t.Fatal(err)
		}
		// Feed every tuple several times: the state must dedup.
		for rep := 0; rep < 3; rep++ {
			for _, tp := range r2.Tuples() {
				st.AddDivisor(tp)
			}
		}
		for rep := 0; rep < 3; rep++ {
			for _, tp := range r1.Tuples() {
				st.AddDividend(tp)
			}
		}
		if got, want := keySet(st.Result()), keySet(algebra.GreatDivide(r1, r2)); got != want {
			t.Fatalf("trial %d: streamed great divide %q, reference %q", trial, got, want)
		}

		r2small := projectB(r2)
		sst, err := division.NewDivideState(r1.Schema(), r2small.Schema())
		if err != nil {
			t.Fatal(err)
		}
		for rep := 0; rep < 3; rep++ {
			for _, tp := range r2small.Tuples() {
				sst.AddDivisor(tp)
			}
		}
		for rep := 0; rep < 3; rep++ {
			for _, tp := range r1.Tuples() {
				sst.AddDividend(tp)
			}
		}
		if got, want := keySet(sst.Result()), keySet(algebra.Divide(r1, r2small)); got != want {
			t.Fatalf("trial %d: streamed small divide %q, reference %q", trial, got, want)
		}
	}
}

// FuzzDivideUnderCollisions is the fuzz entry point: arbitrary byte
// strings become small dividend/divisor pairs, and every division and
// definition must match the reference while hashes are masked to 3
// bits.
func FuzzDivideUnderCollisions(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6}, []byte{1, 2})
	f.Add([]byte{0, 0, 0, 1, 1, 0, 1, 1}, []byte{0, 1})
	f.Add([]byte{5, 4, 3, 2, 1, 0}, []byte{})
	f.Fuzz(func(t *testing.T, dividend, divisor []byte) {
		restore := hashkey.SetMaskForTesting(0x7)
		defer restore()
		r1, r2 := relFromBytes(dividend, divisor)
		if r1.Empty() || r2.Empty() {
			return
		}
		checkAgainst(t, smallImpls(), r1, r2, algebra.Divide(r1, r2))
	})
}

// TestRelationDedupUnderForcedCollisions checks the set-semantics
// core itself: Insert/Contains against a map[string] oracle.
func TestRelationDedupUnderForcedCollisions(t *testing.T) {
	restore := hashkey.SetMaskForTesting(0x1) // two hash values only
	defer restore()
	rng := rand.New(rand.NewSource(107))
	r := relation.New(schema.New("a", "b"))
	ref := map[string]bool{}
	for i := 0; i < 500; i++ {
		tp := relation.Tuple{
			value.Int(int64(rng.Intn(20))),
			value.String(string(rune('a' + rng.Intn(5)))),
		}
		k := tp.Key()
		if got, want := r.Insert(tp), !ref[k]; got != want {
			t.Fatalf("insert %d: Insert=%v, want %v", i, got, want)
		}
		ref[k] = true
		if !r.Contains(tp) || !r.ContainsKey(k) {
			t.Fatalf("insert %d: tuple not found after insert", i)
		}
	}
	if r.Len() != len(ref) {
		t.Fatalf("Len = %d, want %d", r.Len(), len(ref))
	}
	if r.Contains(relation.Tuple{value.Int(999), value.String("zz")}) {
		t.Error("Contains invents a tuple")
	}
}
