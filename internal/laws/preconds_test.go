package laws

import (
	"math/rand"
	"testing"

	"divlaws/internal/algebra"
	"divlaws/internal/hashkey"
	"divlaws/internal/relation"
)

// c1Oracle is the original string-keyed C1, kept as the reference
// the hash-layer implementation is checked against — including under
// forced hash collisions.
func c1Oracle(r1a, r1b, r2 *relation.Relation) bool {
	split, err := smallSplitRels(r1a, r2)
	if err != nil {
		return false
	}
	aPosA := r1a.Schema().Positions(split.A.Attrs())
	bPosA := r1a.Schema().Positions(split.B.Attrs())
	aPosB := r1b.Schema().Positions(split.A.Attrs())
	bPosB := r1b.Schema().Positions(split.B.Attrs())
	bOrder := r2.Schema().Positions(split.B.Attrs())

	imageA := oracleImagesByGroup(r1a, aPosA, bPosA)
	imageB := oracleImagesByGroup(r1b, aPosB, bPosB)

	divisor := make([]string, 0, r2.Len())
	for _, d := range r2.Tuples() {
		divisor = append(divisor, d.Project(bOrder).Key())
	}

	for ak, imgA := range imageA {
		imgB, shared := imageB[ak]
		if !shared {
			continue
		}
		if oracleCoversAll(imgA, divisor) || oracleCoversAll(imgB, divisor) {
			continue
		}
		union := make(map[string]struct{}, len(imgA)+len(imgB))
		for k := range imgA {
			union[k] = struct{}{}
		}
		for k := range imgB {
			union[k] = struct{}{}
		}
		if oracleCoversAll(union, divisor) {
			return false
		}
	}
	return true
}

// c2Oracle is the original string-keyed C2.
func c2Oracle(r1a, r1b, r2 *relation.Relation) bool {
	split, err := smallSplitRels(r1a, r2)
	if err != nil {
		return false
	}
	aPosA := r1a.Schema().Positions(split.A.Attrs())
	aPosB := r1b.Schema().Positions(split.A.Attrs())
	seen := make(map[string]struct{}, r1a.Len())
	for _, t := range r1a.Tuples() {
		seen[t.Project(aPosA).Key()] = struct{}{}
	}
	for _, t := range r1b.Tuples() {
		if _, hit := seen[t.Project(aPosB).Key()]; hit {
			return false
		}
	}
	return true
}

func oracleImagesByGroup(r *relation.Relation, aPos, bPos []int) map[string]map[string]struct{} {
	out := make(map[string]map[string]struct{})
	for _, t := range r.Tuples() {
		ak := t.Project(aPos).Key()
		img, ok := out[ak]
		if !ok {
			img = make(map[string]struct{})
			out[ak] = img
		}
		img[t.Project(bPos).Key()] = struct{}{}
	}
	return out
}

func oracleCoversAll(img map[string]struct{}, divisor []string) bool {
	for _, d := range divisor {
		if _, ok := img[d]; !ok {
			return false
		}
	}
	return true
}

// TestPrecondsMatchStringKeyedOracle pits the hash-layer C1/C2
// against the string-keyed originals, both normally and with every
// hash degraded to 3 bits so collisions are routine.
func TestPrecondsMatchStringKeyedOracle(t *testing.T) {
	run := func(t *testing.T) {
		rng := rand.New(rand.NewSource(321))
		for trial := 0; trial < 400; trial++ {
			r1a := randRelation(rng, []string{"a", "b"}, rng.Intn(12), 5)
			r1b := randRelation(rng, []string{"a", "b"}, rng.Intn(12), 5)
			r2 := randRelation(rng, []string{"b"}, 1+rng.Intn(4), 5)
			if got, want := C1(r1a, r1b, r2), c1Oracle(r1a, r1b, r2); got != want {
				t.Fatalf("C1 = %v, oracle %v:\nr1a:\n%v\nr1b:\n%v\nr2:\n%v", got, want, r1a, r1b, r2)
			}
			if got, want := C2(r1a, r1b, r2), c2Oracle(r1a, r1b, r2); got != want {
				t.Fatalf("C2 = %v, oracle %v:\nr1a:\n%v\nr1b:\n%v\nr2:\n%v", got, want, r1a, r1b, r2)
			}
		}
	}
	t.Run("full hashes", run)
	t.Run("3-bit hashes", func(t *testing.T) {
		restore := hashkey.SetMaskForTesting(7)
		defer restore()
		run(t)
	})
}

func TestC2Figure5(t *testing.T) {
	r1a, r1b, r2 := figure5Relations()
	if C2(r1a, r1b, r2) {
		t.Error("Figure 5 partitions share a=1; c2 must fail")
	}
	if C1(r1a, r1b, r2) {
		t.Error("Figure 5 is the paper's c1 counterexample; c1 must fail")
	}
}

func TestC2DisjointPartitions(t *testing.T) {
	r1a := relation.Ints([]string{"a", "b"}, [][]int64{{1, 1}})
	r1b := relation.Ints([]string{"a", "b"}, [][]int64{{2, 1}})
	r2 := relation.Ints([]string{"b"}, [][]int64{{1}})
	if !C2(r1a, r1b, r2) || !C1(r1a, r1b, r2) {
		t.Error("disjoint partitions must satisfy both c1 and c2")
	}
}

func TestC1HoldsWhenOneSideCovers(t *testing.T) {
	// Shared group a=1, fully covered within the first partition.
	r1a := relation.Ints([]string{"a", "b"}, [][]int64{{1, 1}, {1, 2}})
	r1b := relation.Ints([]string{"a", "b"}, [][]int64{{1, 1}})
	r2 := relation.Ints([]string{"b"}, [][]int64{{1}, {2}})
	if C2(r1a, r1b, r2) {
		t.Error("shared candidate should fail c2")
	}
	if !C1(r1a, r1b, r2) {
		t.Error("coverage within one partition should satisfy c1")
	}
}

func TestC1HoldsWhenUnionDoesNotCover(t *testing.T) {
	// Shared group a=1 missing b=9 even in the union: the third
	// disjunct of c1.
	r1a := relation.Ints([]string{"a", "b"}, [][]int64{{1, 1}})
	r1b := relation.Ints([]string{"a", "b"}, [][]int64{{1, 2}})
	r2 := relation.Ints([]string{"b"}, [][]int64{{1}, {2}, {9}})
	if !C1(r1a, r1b, r2) {
		t.Error("union not covering the divisor should satisfy c1")
	}
}

func TestC1RejectsDispersedCoverage(t *testing.T) {
	// Neither side covers alone, but the union does: exactly the
	// Figure 5 pathology.
	r1a := relation.Ints([]string{"a", "b"}, [][]int64{{1, 1}})
	r1b := relation.Ints([]string{"a", "b"}, [][]int64{{1, 2}})
	r2 := relation.Ints([]string{"b"}, [][]int64{{1}, {2}})
	if C1(r1a, r1b, r2) {
		t.Error("dispersed coverage must fail c1")
	}
}

func TestBadSchemasFailPreconditions(t *testing.T) {
	r1 := relation.Ints([]string{"a", "b"}, [][]int64{{1, 1}})
	bad := relation.Ints([]string{"z"}, [][]int64{{1}})
	if C1(r1, r1, bad) || C2(r1, r1, bad) {
		t.Error("schema-invalid inputs must fail the preconditions")
	}
}

func TestC2ImpliesC1Property(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 300; trial++ {
		r1a := randRelation(rng, []string{"a", "b"}, rng.Intn(10), 5)
		r1b := randRelation(rng, []string{"a", "b"}, rng.Intn(10), 5)
		r2 := randRelation(rng, []string{"b"}, 1+rng.Intn(4), 5)
		if C2(r1a, r1b, r2) && !C1(r1a, r1b, r2) {
			t.Fatalf("c2 held but c1 failed:\nr1a:\n%v\nr1b:\n%v\nr2:\n%v", r1a, r1b, r2)
		}
	}
}

func TestC1ExactlyCharacterizesLaw2Property(t *testing.T) {
	// Soundness: when c1 holds, the distributed form equals the
	// union form. (c1 is sufficient; it may also hold vacuously.)
	rng := rand.New(rand.NewSource(100))
	holds, fails := 0, 0
	for trial := 0; trial < 400; trial++ {
		r1a := randRelation(rng, []string{"a", "b"}, rng.Intn(8), 4)
		r1b := randRelation(rng, []string{"a", "b"}, rng.Intn(8), 4)
		r2 := randRelation(rng, []string{"b"}, 1+rng.Intn(3), 4)
		union := algebra.Divide(algebra.Union(r1a, r1b), r2)
		distributed := algebra.Union(algebra.Divide(r1a, r2), algebra.Divide(r1b, r2))
		if C1(r1a, r1b, r2) {
			holds++
			if !union.Equal(distributed) {
				t.Fatalf("c1 held but Law 2 broke:\nr1a:\n%v\nr1b:\n%v\nr2:\n%v\nunion:\n%v\ndistributed:\n%v",
					r1a, r1b, r2, union, distributed)
			}
		} else {
			fails++
			// When c1 fails the sides must actually differ — c1 is
			// also necessary for this dividend decomposition.
			if union.Equal(distributed) {
				t.Fatalf("c1 failed but the sides agree:\nr1a:\n%v\nr1b:\n%v\nr2:\n%v", r1a, r1b, r2)
			}
		}
	}
	if holds == 0 || fails == 0 {
		t.Fatalf("degenerate sampling: holds=%d fails=%d", holds, fails)
	}
}
