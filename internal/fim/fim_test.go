package fim

import (
	"math/rand"
	"reflect"
	"testing"

	"divlaws/internal/datagen"
	"divlaws/internal/hashkey"
)

// paperBaskets is a small hand-checked dataset.
//
//	t1: A B C    t2: A B    t3: B C    t4: A B D
//
// minSupport 2 → frequent: {A}:3 {B}:4 {C}:2 {AB}:3 {BC}:2 and
// {AC} has support 1 (infrequent); {ABC} pruned.
func paperBaskets() *Transactions {
	return FromLists(map[int64][]int64{
		1: {1, 2, 3}, // A=1 B=2 C=3
		2: {1, 2},
		3: {2, 3},
		4: {1, 2, 4},
	})
}

func TestDivideMinerHandChecked(t *testing.T) {
	got := DivideMiner{}.Mine(paperBaskets(), 2)
	want := []Result{
		{Items: Itemset{1}, Support: 3},
		{Items: Itemset{2}, Support: 4},
		{Items: Itemset{3}, Support: 2},
		{Items: Itemset{1, 2}, Support: 3},
		{Items: Itemset{2, 3}, Support: 2},
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Mine = %v, want %v", got, want)
	}
}

func TestMinersAgreeOnHandChecked(t *testing.T) {
	d := DivideMiner{}.Mine(paperBaskets(), 2)
	h := HashMiner{}.Mine(paperBaskets(), 2)
	if !reflect.DeepEqual(d, h) {
		t.Errorf("miners disagree:\ndivide: %v\nhash:   %v", d, h)
	}
}

func TestMinersAgreeProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	for trial := 0; trial < 25; trial++ {
		gen := datagen.Baskets{
			Transactions: 20 + rng.Intn(40),
			Items:        6 + rng.Intn(6),
			AvgSize:      3,
			Skew:         float64(trial%3) * 0.5,
			Seed:         int64(trial),
		}
		txs := gen.Generate()
		lists := make(map[int64][]int64, len(txs))
		for _, tx := range txs {
			lists[tx.ID] = tx.Items
		}
		trans := FromLists(lists)
		minSup := 2 + rng.Intn(4)
		d := DivideMiner{}.Mine(trans, minSup)
		h := HashMiner{}.Mine(trans, minSup)
		if !reflect.DeepEqual(d, h) {
			t.Fatalf("trial %d (minSup %d): miners disagree\ndivide: %v\nhash:   %v",
				trial, minSup, d, h)
		}
	}
}

func TestHighSupportYieldsNothing(t *testing.T) {
	for _, m := range []Miner{DivideMiner{}, HashMiner{}} {
		if got := m.Mine(paperBaskets(), 100); len(got) != 0 {
			t.Errorf("%s: expected no frequent itemsets, got %v", m.Name(), got)
		}
	}
}

func TestSupportOneKeepsEverything(t *testing.T) {
	// minSupport 1 keeps every subset of every transaction that
	// Apriori reaches; both miners must still agree.
	d := DivideMiner{}.Mine(paperBaskets(), 1)
	h := HashMiner{}.Mine(paperBaskets(), 1)
	if !reflect.DeepEqual(d, h) {
		t.Errorf("miners disagree at minSupport 1:\n%v\nvs\n%v", d, h)
	}
	// {ABD} is a 3-itemset with support 1 and must be found.
	found := false
	for _, r := range d {
		if r.Items.Key() == "1,2,4" {
			found = true
			if r.Support != 1 {
				t.Errorf("{A,B,D} support = %d", r.Support)
			}
		}
	}
	if !found {
		t.Error("{A,B,D} missing at minSupport 1")
	}
}

func TestGenerateCandidatesPrunes(t *testing.T) {
	// {1,2} and {1,3} join to {1,2,3}, but {2,3} is not frequent →
	// pruned.
	frequent := []Itemset{{1, 2}, {1, 3}}
	if got := generateCandidates(frequent, 3); len(got) != 0 {
		t.Errorf("candidates = %v, want none (subset pruning)", got)
	}
	// With {2,3} present the candidate survives.
	frequent = []Itemset{{1, 2}, {1, 3}, {2, 3}}
	got := generateCandidates(frequent, 3)
	if len(got) != 1 || got[0].Key() != "1,2,3" {
		t.Errorf("candidates = %v, want [{1,2,3}]", got)
	}
}

func TestContainsSorted(t *testing.T) {
	cases := []struct {
		super []int64
		sub   Itemset
		want  bool
	}{
		{[]int64{1, 2, 3}, Itemset{1, 3}, true},
		{[]int64{1, 2, 3}, Itemset{}, true},
		{[]int64{1, 3}, Itemset{2}, false},
		{[]int64{1, 3}, Itemset{1, 2, 3}, false},
		{[]int64{}, Itemset{1}, false},
	}
	for _, tc := range cases {
		if got := containsSorted(tc.super, tc.sub); got != tc.want {
			t.Errorf("containsSorted(%v, %v) = %t", tc.super, tc.sub, got)
		}
	}
}

func TestTransactionsDedupAndSort(t *testing.T) {
	trans := FromLists(map[int64][]int64{7: {3, 1, 3, 2, 1}})
	rel := trans.Relation()
	if rel.Len() != 3 {
		t.Errorf("vertical relation Len = %d, want 3 (dedup)", rel.Len())
	}
	if trans.Len() != 1 {
		t.Errorf("Len = %d", trans.Len())
	}
}

func TestItemsetKey(t *testing.T) {
	s := Itemset{1, 2, 10}
	if s.Key() != "1,2,10" {
		t.Errorf("Key = %q", s.Key())
	}
}

func TestMinerNames(t *testing.T) {
	var d DivideMiner
	var h HashMiner
	if d.Name() == h.Name() {
		t.Error("miners must have distinct names")
	}
}

// TestMinersCollisions degrades every hash to 3 bits, so the
// TupleIndex-based candidate bookkeeping of both miners (and the
// division underneath DivideMiner) collides constantly, and checks
// both against the fully string-keyed reference miner.
func TestMinersCollisions(t *testing.T) {
	restore := hashkey.SetMaskForTesting(7)
	defer restore()
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 10; trial++ {
		gen := datagen.Baskets{
			Transactions: 15 + rng.Intn(25),
			Items:        5 + rng.Intn(5),
			AvgSize:      3,
			Seed:         int64(100 + trial),
		}
		txs := gen.Generate()
		lists := make(map[int64][]int64, len(txs))
		for _, tx := range txs {
			lists[tx.ID] = tx.Items
		}
		trans := FromLists(lists)
		minSup := 2 + rng.Intn(3)
		want := mineStringKeyed(trans, minSup)
		for _, m := range []Miner{DivideMiner{}, HashMiner{}} {
			if got := m.Mine(trans, minSup); !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d (%s, minSup %d): masked mining diverged\ngot:  %v\nwant: %v",
					trial, m.Name(), minSup, got, want)
			}
		}
	}
}

// mineStringKeyed is the string-keyed Apriori reference retained as
// the collision-test oracle: all candidate bookkeeping goes through
// Itemset.Key strings and Go maps, never the TupleIndex, so the
// masked-hash tests have an independent result to compare both
// miners against.
func mineStringKeyed(t *Transactions, minSupport int) []Result {
	var results []Result
	freq := frequentItems(t, minSupport)
	results = append(results, freq...)
	current := make([]Itemset, len(freq))
	for i, f := range freq {
		current[i] = f.Items
	}

	for k := 2; len(current) > 0; k++ {
		// Apriori-gen over string keys.
		prev := make(map[string]bool, len(current))
		for _, s := range current {
			prev[s.Key()] = true
		}
		var candidates []Itemset
		for i := 0; i < len(current); i++ {
			for j := i + 1; j < len(current); j++ {
				a, b := current[i], current[j]
				if len(a) != k-1 || len(b) != k-1 {
					continue
				}
				if !samePrefix(a, b) || a[len(a)-1] >= b[len(b)-1] {
					continue
				}
				cand := append(append(Itemset{}, a...), b[len(b)-1])
				ok := true
				sub := make(Itemset, 0, len(cand)-1)
				for skip := range cand {
					sub = sub[:0]
					for i, it := range cand {
						if i != skip {
							sub = append(sub, it)
						}
					}
					if !prev[sub.Key()] {
						ok = false
						break
					}
				}
				if ok {
					candidates = append(candidates, cand)
				}
			}
		}
		if len(candidates) == 0 {
			break
		}
		counts := make(map[string]int, len(candidates))
		byKey := make(map[string]Itemset, len(candidates))
		for _, c := range candidates {
			byKey[c.Key()] = c
		}
		for _, id := range t.ids {
			items := t.rows[id]
			for _, c := range candidates {
				if containsSorted(items, c) {
					counts[c.Key()]++
				}
			}
		}
		current = current[:0]
		for key, n := range counts {
			if n >= minSupport {
				items := byKey[key]
				results = append(results, Result{Items: items, Support: n})
				current = append(current, items)
			}
		}
		sortItemsets(current)
	}
	sortResults(results)
	return results
}
