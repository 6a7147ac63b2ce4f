// Package fim implements frequent itemset discovery (paper §3), the
// paper's showcase application for the great divide: the support
// counting phase of each Apriori iteration is a single
//
//	quotient = transactions ÷* candidates
//
// over vertical (tid, item) / (itemset, item) tables, followed by
// grouping on itemset and filtering by minimum support: one plan the
// engine (package exec) compiles and runs per level. A classical
// hash-counting Apriori serves as the baseline comparator.
package fim

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"divlaws/internal/agg"
	"divlaws/internal/exec"
	"divlaws/internal/plan"
	"divlaws/internal/pred"
	"divlaws/internal/relation"
	"divlaws/internal/schema"
	"divlaws/internal/value"
)

// Itemset is a sorted list of item ids.
type Itemset []int64

// Key renders the canonical identity of the itemset. The miners
// themselves track itemsets through the engine's TupleIndex; the
// string key is retained as the independent identity the
// string-keyed collision-test oracle is built on.
func (s Itemset) Key() string {
	parts := make([]string, len(s))
	for i, it := range s {
		parts[i] = fmt.Sprintf("%d", it)
	}
	return strings.Join(parts, ",")
}

// itemsetTuple encodes an itemset as the tuple of its items, the
// injective representation the TupleIndex hashes.
func itemsetTuple(s Itemset) relation.Tuple {
	t := make(relation.Tuple, len(s))
	for i, it := range s {
		t[i] = value.Int(it)
	}
	return t
}

// itemsetIndex assigns dense ids to itemsets through the engine's
// TupleIndex, replacing per-itemset string keys in the miners'
// candidate bookkeeping. Ids are first-seen order.
type itemsetIndex struct {
	ix   relation.TupleIndex
	sets []Itemset
}

// add indexes s, returning its dense id (stable across duplicates).
func (x *itemsetIndex) add(s Itemset) int {
	id, created := x.ix.ID(itemsetTuple(s))
	if created {
		x.sets = append(x.sets, s)
	}
	return id
}

// contains reports whether s is indexed.
func (x *itemsetIndex) contains(s Itemset) bool {
	return x.ix.Lookup(itemsetTuple(s)) >= 0
}

// set returns the itemset with the given id.
func (x *itemsetIndex) set(id int) Itemset { return x.sets[id] }

// len returns the number of indexed itemsets.
func (x *itemsetIndex) len() int { return len(x.sets) }

// Result is one discovered frequent itemset with its support count.
type Result struct {
	Items   Itemset
	Support int
}

// sortResults orders results canonically for comparison.
func sortResults(rs []Result) {
	sort.Slice(rs, func(i, j int) bool {
		a, b := rs[i].Items, rs[j].Items
		if len(a) != len(b) {
			return len(a) < len(b)
		}
		for k := range a {
			if a[k] != b[k] {
				return a[k] < b[k]
			}
		}
		return false
	})
}

// Transactions is the vertical transaction table abstraction both
// miners consume: a list of (tid, sorted items).
type Transactions struct {
	rows map[int64][]int64
	ids  []int64
}

// FromLists builds Transactions from id → items lists.
func FromLists(lists map[int64][]int64) *Transactions {
	t := &Transactions{rows: make(map[int64][]int64, len(lists))}
	for id, items := range lists {
		sorted := append([]int64(nil), items...)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
		// Deduplicate.
		out := sorted[:0]
		for i, x := range sorted {
			if i == 0 || sorted[i-1] != x {
				out = append(out, x)
			}
		}
		t.rows[id] = out
		t.ids = append(t.ids, id)
	}
	sort.Slice(t.ids, func(i, j int) bool { return t.ids[i] < t.ids[j] })
	return t
}

// Len returns the number of transactions.
func (t *Transactions) Len() int { return len(t.ids) }

// Relation renders the vertical transactions(tid, item) table.
func (t *Transactions) Relation() *relation.Relation {
	r := relation.New(schema.New("tid", "item"))
	for _, id := range t.ids {
		for _, it := range t.rows[id] {
			r.Insert(relation.Tuple{value.Int(id), value.Int(it)})
		}
	}
	return r
}

// Miner discovers frequent itemsets above a minimum support.
type Miner interface {
	// Mine returns every itemset with support >= minSupport,
	// canonically sorted.
	Mine(t *Transactions, minSupport int) []Result
	// Name identifies the algorithm in benchmark output.
	Name() string
}

// --- great-divide Apriori ---

// DivideMiner is the paper's §3 strategy: candidate generation as in
// Apriori, support counting via one great divide per level.
type DivideMiner struct{}

// Name implements Miner.
func (DivideMiner) Name() string { return "apriori-great-divide" }

// Mine implements Miner.
func (DivideMiner) Mine(t *Transactions, minSupport int) []Result {
	transactions := t.Relation()
	var results []Result

	// Level 1: frequent single items by plain counting.
	freq := frequentItems(t, minSupport)
	for _, f := range freq {
		results = append(results, f)
	}
	current := make([]Itemset, len(freq))
	for i, f := range freq {
		current[i] = f.Items
	}

	for k := 2; len(current) > 0; k++ {
		candidates := generateCandidates(current, k)
		if len(candidates) == 0 {
			break
		}
		// Vertical candidates(itemset, item) table keyed by the dense
		// TupleIndex id of each itemset. The paper notes the candidates
		// need not share a size, but Apriori levels do.
		cand := relation.New(schema.New("itemset", "item"))
		var candIx itemsetIndex
		for _, c := range candidates {
			id := candIx.add(c)
			for _, it := range c {
				cand.Insert(relation.Tuple{value.Int(int64(id)), value.Int(it)})
			}
		}

		// Support = count of tid per itemset of transactions ÷*
		// candidates (schema tid, itemset); keep the frequent ones.
		support := &plan.Select{
			Input: &plan.Group{
				Input: &plan.GreatDivide{Dividend: plan.NewScan("transactions", transactions), Divisor: plan.NewScan("candidates", cand)},
				By:    []string{"itemset"},
				Aggs:  []agg.AggSpec{{Func: agg.Count, As: "support"}},
			},
			Pred: pred.Compare(pred.Attr("support"), pred.Ge, pred.ConstInt(int64(minSupport))),
		}
		// Unbudgeted over in-memory scans, the plan has no error to
		// return but a bug's.
		frequent, err := exec.Run(context.Background(), exec.CompileWith(support, nil, exec.CompileOptions{MemoryLimit: -1}))
		if err != nil {
			panic(err)
		}

		current = current[:0]
		for _, row := range frequent.Tuples() {
			items := candIx.set(int(row[0].AsInt()))
			results = append(results, Result{Items: items, Support: int(row[1].AsInt())})
			current = append(current, items)
		}
		sortItemsets(current)
	}
	sortResults(results)
	return results
}

// --- classical baseline Apriori ---

// HashMiner is the classical Apriori baseline: per-transaction
// subset counting against a candidate hash map.
type HashMiner struct{}

// Name implements Miner.
func (HashMiner) Name() string { return "apriori-hash-count" }

// Mine implements Miner.
func (HashMiner) Mine(t *Transactions, minSupport int) []Result {
	var results []Result
	freq := frequentItems(t, minSupport)
	results = append(results, freq...)
	current := make([]Itemset, len(freq))
	for i, f := range freq {
		current[i] = f.Items
	}

	for k := 2; len(current) > 0; k++ {
		candidates := generateCandidates(current, k)
		if len(candidates) == 0 {
			break
		}
		var candIx itemsetIndex
		for _, c := range candidates {
			candIx.add(c)
		}
		counts := make([]int, candIx.len())
		for _, id := range t.ids {
			items := t.rows[id]
			for cid := 0; cid < candIx.len(); cid++ {
				if containsSorted(items, candIx.set(cid)) {
					counts[cid]++
				}
			}
		}
		current = current[:0]
		for cid, n := range counts {
			if n >= minSupport {
				items := candIx.set(cid)
				results = append(results, Result{Items: items, Support: n})
				current = append(current, items)
			}
		}
		sortItemsets(current)
	}
	sortResults(results)
	return results
}

// frequentItems counts single-item supports.
func frequentItems(t *Transactions, minSupport int) []Result {
	counts := make(map[int64]int)
	for _, id := range t.ids {
		for _, it := range t.rows[id] {
			counts[it]++
		}
	}
	var out []Result
	for it, n := range counts {
		if n >= minSupport {
			out = append(out, Result{Items: Itemset{it}, Support: n})
		}
	}
	sortResults(out)
	return out
}

// generateCandidates joins frequent (k-1)-itemsets sharing a
// (k-2)-prefix and prunes candidates with an infrequent subset — the
// classic Apriori-gen. Frequent-subset membership runs through the
// TupleIndex, not string keys.
func generateCandidates(frequent []Itemset, k int) []Itemset {
	var prev itemsetIndex
	for _, s := range frequent {
		prev.add(s)
	}
	var out []Itemset
	for i := 0; i < len(frequent); i++ {
		for j := i + 1; j < len(frequent); j++ {
			a, b := frequent[i], frequent[j]
			if len(a) != k-1 || len(b) != k-1 {
				continue
			}
			if !samePrefix(a, b) || a[len(a)-1] >= b[len(b)-1] {
				continue
			}
			cand := append(append(Itemset{}, a...), b[len(b)-1])
			if allSubsetsFrequent(cand, &prev) {
				out = append(out, cand)
			}
		}
	}
	sortItemsets(out)
	return out
}

func samePrefix(a, b Itemset) bool {
	for i := 0; i < len(a)-1; i++ {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func allSubsetsFrequent(cand Itemset, prev *itemsetIndex) bool {
	sub := make(Itemset, 0, len(cand)-1)
	for skip := range cand {
		sub = sub[:0]
		for i, it := range cand {
			if i != skip {
				sub = append(sub, it)
			}
		}
		if !prev.contains(sub) {
			return false
		}
	}
	return true
}

// containsSorted reports whether the sorted list super contains all
// of the sorted list sub.
func containsSorted(super []int64, sub Itemset) bool {
	i := 0
	for _, want := range sub {
		for i < len(super) && super[i] < want {
			i++
		}
		if i >= len(super) || super[i] != want {
			return false
		}
		i++
	}
	return true
}

func sortItemsets(ss []Itemset) {
	sort.Slice(ss, func(i, j int) bool {
		a, b := ss[i], ss[j]
		for k := 0; k < len(a) && k < len(b); k++ {
			if a[k] != b[k] {
				return a[k] < b[k]
			}
		}
		return len(a) < len(b)
	})
}
