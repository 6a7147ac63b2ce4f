// Package datagen produces the synthetic workloads driving property
// tests and benchmarks: suppliers-and-parts databases (paper §4),
// Quest-style market-basket transaction sets (paper §3), and random
// dividend/divisor pairs with controllable containment density.
//
// All generators are deterministic given their seed, so benchmark
// runs are reproducible.
package datagen

import (
	"fmt"
	"math/rand"

	"divlaws/internal/relation"
	"divlaws/internal/schema"
	"divlaws/internal/value"
)

// SuppliersParts configures the paper's §4 scenario generator.
type SuppliersParts struct {
	Suppliers int // number of suppliers
	Parts     int // number of parts
	Colors    int // number of distinct colors
	// AvgSupplied is the mean number of parts each supplier
	// supplies.
	AvgSupplied int
	Seed        int64
}

// Generate produces the supplies(s#, p#) and parts(p#, color)
// tables. Suppliers are biased to supply whole color groups so
// division queries have nonempty answers.
func (g SuppliersParts) Generate() (supplies, parts *relation.Relation) {
	rng := rand.New(rand.NewSource(g.Seed))
	parts = relation.New(schema.New("p#", "color"))
	colorOf := make(map[int]int, g.Parts)
	for p := 0; p < g.Parts; p++ {
		c := rng.Intn(g.Colors)
		colorOf[p] = c
		parts.Insert(relation.Tuple{
			value.String(fmt.Sprintf("p%d", p)),
			value.String(fmt.Sprintf("color%d", c)),
		})
	}
	// Parts per color, for whole-group supply decisions.
	byColor := make(map[int][]int, g.Colors)
	for p, c := range colorOf {
		byColor[c] = append(byColor[c], p)
	}

	supplies = relation.New(schema.New("s#", "p#"))
	for s := 0; s < g.Suppliers; s++ {
		sid := value.String(fmt.Sprintf("s%d", s))
		supplied := make(map[int]bool)
		// Roughly half the suppliers adopt 1-2 full color groups,
		// guaranteeing division hits; everyone adds random parts.
		if rng.Intn(2) == 0 && g.Colors > 0 {
			for k := 0; k < 1+rng.Intn(2); k++ {
				for _, p := range byColor[rng.Intn(g.Colors)] {
					supplied[p] = true
				}
			}
		}
		for len(supplied) < g.AvgSupplied {
			supplied[rng.Intn(g.Parts)] = true
		}
		for p := range supplied {
			supplies.Insert(relation.Tuple{sid, value.String(fmt.Sprintf("p%d", p))})
		}
	}
	return supplies, parts
}

// Baskets configures the Quest-style market-basket generator used
// for frequent itemset discovery benchmarks: a universe of items
// with Zipf-like popularity, transactions of geometric-ish size.
type Baskets struct {
	Transactions int
	Items        int     // universe size
	AvgSize      int     // mean transaction size
	Skew         float64 // Zipf exponent; 0 = uniform
	Seed         int64
}

// Transaction is one basket: an id and its item set.
type Transaction struct {
	ID    int64
	Items []int64
}

// Generate produces the raw baskets.
func (g Baskets) Generate() []Transaction {
	rng := rand.New(rand.NewSource(g.Seed))
	sampler := newZipf(rng, g.Items, g.Skew)
	out := make([]Transaction, g.Transactions)
	for i := range out {
		size := 1 + rng.Intn(2*g.AvgSize-1) // mean ≈ AvgSize
		set := make(map[int64]bool, size)
		for len(set) < size && len(set) < g.Items {
			set[sampler()] = true
		}
		items := make([]int64, 0, len(set))
		for it := range set {
			items = append(items, it)
		}
		out[i] = Transaction{ID: int64(i), Items: items}
	}
	return out
}

// Relation renders the baskets in the paper's vertical layout:
// transactions(tid, item).
func (g Baskets) Relation() *relation.Relation {
	return TransactionsRelation(g.Generate())
}

// TransactionsRelation converts baskets to transactions(tid, item).
func TransactionsRelation(txs []Transaction) *relation.Relation {
	r := relation.New(schema.New("tid", "item"))
	for _, tx := range txs {
		for _, it := range tx.Items {
			r.Insert(relation.Tuple{value.Int(tx.ID), value.Int(it)})
		}
	}
	return r
}

// newZipf returns a sampler over [0, n) with the given skew; skew 0
// degenerates to uniform.
func newZipf(rng *rand.Rand, n int, skew float64) func() int64 {
	if skew <= 0 {
		return func() int64 { return int64(rng.Intn(n)) }
	}
	z := rand.NewZipf(rng, 1+skew, 1, uint64(n-1))
	return func() int64 { return int64(z.Uint64()) }
}

// DividePair configures the random dividend/divisor generator for
// small-divide benchmarks.
type DividePair struct {
	Groups      int // distinct quotient-candidate values in the dividend
	GroupSize   int // average tuples per group
	DivisorSize int // tuples in the divisor
	Domain      int // size of the element (B) domain
	// HitRate is the fraction of groups constructed to contain the
	// entire divisor.
	HitRate float64
	Seed    int64
	// Strings renders both attributes as composite identifier strings
	// ("supplier-000042/region-042", "part-000007/bin-07") instead of
	// ints — the string-keyed workloads behind the wide-hash
	// benchmarks, shaped like the composite natural keys (entity id
	// plus qualifiers, 18–28 bytes) that string-keyed joins and
	// divisions see in practice. The relational structure is
	// identical to the int form.
	Strings bool
}

// aValue and bValue render a quotient-candidate or element id under
// the pair's value kind.
func (g DividePair) aValue(a int64) value.Value {
	if g.Strings {
		return value.String(fmt.Sprintf("supplier-%06d/region-%03d", a, a%997))
	}
	return value.Int(a)
}

// BValue renders an element id exactly as Generate does — for
// harnesses that build auxiliary relations (join build sides) that
// must share the pair's key domain.
func (g DividePair) BValue(b int64) value.Value { return g.bValue(b) }

func (g DividePair) bValue(b int64) value.Value {
	if g.Strings {
		return value.String(fmt.Sprintf("part-%06d/bin-%02d", b, b%89))
	}
	return value.Int(b)
}

// Generate produces r1(a, b) and r2(b).
func (g DividePair) Generate() (r1, r2 *relation.Relation) {
	rng := rand.New(rand.NewSource(g.Seed))
	r2 = relation.New(schema.New("b"))
	divisor := make([]int64, 0, g.DivisorSize)
	for len(divisor) < g.DivisorSize {
		b := int64(rng.Intn(g.Domain))
		if r2.Insert(relation.Tuple{g.bValue(b)}) {
			divisor = append(divisor, b)
		}
	}
	r1 = relation.New(schema.New("a", "b"))
	for a := 0; a < g.Groups; a++ {
		av := g.aValue(int64(a))
		if rng.Float64() < g.HitRate {
			for _, b := range divisor {
				r1.Insert(relation.Tuple{av, g.bValue(b)})
			}
		}
		for i := 0; i < g.GroupSize; i++ {
			r1.Insert(relation.Tuple{av, g.bValue(int64(rng.Intn(g.Domain)))})
		}
	}
	return r1, r2
}

// GreatDividePair configures random inputs for great-divide
// benchmarks: the divisor has several groups keyed by c.
type GreatDividePair struct {
	Groups           int // dividend groups
	GroupSize        int
	DivisorGroups    int
	DivisorGroupSize int
	Domain           int
	HitRate          float64
	Seed             int64
}

// Generate produces r1(a, b) and r2(b, c).
func (g GreatDividePair) Generate() (r1, r2 *relation.Relation) {
	rng := rand.New(rand.NewSource(g.Seed))
	r2 = relation.New(schema.New("b", "c"))
	groups := make([][]int64, g.DivisorGroups)
	for c := range groups {
		seen := make(map[int64]bool)
		for len(seen) < g.DivisorGroupSize {
			b := int64(rng.Intn(g.Domain))
			if !seen[b] {
				seen[b] = true
				groups[c] = append(groups[c], b)
				r2.Insert(relation.Tuple{value.Int(b), value.Int(int64(c))})
			}
		}
	}
	r1 = relation.New(schema.New("a", "b"))
	for a := 0; a < g.Groups; a++ {
		av := value.Int(int64(a))
		if rng.Float64() < g.HitRate && g.DivisorGroups > 0 {
			for _, b := range groups[rng.Intn(g.DivisorGroups)] {
				r1.Insert(relation.Tuple{av, value.Int(b)})
			}
		}
		for i := 0; i < g.GroupSize; i++ {
			r1.Insert(relation.Tuple{av, value.Int(int64(rng.Intn(g.Domain)))})
		}
	}
	return r1, r2
}
