package plan

import (
	"fmt"
	"strings"

	"divlaws/internal/division"
	"divlaws/internal/schema"
)

// ParallelDivide is the intra-operator parallel form of Divide: the
// dividend is hash-partitioned on the quotient attributes A across
// Workers goroutines, each partition divided independently, and the
// quotients unioned. The partitioning makes precondition c2 of Law 2
// hold between any two partitions by construction (§5.1.1), so the
// rewrite is always safe.
type ParallelDivide struct {
	Dividend, Divisor Node
	// Workers is the partition count, and so the most goroutines the
	// exchange runs (one per non-empty partition); 0 means GOMAXPROCS.
	// 1 still runs the exchange, with one partition divided by one
	// worker goroutine.
	Workers int
}

// Schema implements Node.
func (d *ParallelDivide) Schema() schema.Schema {
	split, err := division.SmallSplit(d.Dividend.Schema(), d.Divisor.Schema())
	if err != nil {
		panic(err)
	}
	return split.A
}

// Children implements Node.
func (d *ParallelDivide) Children() []Node { return []Node{d.Dividend, d.Divisor} }

// WithChildren implements Node.
func (d *ParallelDivide) WithChildren(ch []Node) Node {
	mustArity("ParallelDivide", ch, 2)
	return &ParallelDivide{Dividend: ch[0], Divisor: ch[1], Workers: d.Workers}
}

// Partitioning describes the chosen partitioning strategy for
// EXPLAIN output: hash partitioning on the quotient attributes.
func (d *ParallelDivide) Partitioning() string {
	split, err := division.SmallSplit(d.Dividend.Schema(), d.Divisor.Schema())
	if err != nil {
		return "hash(?)"
	}
	return fmt.Sprintf("hash(%s)", strings.Join(split.A.Attrs(), ", "))
}

// String implements Node.
func (d *ParallelDivide) String() string {
	return fmt.Sprintf("ParallelDivide[%s, workers=%d, %s]", division.AlgoHash, d.Workers, d.Partitioning())
}

// ParallelGreatDivide is the intra-operator parallel form of
// GreatDivide: the dividend is replicated, the divisor hash-
// partitioned on its group attributes C across Workers goroutines,
// and the per-partition quotients unioned. Hash partitioning keeps
// every divisor group in one partition, so the πC-disjointness
// premise of Law 13 holds by construction (§5.2.1).
type ParallelGreatDivide struct {
	Dividend, Divisor Node
	Workers           int
}

// Schema implements Node.
func (d *ParallelGreatDivide) Schema() schema.Schema {
	split, err := division.GreatSplit(d.Dividend.Schema(), d.Divisor.Schema())
	if err != nil {
		panic(err)
	}
	return split.A.Concat(split.C)
}

// Children implements Node.
func (d *ParallelGreatDivide) Children() []Node { return []Node{d.Dividend, d.Divisor} }

// WithChildren implements Node.
func (d *ParallelGreatDivide) WithChildren(ch []Node) Node {
	mustArity("ParallelGreatDivide", ch, 2)
	return &ParallelGreatDivide{Dividend: ch[0], Divisor: ch[1], Workers: d.Workers}
}

// Partitioning describes the chosen partitioning strategy for
// EXPLAIN output: hash partitioning on the divisor group attributes.
func (d *ParallelGreatDivide) Partitioning() string {
	split, err := division.GreatSplit(d.Dividend.Schema(), d.Divisor.Schema())
	if err != nil {
		return "hash(?)"
	}
	return fmt.Sprintf("hash(%s)", strings.Join(split.C.Attrs(), ", "))
}

// String implements Node.
func (d *ParallelGreatDivide) String() string {
	return fmt.Sprintf("ParallelGreatDivide[%s, workers=%d, %s]", division.GreatAlgoHash, d.Workers, d.Partitioning())
}
