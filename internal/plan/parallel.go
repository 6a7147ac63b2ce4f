package plan

import (
	"fmt"
	"strings"

	"divlaws/internal/division"
	"divlaws/internal/schema"
)

// ParallelDivide is the intra-operator parallel form of Divide: the
// dividend is hash-partitioned on the quotient attributes A across
// Workers goroutines, each partition divided independently against
// the replicated divisor, and the quotients unioned. The partitioning
// makes precondition c2 of Law 2 hold between any two partitions by
// construction (§5.1.1), so the rewrite is always safe.
type ParallelDivide struct {
	Dividend, Divisor Node
	// Workers is the most goroutines the division runs; 0 means
	// GOMAXPROCS, and 1 divides inline, on the consumer's goroutine,
	// exactly as Divide does.
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

// Partitioning describes the partitioning for EXPLAIN output.
func (d *ParallelDivide) Partitioning() string { return partitioning(d.Dividend, d.Divisor) }

// partitioning is the one partitioning of both parallel divisions:
// the dividend hash-partitioned on the quotient attributes A.
func partitioning(dividend, divisor Node) string {
	split, err := division.SplitOf(dividend.Schema(), divisor.Schema())
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
// GreatDivide, partitioned like ParallelDivide: the dividend is
// hash-partitioned on the quotient attributes A, the divisor
// replicated, and the per-partition quotients unioned. Whether (a, c)
// belongs to r1 ÷* r2 depends only on a's group of the dividend and on
// the whole divisor, so c2's argument for Law 2 carries over: the
// partitions' quotients are disjoint and their union is the quotient.
// (Law 13's partitioning of the divisor on C would copy the dividend,
// the large input, to every worker.)
type ParallelGreatDivide struct {
	Dividend, Divisor Node
	// Workers is as in ParallelDivide.
	Workers int
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

// Partitioning describes the partitioning for EXPLAIN output.
func (d *ParallelGreatDivide) Partitioning() string { return partitioning(d.Dividend, d.Divisor) }

// String implements Node.
func (d *ParallelGreatDivide) String() string {
	return fmt.Sprintf("ParallelGreatDivide[%s, workers=%d, %s]", division.GreatAlgoHash, d.Workers, d.Partitioning())
}
