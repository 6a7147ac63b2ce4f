package division_test

import (
	"fmt"

	"divlaws/internal/division"
	"divlaws/internal/relation"
)

// ExampleHashDivide runs the engine's hash-division over materialized
// relations; it computes the same quotient as the reference,
// algebra.Divide.
func ExampleHashDivide() {
	r1 := relation.Ints([]string{"a", "b"}, [][]int64{{1, 1}, {1, 2}, {2, 1}})
	r2 := relation.Ints([]string{"b"}, [][]int64{{1}, {2}})
	fmt.Println(division.HashDivide(r1, r2))
	// Output:
	// a
	// 1
}
