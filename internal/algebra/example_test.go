package algebra_test

import (
	"fmt"

	"divlaws/internal/algebra"
	"divlaws/internal/relation"
)

// ExampleDivide reproduces the paper's Figure 1: which groups of the
// dividend contain both divisor elements 1 and 3?
func ExampleDivide() {
	r1 := relation.Ints([]string{"a", "b"}, [][]int64{
		{1, 1}, {1, 4},
		{2, 1}, {2, 2}, {2, 3}, {2, 4},
		{3, 1}, {3, 3}, {3, 4},
	})
	r2 := relation.Ints([]string{"b"}, [][]int64{{1}, {3}})
	fmt.Println(algebra.Divide(r1, r2))
	// Output:
	// a
	// 2
	// 3
}

// ExampleGreatDivide reproduces Figure 2: the divisor has two groups
// keyed by c, and each dividend group is tested against each.
func ExampleGreatDivide() {
	r1 := relation.Ints([]string{"a", "b"}, [][]int64{
		{1, 1}, {1, 4},
		{2, 1}, {2, 2}, {2, 3}, {2, 4},
		{3, 1}, {3, 3}, {3, 4},
	})
	r2 := relation.Ints([]string{"b", "c"}, [][]int64{
		{1, 1}, {2, 1}, {4, 1},
		{1, 2}, {3, 2},
	})
	fmt.Println(algebra.GreatDivide(r1, r2))
	// Output:
	// a c
	// 2 1
	// 2 2
	// 3 2
}
