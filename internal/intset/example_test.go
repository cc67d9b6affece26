package intset_test

import (
	"fmt"

	"ohminer/internal/intset"
)

// ExampleIntersect demonstrates the basic sorted-set operations the mining
// engine is built from.
func ExampleIntersect() {
	a := []uint32{1, 3, 5, 7, 9}
	b := []uint32{3, 4, 5, 6, 7}
	fmt.Println(intset.Intersect(a, b, nil))
	fmt.Println(intset.IntersectCount(a, b))
	fmt.Println(intset.Intersects(a, []uint32{2, 4, 6}))
	fmt.Println(intset.IsSubset([]uint32{3, 7}, a))
	// Output:
	// [3 5 7]
	// 3
	// false
	// true
}
