package main

import (
	"fmt"
	"math/rand"

	"ohminer/internal/intset"
)

func newSeededRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// kernelByName resolves the -kernel flag to a set-kernel family; any but the
// adaptive one is run by internal/baseline.
func kernelByName(name string) (intset.Kernel, error) {
	switch name {
	case "adaptive":
		return intset.Adaptive, nil
	case "fast":
		return intset.Fast, nil
	case "scalar":
		return intset.Scalar, nil
	}
	return intset.Kernel{}, fmt.Errorf("unknown -kernel %q (have adaptive, fast, scalar)", name)
}
