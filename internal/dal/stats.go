package dal

import (
	"cmp"
	"slices"
	"sync"
)

// groupSum is the summed length of one kind of group: every group of
// neighbours of degree nbr sharing ov vertices with a hyperedge of degree deg.
type groupSum struct {
	deg, nbr, ov uint32
	sum          uint64
}

func compareGroupSums(a, b groupSum) int {
	return cmp.Or(cmp.Compare(a.deg, b.deg), cmp.Compare(a.nbr, b.nbr), cmp.Compare(a.ov, b.ov))
}

// groupStats holds the store's group sums, computed once, the first time one
// is asked for: they are derived from the group table alone, so a store
// built, extended or loaded from the same hypergraph has the same ones.
type groupStats struct {
	once sync.Once
	sums []groupSum // sorted by (deg, nbr, ov)
}

// groupSums returns the store's group sums, computing them on first use in
// one pass over the group table.
func (s *Store) groupSums() []groupSum {
	s.stats.once.Do(func() {
		acc := map[groupSum]uint64{}
		for e, sp := range s.spans {
			d := uint32(s.h.Degree(uint32(e)))
			for k := sp.grpLo; k < sp.grpHi; k++ {
				acc[groupSum{deg: d, nbr: s.grpDeg[k], ov: s.grpOvl[k]}] += uint64(len(s.groupSlice(sp, k)))
			}
		}
		sums := make([]groupSum, 0, len(acc))
		for k, n := range acc {
			k.sum = n
			sums = append(sums, k)
		}
		slices.SortFunc(sums, compareGroupSums)
		s.stats.sums = sums
	})
	return s.stats.sums
}

// GroupSum returns Σ |AdjSet(e, nbr, ov)| over the hyperedges e of degree
// deg — divided by NumEdgesWithDegree(deg), the mean length of such a group —
// or, for ov < 0, that sum over every overlap size. The sums cover a few
// hundred keys on the bundled presets; they are computed once per store, in
// one pass over the group table, when the first one is asked for.
func (s *Store) GroupSum(deg, nbr, ov int) uint64 {
	if deg < 0 || nbr < 0 {
		return 0
	}
	sums := s.groupSums()
	key := groupSum{deg: uint32(deg), nbr: uint32(nbr), ov: uint32(max(ov, 0))}
	i, found := slices.BinarySearchFunc(sums, key, compareGroupSums)
	if ov >= 0 {
		if !found {
			return 0
		}
		return sums[i].sum
	}
	var total uint64
	for ; i < len(sums) && sums[i].deg == key.deg && sums[i].nbr == key.nbr; i++ {
		total += sums[i].sum
	}
	return total
}
