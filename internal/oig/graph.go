// Package oig implements the redundancy-free compiler of Sec. 4.3.
//
// Plans come from the pattern's Venn signature (package sig): the compiler
// picks the matching order by cost (order.go), groups the non-empty overlaps
// into classes by their vertex set — the paper's MergeForUnique, done on the
// signature — prunes the empty overlaps another condition already implies,
// and emits the overlap-centric execution plan (plan.go, merged.go): per
// matching step, the candidate-generation contract and the conditions
// |∩_{i∈M} c_i| = w that, by Theorem 1, make a tuple an embedding — the one
// plan language the engine and internal/baseline run and VerifyProgram
// (verify.go) checks.
//
// The Overlap Intersection Graph (OIG) of Algorithm 1 — a DAG whose level-1
// vertices are the pattern's hyperedges and whose deeper vertices are
// overlaps formed by intersecting two vertices of the previous level, with
// identical overlaps merged — is built (BuildGraph, this file) only for
// cmd/ohmplan, which prints it with its overlap order and pruning groups.
package oig

import (
	"fmt"
	"math/bits"
	"sort"
	"strings"

	"ohminer/internal/intset"
)

// Node is one vertex of the OIG: a hyperedge (level 1) or an overlap.
type Node struct {
	ID    int
	Level int      // 1-based BFS level
	Set   []uint32 // pattern vertices of the hyperedge/overlap
	// Masks lists every hyperedge subset whose intersection equals Set and
	// that was derived for this node; Masks[0] is the canonical derivation.
	// Merged nodes (MergeForUnique) carry several masks.
	Masks []uint32
	// Preds holds the derivation pairs (IDs of the two parent nodes), one
	// per mask beyond level 1.
	Preds [][2]int
}

// Graph is the OIG of one pattern.
type Graph struct {
	Nodes  []*Node
	Levels [][]int // node IDs per level (index 0 = level 1)
	M      int     // number of pattern hyperedges
}

// BuildGraph constructs the OIG for the given hyperedges following
// Algorithm 1: level by level, intersect every overlapping pair of the
// current level's vertices, merging identical results in the next level.
func BuildGraph(edges [][]uint32) *Graph {
	g := &Graph{M: len(edges)}
	level := make([]int, 0, len(edges))
	for i, e := range edges {
		n := &Node{ID: len(g.Nodes), Level: 1, Set: e, Masks: []uint32{1 << i}}
		g.Nodes = append(g.Nodes, n)
		level = append(level, n.ID)
	}
	g.Levels = append(g.Levels, level)

	for len(level) > 1 {
		// byKey merges identical overlap sets within the next level.
		byKey := map[string]*Node{}
		var next []int
		for a := 0; a < len(level); a++ {
			for b := a + 1; b < len(level); b++ {
				na, nb := g.Nodes[level[a]], g.Nodes[level[b]]
				ov := intset.Intersect(na.Set, nb.Set, nil)
				if len(ov) == 0 {
					continue
				}
				mask := na.Masks[0] | nb.Masks[0]
				if mask == na.Masks[0] || mask == nb.Masks[0] {
					// One operand's hyperedge set subsumes the other's;
					// the "overlap" is an existing node's set re-derived.
					// Algorithm 1 still records it so the plan can reuse it,
					// but it must not spawn an identical node cascade.
					continue
				}
				key := setKey(ov)
				if n, ok := byKey[key]; ok {
					n.Masks = append(n.Masks, mask)
					n.Preds = append(n.Preds, [2]int{na.ID, nb.ID})
					continue
				}
				n := &Node{
					ID:    len(g.Nodes),
					Level: len(g.Levels) + 1,
					Set:   ov,
					Masks: []uint32{mask},
					Preds: [][2]int{{na.ID, nb.ID}},
				}
				g.Nodes = append(g.Nodes, n)
				byKey[key] = n
				next = append(next, n.ID)
			}
		}
		if len(next) == 0 {
			break
		}
		sort.Ints(next)
		g.Levels = append(g.Levels, next)
		level = next
	}
	return g
}

func setKey(s []uint32) string {
	b := make([]byte, 0, len(s)*4)
	for _, v := range s {
		b = append(b, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
	}
	return string(b)
}

// NumLevels returns the OIG depth.
func (g *Graph) NumLevels() int { return len(g.Levels) }

// OverlapOrder returns the node IDs in overlap order for the identity
// matching order (Sec. 4.3.2): nodes are sorted by the step at which all
// the hyperedges they depend on are matched (the highest bit of their
// canonical mask), then by level, then by ID — a topological order of the
// OIG compatible with the matching order.
func (g *Graph) OverlapOrder() []int {
	ids := make([]int, len(g.Nodes))
	for i := range ids {
		ids[i] = i
	}
	// A merged node is ready only once every derivation's hyperedges are
	// matched (Figure 8 places o45 after both o4 and o5).
	step := func(n *Node) int {
		s := 0
		for _, mk := range n.Masks {
			if b := bits.Len32(mk) - 1; b > s {
				s = b
			}
		}
		return s
	}
	sort.SliceStable(ids, func(a, b int) bool {
		na, nb := g.Nodes[ids[a]], g.Nodes[ids[b]]
		if sa, sb := step(na), step(nb); sa != sb {
			return sa < sb
		}
		if na.Level != nb.Level {
			return na.Level < nb.Level
		}
		return na.ID < nb.ID
	})
	return ids
}

// Groups partitions the node IDs of one level into the connectivity groups
// of the group-based pruning (Sec. 4.3.2): two nodes share a group when
// every pair of hyperedges drawn from their combined canonical masks
// overlaps in the pattern. Disconnection checks are only needed within a
// group; across groups an empty overlap is implied by a level-1
// disconnection.
func (g *Graph) Groups(level int, pairConnected func(i, j int) bool) [][]int {
	ids := g.Levels[level-1]
	parent := make(map[int]int, len(ids))
	var find func(x int) int
	find = func(x int) int {
		if parent[x] != x {
			parent[x] = find(parent[x])
		}
		return parent[x]
	}
	for _, id := range ids {
		parent[id] = id
	}
	compatible := func(a, b *Node) bool {
		ma, mb := a.Masks[0], b.Masks[0]
		for i := 0; i < g.M; i++ {
			if ma&(1<<i) == 0 {
				continue
			}
			for j := 0; j < g.M; j++ {
				if mb&(1<<j) == 0 || i == j {
					continue
				}
				if !pairConnected(i, j) {
					return false
				}
			}
		}
		return true
	}
	for x := 0; x < len(ids); x++ {
		for y := x + 1; y < len(ids); y++ {
			if compatible(g.Nodes[ids[x]], g.Nodes[ids[y]]) {
				parent[find(ids[x])] = find(ids[y])
			}
		}
	}
	byRoot := map[int][]int{}
	for _, id := range ids {
		r := find(id)
		byRoot[r] = append(byRoot[r], id)
	}
	var roots []int
	for r := range byRoot {
		roots = append(roots, r)
	}
	sort.Ints(roots)
	out := make([][]int, 0, len(roots))
	for _, r := range roots {
		sort.Ints(byRoot[r])
		out = append(out, byRoot[r])
	}
	return out
}

// String renders the OIG level by level, in the style of Figure 8.
func (g *Graph) String() string {
	var b strings.Builder
	for li, ids := range g.Levels {
		fmt.Fprintf(&b, "level %d:", li+1)
		for _, id := range ids {
			n := g.Nodes[id]
			fmt.Fprintf(&b, " o%d%v", n.ID, n.Set)
			if len(n.Masks) > 1 {
				fmt.Fprintf(&b, "(merged×%d)", len(n.Masks))
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}
