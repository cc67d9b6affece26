// Package motif implements hypergraph motif counting on top of the mining
// engine — the downstream-application layer the paper's introduction
// motivates (pattern search in biological and collaboration networks): it
// enumerates every isomorphism class of K-hyperedge patterns within size
// bounds (via pattern.EnumerateShapes) and counts each class's occurrences,
// yielding a motif census comparable across hypergraphs, plus a frequency
// filter for frequent-subhypergraph queries.
package motif

import (
	"context"
	"fmt"
	"math"
	"sort"
	"time"

	"ohminer/internal/dal"
	"ohminer/internal/engine"
	"ohminer/internal/pattern"
)

// Entry is one census row: a shape and its occurrence counts.
type Entry struct {
	Shape pattern.Shape
	// Pattern is the concrete representative that was mined.
	Pattern *pattern.Pattern
	// Ordered/Unique are the embedding counts (Unique = per unordered
	// subhypergraph).
	Ordered uint64
	Unique  uint64
	// Elapsed is the mining time for this shape.
	Elapsed time.Duration
	// Truncated marks counts cut short by the census's context or by
	// Options.Engine.Limit.
	Truncated bool
}

// Options bounds a census run.
type Options struct {
	// K is the number of hyperedges per motif (1..4).
	K int
	// MaxRegionSize bounds each Venn region of the enumerated shapes.
	MaxRegionSize int
	// MaxVertices bounds the motif vertex count.
	MaxVertices int
	// Engine configures the underlying miner (workers, a per-shape limit);
	// the census's bound in time is its context.
	Engine engine.Options
}

// Census counts every K-hyperedge motif within the bounds. A shape with a
// hyperedge degree no data hyperedge has cannot match: its entry is zero
// without a run. Entries come back sorted by descending Unique count, ties
// by shape key. When ctx ends, the shape being mined and every later one are
// Truncated, and Census returns all the entries together with ctx.Err().
func Census(ctx context.Context, store *dal.Store, opts Options) ([]Entry, error) {
	shapes, err := pattern.EnumerateShapes(opts.K, opts.MaxRegionSize, opts.MaxVertices)
	if err != nil {
		return nil, err
	}
	entries := make([]Entry, 0, len(shapes))
	for _, s := range shapes {
		p, err := s.Pattern()
		if err != nil {
			return nil, fmt.Errorf("motif: realize %s: %w", s, err)
		}
		if absentDegree(store, p) {
			entries = append(entries, Entry{Shape: s, Pattern: p})
			continue
		}
		res, err := engine.MineContext(ctx, store, p, opts.Engine)
		if err != nil && ctx.Err() == nil {
			return nil, fmt.Errorf("motif: mine %s: %w", s, err)
		}
		entries = append(entries, Entry{
			Shape: s, Pattern: p,
			Ordered: res.Ordered, Unique: res.Unique,
			Elapsed: res.Elapsed, Truncated: res.Truncated,
		})
	}
	sort.Slice(entries, func(i, j int) bool {
		if entries[i].Unique != entries[j].Unique {
			return entries[i].Unique > entries[j].Unique
		}
		return entries[i].Shape.Key() < entries[j].Shape.Key()
	})
	return entries, ctx.Err()
}

// absentDegree reports whether some hyperedge of p has a degree no data
// hyperedge has.
func absentDegree(store *dal.Store, p *pattern.Pattern) bool {
	for i := 0; i < p.NumEdges(); i++ {
		if store.NumEdgesWithDegree(p.Degree(i)) == 0 {
			return true
		}
	}
	return false
}

// Frequent filters a census to motifs with at least minUnique unordered
// occurrences — the frequent-subhypergraph query.
func Frequent(entries []Entry, minUnique uint64) []Entry {
	out := make([]Entry, 0, len(entries))
	for _, e := range entries {
		if e.Unique >= minUnique {
			out = append(out, e)
		}
	}
	return out
}

// Profile compares two hypergraphs by their normalized motif frequency
// vectors over a shared census configuration, returning the cosine
// similarity — a structural fingerprint comparison in the spirit of
// graphlet kernels, here over hyperedge motifs.
func Profile(a, b []Entry) (float64, error) {
	if len(a) != len(b) {
		return 0, fmt.Errorf("motif: census sizes differ (%d vs %d)", len(a), len(b))
	}
	byKey := make(map[string]uint64, len(b))
	for _, e := range b {
		byKey[e.Shape.Key()] = e.Unique
	}
	var dot, na, nb float64
	for _, e := range a {
		other, ok := byKey[e.Shape.Key()]
		if !ok {
			return 0, fmt.Errorf("motif: censuses cover different shapes (%s)", e.Shape)
		}
		x, y := float64(e.Unique), float64(other)
		dot += x * y
		na += x * x
		nb += y * y
	}
	if na == 0 || nb == 0 {
		return 0, nil
	}
	return dot / (math.Sqrt(na) * math.Sqrt(nb)), nil
}
