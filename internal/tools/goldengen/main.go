// Command goldengen writes the cross-version golden files with the encoders
// of whatever revision of this module it is compiled in: a DAL store
// (internal/dal/testdata/parent_*.ohmd) and the snapshot of an interrupted
// mining run (internal/engine/testdata/parent_*.ohmc). `make golden
// REV=<git rev> TAG=<name>` exports that revision, drops this file into the
// export and runs it there, so "written by the parent's encoder" is a
// command; it therefore sticks to API that has not moved since PR 13. The
// tests that load the files rebuild the same inputs (dal.goldenHypergraph,
// engine.TestParentSnapshotResumes, engine.TestParentChainSnapshotResumes,
// engine.TestParentCliqueSnapshotResumes).
package main

import (
	"flag"
	"fmt"
	"os"

	"ohminer/internal/checkpoint"
	"ohminer/internal/dal"
	"ohminer/internal/engine"
	"ohminer/internal/gen"
	"ohminer/internal/hypergraph"
	"ohminer/internal/pattern"
)

// lastSink keeps the latest snapshot of a run.
type lastSink struct{ snap *checkpoint.Snapshot }

func (s *lastSink) WriteSnapshot(snap *checkpoint.Snapshot) (int64, error) {
	s.snap = snap
	return 0, nil
}

func main() {
	ohmd := flag.String("ohmd", "", "write the DAL store of the generated hypergraph here")
	ohmc := flag.String("ohmc", "", "write the snapshot of the interrupted star run here")
	chain := flag.String("chain", "", "write the snapshot of the interrupted chain run here")
	clique := flag.String("clique", "", "write the snapshot of the interrupted 4-clique run here")
	flag.Parse()
	if err := run(*ohmd, *ohmc, *chain, *clique); err != nil {
		fmt.Fprintln(os.Stderr, "goldengen:", err)
		os.Exit(1)
	}
}

// interrupted mines p with one instrumented worker until Limit stops it — the
// final quiesce leaves remainders at every depth — and writes the snapshot.
func interrupted(store *dal.Store, p *pattern.Pattern, limit uint64, path string) error {
	sink := &lastSink{}
	res, err := engine.Mine(store, p, engine.Options{Workers: 1, Instrument: true, Limit: limit, Checkpoint: sink})
	if err != nil {
		return err
	}
	if sink.snap == nil || !res.Truncated {
		return fmt.Errorf("the run was not interrupted (truncated=%v)", res.Truncated)
	}
	_, err = sink.snap.WriteFile(path)
	return err
}

func run(ohmd, ohmc, chain, clique string) error {
	if ohmd != "" {
		// Dense enough for overlap sizes to vary inside a degree group, and
		// for some groups to be longer than the sort's insertion cut-off.
		h := gen.MustGenerate(gen.Config{Name: "golden", NumVertices: 60, NumEdges: 140,
			Communities: 3, MemberOverlap: 1.5, EdgeSizeMin: 2, EdgeSizeMax: 9, EdgeSizeMean: 5, Seed: 21})
		if err := dal.Build(h).SaveFile(ohmd); err != nil {
			return err
		}
	}
	if ohmc != "" {
		// The 3-star over a 40-edge star with a two-vertex hub.
		const n = 40
		edges := make([][]uint32, n)
		for i := range edges {
			edges[i] = []uint32{0, 1, uint32(i + 2)}
		}
		store := dal.Build(hypergraph.MustBuild(n+2, edges, nil))
		p := pattern.MustNew([][]uint32{{0, 1, 2}, {0, 1, 3}, {0, 1, 4}}, nil)
		if err := interrupted(store, p, 2500, ohmc); err != nil {
			return err
		}
	}
	if chain != "" {
		// The path of three 2-vertex hyperedges over the complete graph on 12
		// vertices: its last position must not overlap the first-bound end
		// (Step.Disc), and in a complete graph half of what generation offers
		// there does.
		const n = 12
		var edges [][]uint32
		for a := uint32(0); a < n; a++ {
			for b := a + 1; b < n; b++ {
				edges = append(edges, []uint32{a, b})
			}
		}
		store := dal.Build(hypergraph.MustBuild(n, edges, nil))
		p := pattern.MustNew([][]uint32{{0, 1}, {1, 2}, {2, 3}}, nil)
		if err := interrupted(store, p, 2000, chain); err != nil {
			return err
		}
	}
	if clique != "" {
		// The 4-clique on a dense block: 36 hyperedges sharing a core of 64
		// vertices, one private vertex each, so vertex sets and adjacency
		// groups carry bitmap windows. Any four of them are an embedding.
		const core, k = 64, 36
		edges := make([][]uint32, k)
		for i := range edges {
			for v := uint32(0); v < core; v++ {
				edges[i] = append(edges[i], v)
			}
			edges[i] = append(edges[i], core+uint32(i))
		}
		store := dal.Build(hypergraph.MustBuild(core+k, edges, nil))
		if err := interrupted(store, pattern.MustNew(edges[:4], nil), 20000, clique); err != nil {
			return err
		}
	}
	return nil
}
