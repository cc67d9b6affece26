package main

import (
	"embed"
	"encoding/json"
	"fmt"
	"math/rand"
	"strconv"
	"strings"

	"ohminer"
)

// catalogJSON is the committed pattern catalogue: for each store-based
// workload the pattern literals it replays with their embedding counts, which
// are the expected outputs of every seed (a count does not depend on how a
// pattern is written). `-update` rebuilds it.
//
//go:embed catalog.json
var catalogJSON []byte

// expectedFS holds expected.seed<N>.json for the documented seeds (1, and 2
// held out): the stream workload's totals after every timed batch, counted by
// mining each epoch's live hyperedges from scratch when -update wrote the
// file. Other seeds are checked by the stream's own arithmetic and a recount
// of the final graph only.
//
//go:embed expected.seed*.json
var expectedFS embed.FS

// expectedFile is the content of one expected.seed<N>.json.
type expectedFile struct {
	StreamTotals [][]uint64 `json:"stream_window_totals"`
}

// expectedStreamTotals returns the seed's committed totals, nil when the seed
// has no file.
func expectedStreamTotals(seed int64) ([][]uint64, error) {
	name := fmt.Sprintf("expected.seed%d.json", seed)
	data, err := expectedFS.ReadFile(name)
	if err != nil {
		return nil, nil // no file for this seed
	}
	var f expectedFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	if len(f.StreamTotals) != streamBatches {
		return nil, fmt.Errorf("%s: totals for %d batches, the feed has %d; run -update", name, len(f.StreamTotals), streamBatches)
	}
	return f.StreamTotals, nil
}

// catalogEntry is one pattern of the catalogue.
type catalogEntry struct {
	Pattern string  `json:"pattern"`
	Ordered uint64  `json:"ordered"`
	Unique  uint64  `json:"unique"`
	Aut     int     `json:"aut"`
	MS      float64 `json:"ms"` // single-thread Mine time when the catalogue was built
}

// catalog maps a workload name to its patterns.
type catalog map[string][]catalogEntry

func loadCatalog() (catalog, error) {
	var c catalog
	if err := json.Unmarshal(catalogJSON, &c); err != nil {
		return nil, fmt.Errorf("catalog.json: %w", err)
	}
	return c, nil
}

// entries returns the workload's catalogue patterns, only the first few at
// tiny scale.
func (c catalog) entries(name string, e *env, tinyN int) ([]catalogEntry, error) {
	es := c[name]
	if len(es) == 0 {
		return nil, fmt.Errorf("catalog.json has no patterns for %s; run -update", name)
	}
	if e.tiny && len(es) > tinyN {
		es = es[:tinyN]
	}
	return es, nil
}

// rngFor returns the generator of one workload's inputs: the same seed gives
// the same inputs, and workloads do not share a sequence.
func rngFor(seed int64, workload string) *rand.Rand {
	var salt int64
	for _, c := range workload {
		salt = salt*131 + int64(c)
	}
	return rand.New(rand.NewSource(seed*1_000_003 + salt))
}

// renameVertices rewrites a pattern literal under a random renaming of its
// vertices and a random order of the vertices inside each hyperedge. The
// order of the hyperedges is kept: the compiler breaks matching-order ties by
// hyperedge position, so permuting them changes the plan and its cost by up
// to 4x, which would make the work depend on the seed.
func renameVertices(lit string, rng *rand.Rand) (string, error) {
	p, err := ohminer.ParsePattern(lit)
	if err != nil {
		return "", err
	}
	perm := rng.Perm(p.NumVertices())
	parts := make([]string, p.NumEdges())
	for i := range parts {
		e := p.Edge(i)
		vs := make([]string, len(e))
		for j, k := range rng.Perm(len(e)) {
			vs[j] = strconv.Itoa(perm[e[k]])
		}
		parts[i] = strings.Join(vs, " ")
	}
	return strings.Join(parts, "; "), nil
}

// isomorphicLiteral is renameVertices plus a random order of the hyperedges:
// any way of writing the same pattern. Used where the program canonicalizes
// the query (the Session behind POST /query), so every literal costs the same.
func isomorphicLiteral(lit string, rng *rand.Rand) (string, error) {
	renamed, err := renameVertices(lit, rng)
	if err != nil {
		return "", err
	}
	edges := strings.Split(renamed, "; ")
	rng.Shuffle(len(edges), func(i, j int) { edges[i], edges[j] = edges[j], edges[i] })
	return strings.Join(edges, "; "), nil
}
