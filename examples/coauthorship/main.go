// Collaboration-pattern search in a coauthorship network — the paper's
// pattern-search-in-collaborative-networks application. Papers are
// hyperedges, authors are vertices (the coauth-DBLP modeling of Table 3).
//
// The example mines "research-group chains": three papers where consecutive
// papers share authors — the signature of a group publishing a line of
// work — and contrasts OHMiner's time with the HGMatch baseline on the same
// store.
package main

import (
	"fmt"
	"log"
	"time"

	"ohminer"
)

func main() {
	// The scaled coauth-DBLP preset (~48k authors, ~92k papers).
	preset, err := ohminer.DatasetPresetByTag("CD")
	if err != nil {
		log.Fatal(err)
	}
	h, err := ohminer.GenerateDataset(preset.Config)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("coauthorship network:", h)

	t0 := time.Now()
	store := ohminer.NewStore(h)
	fmt.Printf("degree-aware store built in %v\n", time.Since(t0).Round(time.Millisecond))

	// Sample a 3-paper chain pattern from the data itself (the paper's
	// workload methodology), then mine it with both systems.
	p, err := ohminer.SamplePattern(h, 3, 4, 16, 7)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("pattern: %s\n", p)

	ohm, err := ohminer.Mine(store, p)
	if err != nil {
		log.Fatal(err)
	}
	hgm, err := ohminer.MineBaseline(store, p, "HGMatch", 0)
	if err != nil {
		log.Fatal(err)
	}
	if ohm.Ordered != hgm.Ordered {
		log.Fatalf("count mismatch: %d vs %d", ohm.Ordered, hgm.Ordered)
	}
	fmt.Printf("OHMiner: %d unique embeddings in %v\n", ohm.Unique, ohm.Elapsed.Round(time.Microsecond))
	fmt.Printf("HGMatch: same result in %v (OHMiner is %.1fx faster)\n",
		hgm.Elapsed.Round(time.Microsecond), float64(hgm.Elapsed)/float64(ohm.Elapsed))

	// A custom chain with an explicit shape: papers sharing exactly one
	// author between consecutive hops and nothing across the ends.
	chain, err := ohminer.ParsePattern("0 1 2; 2 3 4; 4 5 6")
	if err != nil {
		log.Fatal(err)
	}
	res, err := ohminer.Mine(store, chain, ohminer.WithLimit(100000))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("3-paper chains of 3-author papers: ≥%d ordered matches (stopped at limit) in %v\n",
		res.Ordered, res.Elapsed.Round(time.Microsecond))
}
