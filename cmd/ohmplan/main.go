// Command ohmplan inspects the redundancy-free compiler's output for a
// pattern: the Overlap Intersection Graph (Figure 8 style), the overlap
// order, the connectivity groups used by group-based pruning, and the
// overlap-centric execution plan (Table 1 style), with the structural
// verifier run over the result.
//
//	ohmplan -pattern "0 1 2 3 4 5; 3 4 5 6 7 8; 3 4 5 6 7 9 10 11"
//	ohmplan -pattern "0 1; 1 2; 0 2" -mode simple
//	ohmplan -pattern "0 1; 1 2" -verify
//
// -verify skips the inspection dump and runs only the plan verifier (step
// metadata, condition placement and sizes, Theorem 1 prefix by prefix,
// restrictions, fingerprint coverage), printing the plan's semantic
// fingerprint on success.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"ohminer/internal/cliio"
	"ohminer/internal/oig"
	"ohminer/internal/pattern"
	"ohminer/internal/venn"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "ohmplan:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		lit        = flag.String("pattern", "", "pattern literal, e.g. \"0 1 2; 2 3 4\"")
		mode       = flag.String("mode", "merged", "plan mode: merged (full OHMiner) or simple (IEP only)")
		verify     = flag.Bool("verify", false, "run only the plan verifier and print the plan fingerprint")
		norestrict = flag.Bool("norestrict", false, "compile without symmetry-breaking ordering restrictions")
	)
	flag.Parse()
	if *lit == "" {
		return fmt.Errorf("need -pattern LITERAL")
	}
	p, err := pattern.Parse(*lit)
	if err != nil {
		return err
	}
	out := cliio.NewWriter(os.Stdout)
	var m oig.Mode
	switch *mode {
	case "merged":
		m = oig.ModeMerged
	case "simple":
		m = oig.ModeSimple
	default:
		return fmt.Errorf("unknown mode %q", *mode)
	}

	out.Printf("pattern: %s  (%d hyperedges, %d vertices, %d automorphisms)\n",
		p, p.NumEdges(), p.NumVertices(), p.Automorphisms())
	key, _ := pattern.CanonicalKey(p)
	cp, _ := pattern.Canonical(p)
	out.Printf("canonical form: %s  (key %x)\n", cp, key)

	plan, err := oig.CompileWith(p, m, oig.CompileOptions{NoRestrictions: *norestrict})
	if err != nil {
		return err
	}

	if *verify {
		if err := oig.VerifyProgram(plan); err != nil {
			return fmt.Errorf("plan verification FAILED: %w", err)
		}
		out.Printf("plan verification: OK (mode=%s, fingerprint %#x)\n", plan.Mode, plan.FP)
		return out.Close()
	}
	out.Printf("matching order: %v (original indices), chosen by cost without a store;\n", plan.Order)
	out.Println("  Mine orders by cost on its dataset: `ohmstat -partition` prints that order and its plan fingerprint")
	switch {
	case plan.Restricted:
		var rs []string
		for t := range plan.Steps {
			for _, j := range plan.Steps[t].Restrict {
				rs = append(rs, fmt.Sprintf("c%d<c%d", j, t))
			}
		}
		out.Println("symmetry restrictions:", strings.Join(rs, " "))
	case *norestrict:
		out.Println("symmetry restrictions: disabled (-norestrict)")
	default:
		out.Println("symmetry restrictions: none (pattern is asymmetric)")
	}

	out.Println("\nOverlap Intersection Graph (reordered pattern):")
	g := oig.BuildGraph(plan.Pattern.Edges())
	out.Print(g)

	out.Println("overlap order (node IDs):", g.OverlapOrder())

	s := plan.Sig
	pairConn := func(i, j int) bool { return s.Size(uint32(1<<i|1<<j)) > 0 }
	for lvl := 1; lvl <= g.NumLevels(); lvl++ {
		groups := g.Groups(lvl, pairConn)
		if len(groups) > 1 {
			out.Printf("level %d pruning groups: %v\n", lvl, groups)
		}
	}

	out.Println("\nVenn regions of the pattern:")
	regions, err := venn.Regions(plan.Pattern.Edges())
	if err != nil {
		return err
	}
	for _, r := range regions {
		if r.Size > 0 {
			out.Printf("  %-24s %d\n", r.Expr(p.NumEdges()), r.Size)
		}
	}

	out.Println("\nexecution plan:")
	out.Print(plan)
	out.Printf("compiled in %v; conditions per step: %v\n", plan.CompileTime, plan.NumOps())

	if err := oig.VerifyProgram(plan); err != nil {
		return fmt.Errorf("plan verification FAILED: %w", err)
	}
	out.Printf("plan verification: OK (fingerprint %#x)\n", plan.FP)
	return out.Close()
}
