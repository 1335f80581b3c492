// Command assess runs the robustness grid for chosen advisors on one
// dataset: the per-advisor IUDR of the four generation methods under one
// or all perturbation constraints (a configurable slice of Figure 6).
//
// Usage:
//
//	assess [-dataset tpch] [-advisors Extend,SWIRL] [-methods Random,TRAP]
//	       [-constraint all|value|column|shared] [-scale quick|full] [-seed 42]
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"github.com/trap-repro/trap/internal/assess"
	"github.com/trap-repro/trap/internal/bench"
	"github.com/trap-repro/trap/internal/core"
)

func main() {
	dataset := flag.String("dataset", "tpch", "tpch, tpcds or transaction")
	advisors := flag.String("advisors", "Extend,DB2Advis,Drop,SWIRL", "comma-separated advisors")
	methods := flag.String("methods", "Random,TRAP", "comma-separated methods")
	constraint := flag.String("constraint", "shared", "value, column, shared or all")
	scale := flag.String("scale", "quick", "quick or full")
	seed := flag.Int64("seed", 42, "random seed")
	rlEpochs := flag.Int("rlepochs", 0, "override generator RL training epochs")
	episodes := flag.Int("episodes", 0, "override learned-advisor training episodes")
	flag.Parse()

	p := assess.QuickParams()
	if *scale == "full" {
		p = assess.FullParams()
	}
	if *rlEpochs > 0 {
		p.RLEpochs = *rlEpochs
	}
	if *episodes > 0 {
		p.AdvisorEpisodes = *episodes
	}
	s, err := bench.ByName(*dataset, p.ScaleDown)
	if err != nil {
		fmt.Fprintln(os.Stderr, "assess:", err)
		os.Exit(1)
	}
	pcs := core.AllConstraints
	if *constraint != "all" {
		pc, err := core.ParseConstraint(*constraint)
		if err != nil {
			fmt.Fprintln(os.Stderr, "assess:", err)
			os.Exit(1)
		}
		pcs = []core.PerturbConstraint{pc}
	}
	suite, err := assess.NewSuite(*dataset, s, p, *seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "assess:", err)
		os.Exit(1)
	}
	_, table, err := assess.Fig6([]*assess.Suite{suite},
		strings.Split(*advisors, ","), strings.Split(*methods, ","), pcs)
	if err != nil {
		fmt.Fprintln(os.Stderr, "assess:", err)
		os.Exit(1)
	}
	fmt.Println(table)
}
