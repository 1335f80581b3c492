// Command experiments regenerates the paper's tables and figures.
//
// Usage:
//
//	experiments -exp fig6 [-datasets tpch,tpcds,transaction] [-advisors Extend,SWIRL]
//	            [-methods Random,GRU,Seq2Seq,TRAP] [-scale quick|full] [-seed 42]
//	experiments -exp all   # every experiment at the chosen scale
//
// Experiments: fig1 tab1 fig6 fig7 tab4 fig8 fig9 fig10 fig11 fig12 fig13
// fig14 fig15 fig16 fig17, plus "oscillation" (the Section V-B
// DB2Advis-oscillation observation, quantified). Output is a plain-text
// table per experiment,
// matching the rows/series the paper reports.
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
	exp := flag.String("exp", "fig6", "experiment id (fig1, tab1, fig6..fig17, tab4, all)")
	datasets := flag.String("datasets", "tpch", "comma-separated: tpch, tpcds, transaction")
	advisors := flag.String("advisors", "Extend,DB2Advis,AutoAdmin,Drop,Relaxation,DTA,SWIRL,DRLindex,DQN,MCTS",
		"comma-separated advisor names for fig6")
	methods := flag.String("methods", "Random,GRU,Seq2Seq,TRAP", "comma-separated generation methods")
	scale := flag.String("scale", "quick", "quick or full")
	seed := flag.Int64("seed", 42, "random seed")
	genQueries := flag.Int("genqueries", 200, "queries to time for Table IV")
	format := flag.String("format", "text", "text or json")
	flag.Parse()

	emit := func(t *assess.Table) {
		if *format == "json" {
			js, err := t.JSON()
			if err != nil {
				fmt.Fprintln(os.Stderr, "experiments:", err)
				os.Exit(1)
			}
			fmt.Println(js)
			return
		}
		fmt.Println(t)
	}

	p := assess.QuickParams()
	if *scale == "full" {
		p = assess.FullParams()
	}

	suiteFor := func(name string) (*assess.Suite, error) {
		s, err := bench.ByName(name, p.ScaleDown)
		if err != nil {
			return nil, err
		}
		return assess.NewSuite(name, s, p, *seed)
	}

	dsNames := strings.Split(*datasets, ",")
	advNames := strings.Split(*advisors, ",")
	methodNames := strings.Split(*methods, ",")

	run := func(id string) error {
		switch id {
		case "fig1":
			var suites []*assess.Suite
			for _, d := range dsNames {
				s, err := suiteFor(d)
				if err != nil {
					return err
				}
				suites = append(suites, s)
			}
			emit(assess.Fig1(suites))
		case "tab1":
			s, err := suiteFor(dsNames[0])
			if err != nil {
				return err
			}
			t, err := assess.Tab1(s)
			if err != nil {
				return err
			}
			emit(t)
		case "fig6":
			var suites []*assess.Suite
			for _, d := range dsNames {
				s, err := suiteFor(d)
				if err != nil {
					return err
				}
				suites = append(suites, s)
			}
			_, t, err := assess.Fig6(suites, advNames, methodNames, core.AllConstraints)
			if err != nil {
				return err
			}
			emit(t)
		case "fig7", "tab4":
			s, err := suiteFor("tpch")
			if err != nil {
				return err
			}
			_, fig7, tab4, err := assess.Fig7Tab4(s, *genQueries)
			if err != nil {
				return err
			}
			if id == "fig7" {
				emit(fig7)
			} else {
				emit(tab4)
			}
		case "fig8":
			s, err := suiteFor("tpch")
			if err != nil {
				return err
			}
			_, t, err := assess.Fig8(s)
			if err != nil {
				return err
			}
			emit(t)
		case "fig9":
			s, err := suiteFor("tpch")
			if err != nil {
				return err
			}
			t, err := assess.Fig9(s, methodNames)
			if err != nil {
				return err
			}
			emit(t)
		case "fig10":
			t, err := assess.Fig10(p, nil, methodNames, *seed)
			if err != nil {
				return err
			}
			emit(t)
		case "fig11":
			s, err := suiteFor("tpch")
			if err != nil {
				return err
			}
			t, err := assess.Fig11(s, methodNames)
			if err != nil {
				return err
			}
			emit(t)
		case "fig12":
			s, err := suiteFor("tpch")
			if err != nil {
				return err
			}
			t, err := assess.Fig12(s, nil)
			if err != nil {
				return err
			}
			emit(t)
		case "fig13":
			s, err := suiteFor("tpch")
			if err != nil {
				return err
			}
			t, err := assess.Fig13(s, core.SharedTable)
			if err != nil {
				return err
			}
			emit(t)
		case "fig14":
			s, err := suiteFor("tpch")
			if err != nil {
				return err
			}
			t, err := assess.Fig14(s, core.SharedTable)
			if err != nil {
				return err
			}
			emit(t)
		case "fig15":
			s, err := suiteFor("tpch")
			if err != nil {
				return err
			}
			t, err := assess.Fig15(s, core.SharedTable)
			if err != nil {
				return err
			}
			emit(t)
		case "fig16":
			s, err := suiteFor("tpch")
			if err != nil {
				return err
			}
			scores, dist, err := assess.Fig16(s, 3)
			if err != nil {
				return err
			}
			emit(scores)
			emit(dist)
		case "oscillation":
			s, err := suiteFor(dsNames[0])
			if err != nil {
				return err
			}
			t, err := assess.OscillationTable(s, advNames, core.ValueOnly, 4)
			if err != nil {
				return err
			}
			emit(t)
		case "fig17":
			s, err := suiteFor("tpch")
			if err != nil {
				return err
			}
			tsne, frac, err := assess.Fig17(s, 3)
			if err != nil {
				return err
			}
			emit(tsne)
			emit(frac)
		default:
			return fmt.Errorf("unknown experiment %q", id)
		}
		return nil
	}

	ids := []string{*exp}
	if *exp == "all" {
		ids = []string{"fig1", "tab1", "fig6", "fig7", "tab4", "fig8", "fig9",
			"fig10", "fig11", "fig12", "fig13", "fig14", "fig15", "fig16", "fig17"}
	}
	for _, id := range ids {
		if err := run(id); err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %s: %v\n", id, err)
			os.Exit(1)
		}
	}
}
