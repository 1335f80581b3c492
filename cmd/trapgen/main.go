// Command trapgen trains TRAP against one index advisor and prints the
// adversarial workloads it generates, side by side with the originals and
// the per-workload IUDR.
//
// Usage:
//
//	trapgen [-dataset tpch] [-advisor Extend] [-constraint shared|column|value]
//	        [-eps 5] [-workloads 4] [-seed 42] [-scale quick|full]
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"github.com/trap-repro/trap/internal/assess"
	"github.com/trap-repro/trap/internal/bench"
	"github.com/trap-repro/trap/internal/core"
	"github.com/trap-repro/trap/internal/sqlx"
	"github.com/trap-repro/trap/internal/workload"
)

func main() {
	dataset := flag.String("dataset", "tpch", "tpch, tpcds or transaction")
	advName := flag.String("advisor", "Extend", "advisor to attack")
	constraint := flag.String("constraint", "shared", "value, column or shared")
	eps := flag.Int("eps", 5, "maximum edit distance")
	nWorkloads := flag.Int("workloads", 4, "workloads to perturb")
	seed := flag.Int64("seed", 42, "random seed")
	scale := flag.String("scale", "quick", "quick or full")
	out := flag.String("out", "", "optional file to write the perturbed workloads as SQL")
	flag.Parse()

	if err := run(*dataset, *advName, *constraint, *eps, *nWorkloads, *seed, *scale, *out); err != nil {
		fmt.Fprintln(os.Stderr, "trapgen:", err)
		os.Exit(1)
	}
}

func run(dataset, advName, constraint string, eps, nWorkloads int, seed int64, scale, out string) error {
	p := assess.QuickParams()
	if scale == "full" {
		p = assess.FullParams()
	}
	p.Eps = eps

	s, err := bench.ByName(dataset, p.ScaleDown)
	if err != nil {
		return err
	}
	pc, err := core.ParseConstraint(constraint)
	if err != nil {
		return err
	}

	suite, err := assess.NewSuite(dataset, s, p, seed)
	if err != nil {
		return err
	}
	spec, err := assess.SpecByName(advName)
	if err != nil {
		return err
	}
	fmt.Printf("training %s on %s ...\n", advName, dataset)
	adv, err := suite.BuildAdvisor(spec)
	if err != nil {
		return err
	}
	base := suite.BaselineAdvisor(spec)
	ac := suite.ConstraintFor(spec)
	fmt.Printf("training TRAP against %s under %s (eps=%d) ...\n", advName, pc, eps)
	m, err := suite.BuildMethod(context.Background(), "TRAP", pc, adv, base, ac, assess.MethodConfig{})
	if err != nil {
		return err
	}

	shown := 0
	collected := &workload.Workload{}
	for _, w := range suite.Test {
		if shown >= nWorkloads {
			break
		}
		u, err := suite.UtilityOf(adv, base, ac, w)
		if err != nil || u <= p.Theta {
			continue
		}
		variants, err := m.Variants(context.Background(), w)
		if err != nil {
			return err
		}
		pert := variants[0]
		uPert, err := suite.UtilityOf(adv, base, ac, pert)
		if err != nil {
			continue
		}
		collected.Items = append(collected.Items, pert.Items...)
		shown++
		fmt.Printf("\n--- workload %d: u=%.4f u'=%.4f IUDR=%.4f ---\n", shown, u, uPert, 1-uPert/u)
		for i := range w.Items {
			orig, p2 := w.Items[i].Query, pert.Items[i].Query
			d := sqlx.EditDistance(orig, p2)
			fmt.Printf("  original:  %s\n", orig)
			if d == 0 {
				fmt.Printf("  perturbed: (unchanged)\n")
			} else {
				fmt.Printf("  perturbed: %s   [%d edits]\n", p2, d)
			}
		}
	}
	if shown == 0 {
		fmt.Println("no properly-operating workloads at this scale; try -scale full")
	}
	if out != "" && collected.Size() > 0 {
		f, err := os.Create(out)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := collected.WriteSQL(f); err != nil {
			return err
		}
		fmt.Printf("\nwrote %d perturbed queries to %s\n", collected.Size(), out)
	}
	return nil
}
