// Command explain parses a SPAJ SQL query, plans it with the simulated
// optimizer under an optional index configuration, and prints the
// EXPLAIN-style plan tree in both statistics modes — handy for exploring
// how the what-if estimates diverge from the runtime stand-in.
//
// Usage:
//
//	explain -dataset tpch -sql "SELECT lineitem.l_quantity FROM lineitem WHERE lineitem.l_orderkey = 5"
//	explain -dataset tpch -sql "..." -indexes "lineitem(l_orderkey);orders(o_orderdate,o_totalprice)"
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"github.com/trap-repro/trap/internal/bench"
	"github.com/trap-repro/trap/internal/engine"
	"github.com/trap-repro/trap/internal/schema"
	"github.com/trap-repro/trap/internal/sqlx"
)

func main() {
	dataset := flag.String("dataset", "tpch", "tpch, tpcds or transaction")
	sql := flag.String("sql", "", "SPAJ SQL query to plan")
	indexes := flag.String("indexes", "", `semicolon-separated hypothetical indexes, e.g. "lineitem(l_orderkey);orders(o_orderdate,o_totalprice)"`)
	scaleDown := flag.Int64("scaledown", 100, "benchmark scale divisor")
	flag.Parse()

	if err := run(*dataset, *sql, *indexes, *scaleDown); err != nil {
		fmt.Fprintln(os.Stderr, "explain:", err)
		os.Exit(1)
	}
}

func run(dataset, sql, indexes string, scaleDown int64) error {
	if sql == "" {
		return fmt.Errorf("-sql is required")
	}
	s, err := bench.ByName(dataset, scaleDown)
	if err != nil {
		return err
	}
	q, err := sqlx.Parse(sql)
	if err != nil {
		return err
	}
	cfg, err := schema.ParseIndexes(strings.Split(indexes, ";"))
	if err != nil {
		return err
	}
	e := engine.New(s)
	for _, mode := range []engine.Mode{engine.ModeEstimated, engine.ModeTrue} {
		p, err := e.Plan(q, cfg, mode)
		if err != nil {
			return err
		}
		fmt.Printf("-- %s statistics --\n%s", mode, p)
	}
	rc, err := e.RuntimeCost(q, cfg)
	if err != nil {
		return err
	}
	fmt.Printf("runtime stand-in cost: %.2f\n", rc)
	return nil
}
