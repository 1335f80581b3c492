// Package bench builds the evaluation datasets of the paper: the TPC-H
// schema (8 tables, 61 columns), the TPC-DS schema (25 tables, 429
// columns), the TRANSACTION banking OLTP schema (10 tables, 189 columns),
// the large real-world-like schemas of Figure 10 (809–1265 columns), and
// the benchmark template metadata behind Figure 1.
//
// Only schemas and ground-truth statistics are materialized — the engine
// never touches tuples — so "TPC-H" here means the genuine TPC-H table
// and column structure with scale-factor-1 cardinalities and plausible
// per-column distributions.
package bench

import (
	"fmt"
	"strings"

	"github.com/trap-repro/trap/internal/schema"
	"github.com/trap-repro/trap/internal/stats"
)

// colSpec is the compact column description used by the schema builders:
// "name kind[:ndv[:skew]]" where kind is one of
// pk, fk, int, float, str, date, flag, price, qty, comment.
type colSpec string

func buildTable(name string, rows int64, specs []colSpec) *schema.Table {
	cols := make([]schema.Column, 0, len(specs))
	for _, sp := range specs {
		cols = append(cols, buildColumn(string(sp), rows))
	}
	return schema.NewTable(name, rows, cols)
}

func buildColumn(spec string, rows int64) schema.Column {
	fields := strings.Fields(spec)
	name := fields[0]
	kind := "int"
	if len(fields) > 1 {
		kind = fields[1]
	}
	var ndv int64
	var skew float64
	if len(fields) > 2 {
		fmt.Sscanf(fields[2], "%d", &ndv)
	}
	if len(fields) > 3 {
		fmt.Sscanf(fields[3], "%f", &skew)
	}
	c := schema.Column{Name: name}
	defNDV := func(d int64) int64 {
		if ndv > 0 {
			return ndv
		}
		if d > rows && rows > 0 {
			return rows
		}
		return d
	}
	intDist := func(n int64) stats.Dist {
		if n < 1 {
			n = 1
		}
		return stats.Dist{NDV: n, Min: 0, Max: float64(n - 1), Skew: skew}
	}
	switch kind {
	case "pk":
		c.Type = schema.IntCol
		c.Width = 8
		c.Dist = intDist(rows)
	case "fk":
		c.Type = schema.IntCol
		c.Width = 8
		c.Dist = intDist(defNDV(rows / 10))
	case "int":
		c.Type = schema.IntCol
		c.Width = 8
		c.Dist = intDist(defNDV(1000))
	case "float", "price":
		c.Type = schema.FloatCol
		c.Width = 8
		n := defNDV(50_000)
		c.Dist = stats.Dist{NDV: n, Min: 0.01, Max: float64(n) / 4, Skew: skew}
	case "qty":
		c.Type = schema.IntCol
		c.Width = 8
		c.Dist = intDist(defNDV(50))
	case "date":
		c.Type = schema.DateCol
		c.Width = 8
		c.Dist = intDist(defNDV(2_526)) // ~7 years of days
	case "flag":
		c.Type = schema.StringCol
		c.Width = 8
		n := defNDV(3)
		c.Dist = stats.Dist{NDV: n, Min: 0, Max: float64(n - 1), Skew: maxSkew(skew, 0.5)}
	case "str":
		c.Type = schema.StringCol
		c.Width = 24
		c.Dist = intDist(defNDV(5_000))
	case "comment":
		c.Type = schema.StringCol
		c.Width = 60
		c.Dist = intDist(defNDV(rows))
	default:
		panic("bench: unknown column kind " + kind)
	}
	if c.Dist.NDV > rows && rows > 0 {
		c.Dist.NDV = rows
		if c.Type != schema.FloatCol {
			c.Dist.Max = float64(rows - 1)
		}
	}
	return c
}

func maxSkew(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

func edge(lt, lc, rt, rc string) schema.JoinEdge {
	return schema.JoinEdge{LeftTable: lt, LeftColumn: lc, RightTable: rt, RightColumn: rc}
}

// ByName builds the named dataset's schema: tpch, tpcds or transaction.
func ByName(name string, scaleDown int64) (*schema.Schema, error) {
	switch name {
	case "tpch":
		return TPCH(scaleDown), nil
	case "tpcds":
		return TPCDS(scaleDown), nil
	case "transaction":
		return TRANSACTION(scaleDown), nil
	}
	return nil, fmt.Errorf("unknown dataset %q (want tpch, tpcds or transaction)", name)
}

// TPCH builds the TPC-H schema (8 tables, 61 columns) with SF1
// cardinalities divided by scaleDown (use 1 for full SF1; the experiments
// use 10 to keep plan arithmetic small without changing any trade-off).
func TPCH(scaleDown int64) *schema.Schema {
	if scaleDown < 1 {
		scaleDown = 1
	}
	sd := func(n int64) int64 {
		v := n / scaleDown
		if v < 10 {
			v = 10
		}
		return v
	}
	region := buildTable("region", 5, []colSpec{
		"r_regionkey pk", "r_name str 5", "r_comment comment",
	})
	nation := buildTable("nation", 25, []colSpec{
		"n_nationkey pk", "n_name str 25", "n_regionkey fk 5", "n_comment comment",
	})
	supplier := buildTable("supplier", sd(10_000), []colSpec{
		"s_suppkey pk", "s_name str", "s_address str", "s_nationkey fk 25",
		"s_phone str", "s_acctbal price", "s_comment comment",
	})
	customer := buildTable("customer", sd(150_000), []colSpec{
		"c_custkey pk", "c_name str", "c_address str", "c_nationkey fk 25",
		"c_phone str", "c_acctbal price", "c_mktsegment flag 5", "c_comment comment",
	})
	part := buildTable("part", sd(200_000), []colSpec{
		"p_partkey pk", "p_name str", "p_mfgr flag 5", "p_brand flag 25",
		"p_type flag 150", "p_size qty 50", "p_container flag 40",
		"p_retailprice price", "p_comment comment",
	})
	partsupp := buildTable("partsupp", sd(800_000), []colSpec{
		"ps_partkey fk 200000", "ps_suppkey fk 10000", "ps_availqty qty 10000",
		"ps_supplycost price", "ps_comment comment",
	})
	orders := buildTable("orders", sd(1_500_000), []colSpec{
		"o_orderkey pk", "o_custkey fk 100000", "o_orderstatus flag 3 1.0",
		"o_totalprice price", "o_orderdate date", "o_orderpriority flag 5",
		"o_clerk str 1000", "o_shippriority flag 1", "o_comment comment",
	})
	lineitem := buildTable("lineitem", sd(6_000_000), []colSpec{
		"l_orderkey fk 1500000", "l_partkey fk 200000", "l_suppkey fk 10000",
		"l_linenumber qty 7", "l_quantity qty 50", "l_extendedprice price",
		"l_discount float 11", "l_tax float 9", "l_returnflag flag 3 0.8",
		"l_linestatus flag 2 0.6", "l_shipdate date", "l_commitdate date",
		"l_receiptdate date", "l_shipinstruct flag 4", "l_shipmode flag 7",
		"l_comment comment",
	})
	s := schema.New("tpch",
		[]*schema.Table{region, nation, supplier, customer, part, partsupp, orders, lineitem},
		[]schema.JoinEdge{
			edge("nation", "n_regionkey", "region", "r_regionkey"),
			edge("supplier", "s_nationkey", "nation", "n_nationkey"),
			edge("customer", "c_nationkey", "nation", "n_nationkey"),
			edge("partsupp", "ps_partkey", "part", "p_partkey"),
			edge("partsupp", "ps_suppkey", "supplier", "s_suppkey"),
			edge("orders", "o_custkey", "customer", "c_custkey"),
			edge("lineitem", "l_orderkey", "orders", "o_orderkey"),
			edge("lineitem", "l_partkey", "part", "p_partkey"),
			edge("lineitem", "l_suppkey", "supplier", "s_suppkey"),
		})
	s.SetCorrelation("lineitem", "l_shipdate", "l_commitdate", 0.9)
	s.SetCorrelation("lineitem", "l_shipdate", "l_receiptdate", 0.85)
	s.SetCorrelation("lineitem", "l_quantity", "l_extendedprice", 0.7)
	s.SetCorrelation("lineitem", "l_returnflag", "l_linestatus", 0.6)
	s.SetCorrelation("orders", "o_orderdate", "o_totalprice", 0.3)
	s.SetCorrelation("orders", "o_orderstatus", "o_orderdate", 0.5)
	s.SetCorrelation("part", "p_size", "p_retailprice", 0.4)
	s.SetCorrelation("part", "p_brand", "p_type", 0.5)
	return s
}

// TRANSACTION builds the synthetic banking OLTP schema standing in for the
// paper's proprietary real-world workload: 10 tables, 189 columns.
func TRANSACTION(scaleDown int64) *schema.Schema {
	if scaleDown < 1 {
		scaleDown = 1
	}
	sd := func(n int64) int64 {
		v := n / scaleDown
		if v < 10 {
			v = 10
		}
		return v
	}
	// 10 tables, column counts 28+25+24+22+18+16+15+15+14+12 = 189.
	customers := buildTable("bank_customers", sd(500_000), []colSpec{ // 28
		"cust_id pk", "first_name str", "last_name str", "birth_date date 25000",
		"gender flag 2", "marital_status flag 5", "income_band flag 20 0.6",
		"occupation flag 120", "employer str 30000", "education flag 8",
		"nationality flag 60", "residence_city flag 2500 0.9", "residence_state flag 52",
		"postal_code str 40000", "street str", "phone str", "email str",
		"join_date date", "credit_score qty 600", "risk_rating flag 10 0.7",
		"kyc_status flag 4 1.0", "segment flag 6 0.8", "channel_pref flag 5",
		"language flag 12", "is_vip flag 2 1.2", "is_staff flag 2 1.5",
		"last_review date", "comment comment",
	})
	accounts := buildTable("accounts", sd(800_000), []colSpec{ // 25
		"account_id pk", "cust_id fk 500000", "branch_id fk 400",
		"account_type flag 8 0.8", "currency flag 15 1.1", "status flag 5 1.0",
		"open_date date", "close_date date", "balance price", "available price",
		"overdraft_limit price", "interest_rate float 200", "fee_plan flag 12",
		"statement_cycle flag 4", "is_joint flag 2", "is_dormant flag 2 1.4",
		"hold_amount price", "last_txn_date date", "opened_channel flag 6",
		"product_code flag 80", "tier flag 5 0.9", "tax_status flag 4",
		"iban str", "swift str 500", "comment comment",
	})
	transactions := buildTable("transactions", sd(8_000_000), []colSpec{ // 24
		"txn_id pk", "account_id fk 800000", "merchant_id fk 60000",
		"txn_date date", "txn_time qty 86400", "amount price", "currency flag 15 1.1",
		"txn_type flag 12 0.9", "channel flag 8 0.7", "status flag 6 1.2",
		"mcc_code flag 400 0.8", "auth_code str 100000", "terminal_id fk 50000",
		"is_international flag 2 1.3", "is_recurring flag 2 1.0", "fee price",
		"exchange_rate float 500", "balance_after price", "batch_id fk 20000",
		"device_type flag 6", "fraud_score qty 1000", "disputed flag 2 2.0",
		"posted_date date", "description comment",
	})
	cards := buildTable("cards", sd(600_000), []colSpec{ // 22
		"card_id pk", "account_id fk 800000", "cust_id fk 500000",
		"card_type flag 6 0.8", "network flag 4 0.9", "issue_date date",
		"expiry_date date 120", "status flag 5 1.1", "credit_limit price",
		"outstanding price", "min_due price", "reward_plan flag 10",
		"is_contactless flag 2", "is_virtual flag 2 1.3", "pin_retries qty 4",
		"activation_date date", "last_used date", "monthly_spend price",
		"cashback_rate float 20", "emboss_name str", "replaced_card fk 600000",
		"comment comment",
	})
	loans := buildTable("loans", sd(200_000), []colSpec{ // 18
		"loan_id pk", "cust_id fk 500000", "branch_id fk 400",
		"loan_type flag 8 0.7", "principal price", "outstanding price",
		"interest_rate float 300", "term_months qty 480", "start_date date",
		"maturity_date date", "status flag 6 1.0", "collateral_type flag 10",
		"collateral_value price", "payment_day qty 28", "delinquency_days qty 365 1.5",
		"officer_id fk 5000", "purpose flag 25", "comment comment",
	})
	merchants := buildTable("merchants", sd(60_000), []colSpec{ // 16
		"merchant_id pk", "name str", "category flag 400 0.8", "city flag 2500 0.9",
		"state flag 52", "country flag 60 1.2", "mcc_code flag 400 0.8",
		"onboard_date date", "status flag 4 1.0", "risk_level flag 5 0.9",
		"settlement_account fk 800000", "fee_rate float 100", "terminal_count qty 200",
		"monthly_volume price", "chargeback_rate float 100", "comment comment",
	})
	branches := buildTable("branches", 400, []colSpec{ // 15
		"branch_id pk", "name str 400", "city flag 300", "state flag 52",
		"region flag 8", "manager_id fk 5000", "open_date date", "staff_count qty 80",
		"atm_count qty 12", "type flag 4", "status flag 3", "deposits price",
		"lat float 10000", "lon float 10000", "comment comment",
	})
	transfers := buildTable("transfers", sd(2_000_000), []colSpec{ // 15
		"transfer_id pk", "from_account fk 800000", "to_account fk 800000",
		"amount price", "currency flag 15 1.1", "transfer_date date",
		"channel flag 8 0.7", "status flag 6 1.2", "purpose_code flag 40",
		"is_international flag 2 1.3", "fee price", "exchange_rate float 500",
		"scheduled flag 2", "batch_id fk 20000", "reference comment",
	})
	statements := buildTable("statements", sd(1_200_000), []colSpec{ // 14
		"statement_id pk", "account_id fk 800000", "period_start date 84",
		"period_end date 84", "opening_balance price", "closing_balance price",
		"total_credits price", "total_debits price", "txn_count qty 500",
		"fee_total price", "interest_paid price", "delivery flag 3",
		"generated_date date", "status flag 3",
	})
	auditlog := buildTable("audit_log", sd(4_000_000), []colSpec{ // 12
		"audit_id pk", "entity_type flag 12", "entity_id fk 800000",
		"action flag 20 0.8", "actor_id fk 5000", "actor_role flag 8",
		"event_date date", "event_time qty 86400", "channel flag 8",
		"severity flag 5 1.3", "ip_address str 200000", "detail comment",
	})
	s := schema.New("transaction",
		[]*schema.Table{customers, accounts, transactions, cards, loans,
			merchants, branches, transfers, statements, auditlog},
		[]schema.JoinEdge{
			edge("accounts", "cust_id", "bank_customers", "cust_id"),
			edge("accounts", "branch_id", "branches", "branch_id"),
			edge("transactions", "account_id", "accounts", "account_id"),
			edge("transactions", "merchant_id", "merchants", "merchant_id"),
			edge("cards", "account_id", "accounts", "account_id"),
			edge("cards", "cust_id", "bank_customers", "cust_id"),
			edge("loans", "cust_id", "bank_customers", "cust_id"),
			edge("loans", "branch_id", "branches", "branch_id"),
			edge("transfers", "from_account", "accounts", "account_id"),
			edge("statements", "account_id", "accounts", "account_id"),
			edge("audit_log", "entity_id", "accounts", "account_id"),
		})
	s.SetCorrelation("transactions", "txn_type", "channel", 0.7)
	s.SetCorrelation("transactions", "amount", "fee", 0.8)
	s.SetCorrelation("transactions", "is_international", "currency", 0.9)
	s.SetCorrelation("transactions", "mcc_code", "merchant_id", 0.6)
	s.SetCorrelation("accounts", "account_type", "product_code", 0.8)
	s.SetCorrelation("accounts", "balance", "available", 0.95)
	s.SetCorrelation("bank_customers", "income_band", "credit_score", 0.6)
	s.SetCorrelation("bank_customers", "segment", "is_vip", 0.7)
	s.SetCorrelation("cards", "credit_limit", "outstanding", 0.7)
	s.SetCorrelation("loans", "principal", "outstanding", 0.85)
	return s
}

// LargeSchema builds a synthetic wide real-world-like schema for the
// Figure 10 scalability experiment. columns is the total column count
// (the paper uses 809–1265); tables get ~45 columns each around a central
// fact table.
func LargeSchema(name string, columns int, rowsPerTable int64) *schema.Schema {
	if columns < 50 {
		columns = 50
	}
	perTable := 45
	nTables := (columns + perTable - 1) / perTable
	var tables []*schema.Table
	var joins []schema.JoinEdge
	remaining := columns
	for ti := 0; ti < nTables; ti++ {
		n := perTable
		if n > remaining {
			n = remaining
		}
		remaining -= n
		tname := fmt.Sprintf("t%02d", ti)
		specs := []colSpec{colSpec("id pk")}
		if ti > 0 {
			specs = append(specs, colSpec("parent_id fk"))
		}
		for ci := len(specs); ci < n; ci++ {
			var sp string
			switch ci % 5 {
			case 0:
				sp = fmt.Sprintf("c%02d flag %d 0.8", ci, 4+ci%40)
			case 1:
				sp = fmt.Sprintf("c%02d date", ci)
			case 2:
				sp = fmt.Sprintf("c%02d price", ci)
			case 3:
				sp = fmt.Sprintf("c%02d qty %d", ci, 10+ci*7%1000)
			default:
				sp = fmt.Sprintf("c%02d int %d", ci, 100+ci*31%100000)
			}
			specs = append(specs, colSpec(sp))
		}
		tables = append(tables, buildTable(tname, rowsPerTable, specs))
		if ti > 0 {
			joins = append(joins, edge(tname, "parent_id", "t00", "id"))
		}
	}
	return schema.New(name, tables, joins)
}
