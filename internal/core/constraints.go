package core

import "fmt"

// PerturbConstraint is one of the three perturbation constraints of
// Table I, controlling which token types of a query may be modified.
type PerturbConstraint int

const (
	// ValueOnly allows modifying predicate values only — the
	// template-with-parameter-bindings drift (TPC-H/TPC-DS/DSB style).
	ValueOnly PerturbConstraint = iota
	// ColumnConsistent additionally allows modifying columns, restricted
	// to the original query's column set (CEB/STATS style drifts, e.g.
	// reordering ORDER BY columns).
	ColumnConsistent
	// SharedTable keeps the table schema fixed but allows modifying
	// columns, values, conjunctions, operators and aggregators, and adding
	// new payload columns or predicates (JOB/CEB exploratory drifts).
	SharedTable
)

// String names the constraint.
func (c PerturbConstraint) String() string {
	switch c {
	case ValueOnly:
		return "ValueOnly"
	case ColumnConsistent:
		return "ColumnConsistent"
	case SharedTable:
		return "SharedTable"
	}
	return "unknown"
}

// ParseConstraint maps a constraint name to its constraint: value
// (value-only), column (column-consistent) or shared (shared-table; also
// the empty name).
func ParseConstraint(name string) (PerturbConstraint, error) {
	switch name {
	case "value", "value-only":
		return ValueOnly, nil
	case "column", "column-consistent":
		return ColumnConsistent, nil
	case "", "shared", "shared-table":
		return SharedTable, nil
	}
	return 0, fmt.Errorf("unknown perturbation constraint %q (want value, column or shared)", name)
}

// AllConstraints lists the three constraints in paper order.
var AllConstraints = []PerturbConstraint{ValueOnly, ColumnConsistent, SharedTable}

// allowsColumns reports whether column tokens may be modified.
func (c PerturbConstraint) allowsColumns() bool { return c != ValueOnly }

// allowsOperators reports whether operator/aggregator/conjunction tokens
// may be modified.
func (c PerturbConstraint) allowsOperators() bool { return c == SharedTable }

// allowsExtensions reports whether new payload columns / predicates may be
// inserted via the "(.*)?" extension slots.
func (c PerturbConstraint) allowsExtensions() bool { return c == SharedTable }

// columnSetRestricted reports whether replacement columns must come from
// the original query's column set (rather than the shared tables').
func (c PerturbConstraint) columnSetRestricted() bool { return c == ColumnConsistent }
