// Package schema defines the logical database model of the simulated DBMS:
// tables with typed columns and ground-truth value distributions, the join
// graph, cross-column correlations, and (hypothetical) index definitions.
package schema

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"github.com/trap-repro/trap/internal/sqlx"
	"github.com/trap-repro/trap/internal/stats"
)

// ColType is the logical type of a column.
type ColType int

// Supported column types. Dates are modelled as integer epoch days and
// strings as an enumerable value dictionary, so every column has a numeric
// ground-truth distribution.
const (
	IntCol ColType = iota
	FloatCol
	StringCol
	DateCol
)

// String names the column type.
func (t ColType) String() string {
	switch t {
	case IntCol:
		return "int"
	case FloatCol:
		return "float"
	case StringCol:
		return "string"
	case DateCol:
		return "date"
	}
	return "unknown"
}

// PageSize is the storage page size in bytes (PostgreSQL's default).
const PageSize = 8192

// rowOverhead approximates the per-tuple header cost in bytes.
const rowOverhead = 24

// Column describes one column: its type, storage width, and ground-truth
// value distribution.
type Column struct {
	Name  string
	Type  ColType
	Width int
	Dist  stats.Dist
}

// DatumOf returns the SQL literal for the i-th distinct value of the column.
func (c *Column) DatumOf(i int64) sqlx.Datum {
	v := c.Dist.ValueAt(i)
	if c.Type == StringCol {
		return sqlx.StrDatum(fmt.Sprintf("%s_%d", c.Name, int64(v)))
	}
	return sqlx.NumDatum(v)
}

// NumOf maps a SQL literal back to the column's numeric domain. The second
// result is false when the literal cannot belong to the column.
func (c *Column) NumOf(d sqlx.Datum) (float64, bool) {
	if c.Type == StringCol {
		if d.IsNum {
			return 0, false
		}
		idx := strings.LastIndexByte(d.Str, '_')
		if idx < 0 {
			return 0, false
		}
		v, err := strconv.ParseFloat(d.Str[idx+1:], 64)
		if err != nil {
			return 0, false
		}
		return v, true
	}
	if !d.IsNum {
		return 0, false
	}
	return d.Num, true
}

// Table describes one table.
type Table struct {
	Name    string
	Rows    int64
	Columns []Column

	colIdx map[string]int
}

// NewTable builds a table and indexes its columns by name.
func NewTable(name string, rows int64, cols []Column) *Table {
	t := &Table{Name: name, Rows: rows, Columns: cols, colIdx: map[string]int{}}
	for i, c := range cols {
		t.colIdx[c.Name] = i
	}
	return t
}

// Column returns the named column, or nil.
func (t *Table) Column(name string) *Column {
	i, ok := t.colIdx[name]
	if !ok {
		return nil
	}
	return &t.Columns[i]
}

// RowWidth returns the average row width in bytes including tuple overhead.
func (t *Table) RowWidth() float64 {
	w := float64(rowOverhead)
	for _, c := range t.Columns {
		w += float64(c.Width)
	}
	return w
}

// Pages returns the number of heap pages the table occupies.
func (t *Table) Pages() float64 {
	p := float64(t.Rows) * t.RowWidth() / PageSize
	if p < 1 {
		return 1
	}
	return p
}

// SizeBytes returns the heap size of the table in bytes.
func (t *Table) SizeBytes() float64 { return t.Pages() * PageSize }

// JoinEdge is an edge of the schema's join graph: the pair of columns on
// which two tables meaningfully join (PK/FK relationships).
type JoinEdge struct {
	LeftTable   string
	LeftColumn  string
	RightTable  string
	RightColumn string
}

// Schema is a full logical database: tables, join graph, and ground-truth
// cross-column correlations.
type Schema struct {
	Name   string
	Tables []*Table
	Joins  []JoinEdge

	// correlations maps corrKey(table, colA, colB) to a coefficient in
	// [0, 1]: 0 = independent (the optimizer's universal assumption),
	// 1 = perfectly correlated.
	correlations map[string]float64

	tblIdx map[string]*Table
}

// New builds a schema from tables and join edges.
func New(name string, tables []*Table, joins []JoinEdge) *Schema {
	s := &Schema{
		Name:         name,
		Tables:       tables,
		Joins:        joins,
		correlations: map[string]float64{},
		tblIdx:       map[string]*Table{},
	}
	for _, t := range tables {
		s.tblIdx[t.Name] = t
	}
	return s
}

// Table returns the named table, or nil.
func (s *Schema) Table(name string) *Table { return s.tblIdx[name] }

// Column resolves a column reference, or returns nil.
func (s *Schema) Column(ref sqlx.ColumnRef) *Column {
	t := s.Table(ref.Table)
	if t == nil {
		return nil
	}
	return t.Column(ref.Column)
}

// TotalSizeBytes returns the total heap size of all tables.
func (s *Schema) TotalSizeBytes() float64 {
	var sum float64
	for _, t := range s.Tables {
		sum += t.SizeBytes()
	}
	return sum
}

// ColumnCount returns the total number of columns across all tables.
func (s *Schema) ColumnCount() int {
	n := 0
	for _, t := range s.Tables {
		n += len(t.Columns)
	}
	return n
}

func corrKey(table, a, b string) string {
	if a > b {
		a, b = b, a
	}
	return table + "." + a + "|" + b
}

// SetCorrelation records the ground-truth correlation between two columns
// of the same table.
func (s *Schema) SetCorrelation(table, colA, colB string, corr float64) {
	s.correlations[corrKey(table, colA, colB)] = corr
}

// Correlation returns the recorded correlation between two columns of a
// table (0 when none is recorded).
func (s *Schema) Correlation(table, colA, colB string) float64 {
	return s.correlations[corrKey(table, colA, colB)]
}

// JoinsOf returns the join edges incident to a table.
func (s *Schema) JoinsOf(table string) []JoinEdge {
	var out []JoinEdge
	for _, j := range s.Joins {
		if j.LeftTable == table || j.RightTable == table {
			out = append(out, j)
		}
	}
	return out
}

// JoinBetween returns the join edge connecting two tables, if any.
func (s *Schema) JoinBetween(a, b string) (JoinEdge, bool) {
	for _, j := range s.Joins {
		if (j.LeftTable == a && j.RightTable == b) || (j.LeftTable == b && j.RightTable == a) {
			return j, true
		}
	}
	return JoinEdge{}, false
}

// Validate checks that every join edge references existing columns.
func (s *Schema) Validate() error {
	for _, j := range s.Joins {
		if s.Column(sqlx.ColumnRef{Table: j.LeftTable, Column: j.LeftColumn}) == nil {
			return fmt.Errorf("schema %s: join references missing %s.%s", s.Name, j.LeftTable, j.LeftColumn)
		}
		if s.Column(sqlx.ColumnRef{Table: j.RightTable, Column: j.RightColumn}) == nil {
			return fmt.Errorf("schema %s: join references missing %s.%s", s.Name, j.RightTable, j.RightColumn)
		}
	}
	seen := map[string]bool{}
	for _, t := range s.Tables {
		if seen[t.Name] {
			return fmt.Errorf("schema %s: duplicate table %s", s.Name, t.Name)
		}
		seen[t.Name] = true
	}
	return nil
}

// Index is a (possibly multi-column) B-tree index definition.
type Index struct {
	Table   string
	Columns []string
}

// Key returns the canonical identity of the index, e.g. "t(a,b)".
func (ix Index) Key() string {
	return ix.Table + "(" + strings.Join(ix.Columns, ",") + ")"
}

// Equal reports whether two indexes are identical. It compares fields
// directly rather than rendered keys: Contains/Add/Remove run on the
// advisor's what-if hot path, where building two strings per comparison
// dominated the allocation profile.
func (ix Index) Equal(o Index) bool {
	if ix.Table != o.Table || len(ix.Columns) != len(o.Columns) {
		return false
	}
	for i, c := range ix.Columns {
		if o.Columns[i] != c {
			return false
		}
	}
	return true
}

// Less orders indexes by their canonical identity (table, then column
// list lexicographically) without rendering the key strings.
func (ix Index) Less(o Index) bool {
	if ix.Table != o.Table {
		return ix.Table < o.Table
	}
	n := len(ix.Columns)
	if len(o.Columns) < n {
		n = len(o.Columns)
	}
	for i := 0; i < n; i++ {
		if ix.Columns[i] != o.Columns[i] {
			return ix.Columns[i] < o.Columns[i]
		}
	}
	return len(ix.Columns) < len(o.Columns)
}

// IsPrefixOf reports whether ix's column list is a prefix of o's on the
// same table.
func (ix Index) IsPrefixOf(o Index) bool {
	if ix.Table != o.Table || len(ix.Columns) > len(o.Columns) {
		return false
	}
	for i, c := range ix.Columns {
		if o.Columns[i] != c {
			return false
		}
	}
	return true
}

// SizeBytes estimates the storage footprint of the index.
func (ix Index) SizeBytes(s *Schema) float64 {
	t := s.Table(ix.Table)
	if t == nil {
		return 0
	}
	entry := 16.0 // item pointer + alignment
	for _, cn := range ix.Columns {
		if c := t.Column(cn); c != nil {
			entry += float64(c.Width)
		}
	}
	leaf := float64(t.Rows) * entry / 0.9 // fill factor
	pages := leaf/PageSize + 1
	return pages * PageSize
}

// Config is a set of indexes (an index configuration).
type Config []Index

// ParseIndexes parses index specs in the Key format, "table(col1,col2)",
// into a Config; blank specs are skipped.
func ParseIndexes(specs []string) (Config, error) {
	var cfg Config
	for _, part := range specs {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		open := strings.IndexByte(part, '(')
		if open <= 0 || !strings.HasSuffix(part, ")") {
			return nil, fmt.Errorf("bad index spec %q (want table(col,...))", part)
		}
		table := strings.TrimSpace(part[:open])
		var cols []string
		for _, c := range strings.Split(part[open+1:len(part)-1], ",") {
			c = strings.TrimSpace(c)
			if c == "" {
				return nil, fmt.Errorf("bad index spec %q: empty column", part)
			}
			cols = append(cols, c)
		}
		cfg = cfg.Add(Index{Table: table, Columns: cols})
	}
	return cfg, nil
}

// Contains reports whether the configuration includes the index.
func (c Config) Contains(ix Index) bool {
	for _, x := range c {
		if x.Equal(ix) {
			return true
		}
	}
	return false
}

// Add returns a new configuration with ix appended (no-op if present).
func (c Config) Add(ix Index) Config {
	if c.Contains(ix) {
		return c
	}
	out := make(Config, len(c)+1)
	copy(out, c)
	out[len(c)] = ix
	return out
}

// Remove returns a new configuration without ix.
func (c Config) Remove(ix Index) Config {
	out := make(Config, 0, len(c))
	for _, x := range c {
		if !x.Equal(ix) {
			out = append(out, x)
		}
	}
	return out
}

// SizeBytes returns the total storage of the configuration.
func (c Config) SizeBytes(s *Schema) float64 {
	var sum float64
	for _, ix := range c {
		sum += ix.SizeBytes(s)
	}
	return sum
}

// Key returns a canonical, order-independent identity for the configuration.
func (c Config) Key() string {
	keys := make([]string, len(c))
	for i, ix := range c {
		keys[i] = ix.Key()
	}
	sort.Strings(keys)
	return strings.Join(keys, ";")
}

// OnTable returns the subset of indexes on the given table.
func (c Config) OnTable(table string) Config {
	var out Config
	for _, ix := range c {
		if ix.Table == table {
			out = append(out, ix)
		}
	}
	return out
}

// Clone returns a copy of the configuration.
func (c Config) Clone() Config { return append(Config(nil), c...) }
