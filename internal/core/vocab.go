// Package core implements TRAP itself (Section IV of the paper): the
// perturbation constraints of Table I, the Constraint-Aware Reference Tree
// of Section IV-D, the encoder-decoder generation models of Section IV-A
// (plus the baseline and PLM-variant generators of Section V), the
// two-phase training paradigm — index-advisor-independent pretraining
// (Section IV-C) followed by reinforced perturbation policy learning with
// a self-critic baseline (Section IV-B) — and the learned index utility
// model that rewards it.
package core

import (
	"fmt"
	"sync"

	"github.com/trap-repro/trap/internal/schema"
	"github.com/trap-repro/trap/internal/sqlx"
	"github.com/trap-repro/trap/internal/workload"
)

// Vocab is the global token vocabulary, segmented into regions by node
// type as in Figure 5: reserved keywords, tables, columns (per table),
// sampled values (per column), operators, aggregators and conjunctions.
//
// A Vocab is safe for concurrent use: lookups take a read lock, and the
// get-or-add registration of unseen tokens (ID, Encode) takes the write
// lock. Parallel rollout workers rely on this — though in practice the
// trainer's sequential greedy decode registers any unseen tokens before
// rollouts fan out, so the workers' lookups are read-only.
type Vocab struct {
	mu     sync.RWMutex
	tokens []sqlx.Token
	ids    map[sqlx.Token]int

	// regions maps a region key to the ids it contains:
	//   "operator", "aggregator", "conjunction", "table", "reserved".
	// The per-table column and per-column value regions live in their
	// own maps keyed without string assembly, so the decoder's per-slot
	// region probes cost no allocation.
	regions    map[string][]int
	colRegions map[string][]int         // table name -> column-token ids
	valRegions map[sqlx.ColumnRef][]int // column -> value-token ids
}

// valuesPerColumn is how many representative values are sampled per column
// when instantiating the vocabulary regions.
const valuesPerColumn = 8

// BuildVocab constructs the vocabulary for a schema, additionally
// including every literal observed in the given workloads (mirroring the
// paper: "legitimate tokens for predicate values are sampled from the
// current dataset and workloads").
func BuildVocab(s *schema.Schema, ws []*workload.Workload) *Vocab {
	v := &Vocab{
		ids:        map[sqlx.Token]int{},
		regions:    map[string][]int{},
		colRegions: map[string][]int{},
		valRegions: map[sqlx.ColumnRef][]int{},
	}
	add := func(t sqlx.Token) int {
		id, ok := v.ids[t]
		if !ok {
			id = len(v.tokens)
			v.tokens = append(v.tokens, t)
			v.ids[t] = id
		}
		return id
	}
	appendUnique := func(ids []int, id int) []int {
		for _, have := range ids {
			if have == id {
				return ids
			}
		}
		return append(ids, id)
	}
	addTo := func(region string, t sqlx.Token) int {
		id := add(t)
		v.regions[region] = appendUnique(v.regions[region], id)
		return id
	}
	addColTo := func(table string, t sqlx.Token) {
		v.colRegions[table] = appendUnique(v.colRegions[table], add(t))
	}
	addValTo := func(col sqlx.ColumnRef, t sqlx.Token) {
		v.valRegions[col] = appendUnique(v.valRegions[col], add(t))
	}
	for _, kw := range []string{"SELECT", "FROM", "WHERE", "GROUP", "BY", "HAVING", "ORDER", ",", "(", ")"} {
		addTo("reserved", sqlx.Token{Type: sqlx.TokReserved, Text: kw})
	}
	for _, op := range sqlx.Operators {
		addTo("operator", sqlx.Token{Type: sqlx.TokOperator, Text: op})
	}
	for _, agg := range sqlx.Aggregators {
		addTo("aggregator", sqlx.Token{Type: sqlx.TokAggregator, Text: agg})
	}
	addTo("conjunction", sqlx.Token{Type: sqlx.TokConjunction, Text: "AND"})
	addTo("conjunction", sqlx.Token{Type: sqlx.TokConjunction, Text: "OR"})

	for _, t := range s.Tables {
		addTo("table", sqlx.Token{Type: sqlx.TokTable, Text: t.Name})
		for ci := range t.Columns {
			col := &t.Columns[ci]
			ref := sqlx.ColumnRef{Table: t.Name, Column: col.Name}
			addColTo(t.Name, sqlx.Token{Type: sqlx.TokColumn, Text: ref.String()})
			for k := 0; k < valuesPerColumn; k++ {
				q := (float64(k) + 0.5) / valuesPerColumn
				idx := col.Dist.IndexOf(col.Dist.Quantile(q))
				addValTo(ref, sqlx.Token{Type: sqlx.TokValue, Text: col.DatumOf(idx).String()})
			}
		}
	}
	for _, w := range ws {
		for _, it := range w.Items {
			for _, p := range it.Query.Filters {
				addValTo(p.Col, sqlx.Token{Type: sqlx.TokValue, Text: p.Val.String()})
			}
		}
	}
	return v
}

// Size returns the number of distinct tokens.
func (v *Vocab) Size() int {
	v.mu.RLock()
	defer v.mu.RUnlock()
	return len(v.tokens)
}

// Token returns the token with the given id.
func (v *Vocab) Token(id int) sqlx.Token {
	v.mu.RLock()
	defer v.mu.RUnlock()
	return v.tokens[id]
}

// ID returns the id of a token, registering it if unseen (out-of-schema
// literals from arbitrary input queries still need an embedding row, so
// the vocabulary keeps a small growth margin; see EmbeddingRows).
func (v *Vocab) ID(t sqlx.Token) int {
	v.mu.RLock()
	id, ok := v.ids[t]
	v.mu.RUnlock()
	if ok {
		return id
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	if id, ok := v.ids[t]; ok {
		// Lost the registration race to another goroutine.
		return id
	}
	id = len(v.tokens)
	v.tokens = append(v.tokens, t)
	v.ids[t] = id
	return id
}

// Region returns the token ids of a region (nil when empty).
func (v *Vocab) Region(key string) []int {
	v.mu.RLock()
	defer v.mu.RUnlock()
	return v.regions[key]
}

// ColumnsRegion returns the column-token ids for a table.
func (v *Vocab) ColumnsRegion(table string) []int {
	v.mu.RLock()
	defer v.mu.RUnlock()
	return v.colRegions[table]
}

// ValuesRegion returns the value-token ids for a column.
func (v *Vocab) ValuesRegion(col sqlx.ColumnRef) []int {
	v.mu.RLock()
	defer v.mu.RUnlock()
	return v.valRegions[col]
}

// SetValuesRegion replaces the legitimate value tokens of a column. This
// is the paper's periodic-template adaptation: given the variants
// expected in the next period, the legitimate tokens of the perturbation
// constraint are narrowed so TRAP explores exactly those.
func (v *Vocab) SetValuesRegion(col sqlx.ColumnRef, values []sqlx.Datum) {
	v.mu.Lock()
	defer v.mu.Unlock()
	v.valRegions[col] = nil
	for _, d := range values {
		t := sqlx.Token{Type: sqlx.TokValue, Text: d.String()}
		id, ok := v.ids[t]
		if !ok {
			id = len(v.tokens)
			v.tokens = append(v.tokens, t)
			v.ids[t] = id
		}
		v.valRegions[col] = append(v.valRegions[col], id)
	}
}

// EmbeddingRows returns the row count generation models should allocate:
// the current size plus headroom for literals seen later in input queries.
func (v *Vocab) EmbeddingRows() int {
	v.mu.RLock()
	defer v.mu.RUnlock()
	return len(v.tokens) + len(v.tokens)/2 + 64
}

// Encode maps a query's canonical token sequence to ids.
func (v *Vocab) Encode(q *sqlx.Query) []int {
	toks := q.Tokens()
	ids := make([]int, len(toks))
	for i, t := range toks {
		ids[i] = v.ID(t)
	}
	return ids
}

// String summarizes the vocabulary.
func (v *Vocab) String() string {
	v.mu.RLock()
	defer v.mu.RUnlock()
	return fmt.Sprintf("Vocab{%d tokens, %d regions}",
		len(v.tokens), len(v.regions)+len(v.colRegions)+len(v.valRegions))
}
