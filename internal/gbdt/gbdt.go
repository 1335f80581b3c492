// Package gbdt implements gradient-boosted regression trees: the
// stand-in for LightGBM as TRAP's learned index utility model (Section
// IV-B). It supports the paper's training recipe — feature
// normalization, log-transformation of the runtime target, and MSE loss.
//
// Trees are grown exactly, without histograms: at each node every
// feature offers up to Bins−1 candidate thresholds, the node's own
// quantiles of that feature, and each candidate's gain is computed from
// the node's residuals. Each feature column is sorted once per Train;
// a node's children inherit their sorted rows by stable partition, and
// one pass over the node's rows in row order fills every candidate's
// left and right sums.
package gbdt

import (
	"cmp"
	"math"
	"slices"
	"sort"
)

// Config controls training.
type Config struct {
	Trees     int     // number of boosting rounds (default 100)
	MaxDepth  int     // maximum tree depth (default 4)
	MinLeaf   int     // minimum samples per leaf (default 5)
	Shrinkage float64 // learning rate (default 0.1)
	Bins      int     // candidate split quantiles per feature and node (default 32)
	LogTarget bool    // fit log1p(y) instead of y (the paper's transform)
}

func (c Config) withDefaults() Config {
	if c.Trees <= 0 {
		c.Trees = 100
	}
	if c.MaxDepth <= 0 {
		c.MaxDepth = 4
	}
	if c.MinLeaf <= 0 {
		c.MinLeaf = 5
	}
	if c.Shrinkage <= 0 {
		c.Shrinkage = 0.1
	}
	if c.Bins <= 1 {
		c.Bins = 32
	}
	return c
}

// node is one tree node; leaves have feature == -1.
type node struct {
	feature   int
	threshold float64
	value     float64
	left      *node
	right     *node
}

// Model is a trained boosted ensemble.
type Model struct {
	cfg   Config
	base  float64
	trees []*node
	mean  []float64
	std   []float64
}

// Train fits a model on feature rows x and targets y. Every value in x
// and y must be finite: a NaN or infinite input gives an unspecified
// model.
func Train(x [][]float64, y []float64, cfg Config) *Model {
	cfg = cfg.withDefaults()
	n := len(x)
	if n == 0 || len(y) != n {
		panic("gbdt: empty or mismatched training data")
	}
	d := len(x[0])

	m := &Model{cfg: cfg, mean: make([]float64, d), std: make([]float64, d)}
	// Feature normalization (z-score).
	for j := 0; j < d; j++ {
		var s float64
		for i := 0; i < n; i++ {
			s += x[i][j]
		}
		m.mean[j] = s / float64(n)
		var v float64
		for i := 0; i < n; i++ {
			dv := x[i][j] - m.mean[j]
			v += dv * dv
		}
		m.std[j] = math.Sqrt(v / float64(n))
		if m.std[j] < 1e-12 {
			m.std[j] = 1
		}
	}
	xn := make([][]float64, n)
	for i := 0; i < n; i++ {
		row := make([]float64, d)
		for j := 0; j < d; j++ {
			row[j] = (x[i][j] - m.mean[j]) / m.std[j]
		}
		xn[i] = row
	}
	target := make([]float64, n)
	for i, v := range y {
		if cfg.LogTarget {
			target[i] = math.Log1p(math.Max(v, 0))
		} else {
			target[i] = v
		}
	}

	// Base prediction: mean target.
	var s float64
	for _, v := range target {
		s += v
	}
	m.base = s / float64(n)

	pred := make([]float64, n)
	for i := range pred {
		pred[i] = m.base
	}
	b := newBuilder(xn, cfg)
	for t := 0; t < cfg.Trees; t++ {
		for i := range b.resid {
			b.resid[i] = target[i] - pred[i]
		}
		tree := b.tree()
		m.trees = append(m.trees, tree)
		for i := range pred {
			pred[i] += cfg.Shrinkage * evalTree(tree, xn[i])
		}
	}
	return m
}

// builder grows regression trees on one normalised training set. A node
// owns the segment [lo, hi) of rows and of every sorted[j]: rows holds
// its row ids in ascending order, sorted[j] the same ids by ascending
// value of feature j. Splitting a node stably partitions each of its
// segments, so both orders carry down to the children.
type builder struct {
	cfg    Config
	cols   [][]float64 // cols[j][i]: normalised feature j of row i
	resid  []float64   // residual of each row for the current tree
	order  [][]int32   // order[j]: every row by ascending cols[j]
	sorted [][]int32   // per-tree copy of order, partitioned node by node
	rows   []int32     // every row by ascending id, partitioned node by node
	spill  []int32     // right-hand rows during a partition
	left   []uint8     // per row: 1 if it goes to the left child of the current split
	rank   []int32     // per row: how many candidate thresholds are <= its value
	thresh []float64   // candidate thresholds of the feature being scanned
	nLeft  []int       // per threshold: rows of the node below it
	sums   []float64   // per threshold t: residual sums left (2t) and right (2t+1)
}

func newBuilder(xn [][]float64, cfg Config) *builder {
	n, d := len(xn), len(xn[0])
	b := &builder{
		cfg:    cfg,
		cols:   make([][]float64, d),
		resid:  make([]float64, n),
		order:  make([][]int32, d),
		sorted: make([][]int32, d),
		rows:   make([]int32, n),
		spill:  make([]int32, n),
		left:   make([]uint8, n),
		rank:   make([]int32, n),
		thresh: make([]float64, cfg.Bins-1),
		nLeft:  make([]int, cfg.Bins-1),
		sums:   make([]float64, 2*(cfg.Bins-1)),
	}
	for j := range b.cols {
		col := make([]float64, n)
		ord := make([]int32, n)
		for i := range col {
			col[i] = xn[i][j]
			ord[i] = int32(i)
		}
		slices.SortFunc(ord, func(a, b int32) int { return cmp.Compare(col[a], col[b]) })
		b.cols[j], b.order[j], b.sorted[j] = col, ord, make([]int32, n)
	}
	return b
}

// tree fits one regression tree on the current residuals.
func (b *builder) tree() *node {
	for j := range b.order {
		copy(b.sorted[j], b.order[j])
	}
	for i := range b.rows {
		b.rows[i] = int32(i)
	}
	return b.grow(0, len(b.rows), 0)
}

// grow fits the subtree over the node owning segment [lo, hi).
//
// It picks the same split as rescanning the node's rows once per
// candidate threshold would, bit for bit: each candidate's left and
// right sums receive the same residuals in the same (row) order, the
// candidates are the values at the same quantile positions, and gains
// are compared in the same (feature, threshold) order. Candidates the
// rescan discarded (the node's minimum, or fewer than MinLeaf rows on
// a side) are never formed, and a candidate equal to the previous one
// is skipped: its gain is the same, so it could not pass the strict
// comparison anyway.
func (b *builder) grow(lo, hi, depth int) *node {
	cfg := b.cfg
	rows := b.rows[lo:hi]
	var sum float64
	for _, i := range rows {
		sum += b.resid[i]
	}
	mean := sum / float64(len(rows))
	if depth >= cfg.MaxDepth || len(rows) < 2*cfg.MinLeaf {
		return &node{feature: -1, value: mean}
	}
	bestGain := 0.0
	bestFeat := -1
	bestThresh := 0.0
	m := len(rows)
	for j, col := range b.cols {
		s := b.sorted[j][lo:hi]
		if col[s[0]] == col[s[m-1]] {
			continue
		}
		// Candidate thresholds: quantiles of the feature over the node,
		// keeping those that leave at least MinLeaf rows on each side.
		above, upTo := col[s[cfg.MinLeaf-1]], col[s[m-cfg.MinLeaf]]
		k := 0
		for q := 1; q < cfg.Bins; q++ {
			t := col[s[q*m/cfg.Bins]]
			if t > above && t <= upTo && (k == 0 || t != b.thresh[k-1]) {
				b.thresh[k] = t
				k++
			}
		}
		if k == 0 {
			continue
		}
		// rank[i] is how many thresholds row i's value reaches, so the
		// rows of rank t fill s from nLeft[t-1] (the count of rows
		// below threshold t-1) to nLeft[t].
		at := 0
		for t := 0; t <= k; t++ {
			end := m
			if t < k {
				th := b.thresh[t]
				end = sort.Search(m, func(p int) bool { return col[s[p]] >= th })
				b.nLeft[t] = end
			}
			for _, i := range s[at:end] {
				b.rank[i] = int32(t)
			}
			at = end
		}
		// In row order, each row adds its residual to the right sum of
		// the thresholds it reaches and to the left sum of the others;
		// uint(t-c)>>63 is 1 exactly when t < c.
		sums := b.sums[:2*k]
		clear(sums)
		for _, i := range rows {
			v, c := b.resid[i], int(b.rank[i])
			for t := 0; t < k; t++ {
				sums[2*t+int(uint(t-c)>>63)] += v
			}
		}
		for t := 0; t < k; t++ {
			ls, rs := sums[2*t], sums[2*t+1]
			lc, rc := float64(b.nLeft[t]), float64(m-b.nLeft[t])
			// SSE reduction of splitting at thresh.
			gain := ls*ls/lc + rs*rs/rc - sum*sum/float64(len(rows))
			if gain > bestGain+1e-12 {
				bestGain = gain
				bestFeat = j
				bestThresh = b.thresh[t]
			}
		}
	}
	if bestFeat < 0 {
		return &node{feature: -1, value: mean}
	}
	col := b.cols[bestFeat]
	for _, i := range rows {
		b.left[i] = 0
		if col[i] < bestThresh {
			b.left[i] = 1
		}
	}
	mid := lo + b.partition(rows)
	for j, s := range b.sorted {
		// A feature constant over this node is skipped by every
		// descendant, so its rows need no order.
		if s := s[lo:hi]; b.cols[j][s[0]] != b.cols[j][s[m-1]] {
			b.partition(s)
		}
	}
	return &node{
		feature:   bestFeat,
		threshold: bestThresh,
		left:      b.grow(lo, mid, depth+1),
		right:     b.grow(mid, hi, depth+1),
	}
}

// partition stably moves the rows of s bound for the left child to its
// front and returns how many there are.
func (b *builder) partition(s []int32) int {
	nl, nr := 0, 0
	for _, i := range s {
		// Both stores happen; the side the row belongs to keeps it.
		// s[nl] is already read, as nl never passes the loop index.
		l := int(b.left[i])
		s[nl] = i
		b.spill[nr] = i
		nl += l
		nr += 1 - l
	}
	copy(s[nl:], b.spill[:nr])
	return nl
}

func evalTree(n *node, x []float64) float64 {
	for n.feature >= 0 {
		if x[n.feature] < n.threshold {
			n = n.left
		} else {
			n = n.right
		}
	}
	return n.value
}

// Predict returns the model's estimate for one feature row.
func (m *Model) Predict(x []float64) float64 {
	row := make([]float64, len(x))
	for j := range x {
		row[j] = (x[j] - m.mean[j]) / m.std[j]
	}
	p := m.base
	for _, t := range m.trees {
		p += m.cfg.Shrinkage * evalTree(t, row)
	}
	if m.cfg.LogTarget {
		return math.Expm1(p)
	}
	return p
}

// NumTrees returns the number of fitted trees.
func (m *Model) NumTrees() int { return len(m.trees) }

// R2 computes the coefficient of determination of the model on a dataset.
func (m *Model) R2(x [][]float64, y []float64) float64 {
	if len(x) == 0 {
		return 0
	}
	var mean float64
	for _, v := range y {
		mean += v
	}
	mean /= float64(len(y))
	var ssRes, ssTot float64
	for i := range x {
		d := y[i] - m.Predict(x[i])
		ssRes += d * d
		dt := y[i] - mean
		ssTot += dt * dt
	}
	if ssTot == 0 {
		return 0
	}
	return 1 - ssRes/ssTot
}
