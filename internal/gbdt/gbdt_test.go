package gbdt

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
)

func synth(n int, seed int64, fn func(x []float64) float64) ([][]float64, []float64) {
	rng := rand.New(rand.NewSource(seed))
	xs := make([][]float64, n)
	ys := make([]float64, n)
	for i := 0; i < n; i++ {
		x := []float64{rng.Float64() * 10, rng.Float64() * 10, rng.Float64() * 10}
		xs[i] = x
		ys[i] = fn(x)
	}
	return xs, ys
}

func TestFitsNonlinearFunction(t *testing.T) {
	fn := func(x []float64) float64 {
		v := 3*x[0] + x[1]*x[1]
		if x[2] > 5 {
			v += 20
		}
		return v
	}
	xs, ys := synth(2000, 1, fn)
	m := Train(xs, ys, Config{Trees: 150, MaxDepth: 5})
	xt, yt := synth(500, 2, fn)
	r2 := m.R2(xt, yt)
	if r2 < 0.9 {
		t.Errorf("R2 = %v, want >= 0.9", r2)
	}
}

func TestLogTargetHandlesWideRange(t *testing.T) {
	// Cost-like target spanning orders of magnitude: log transform should
	// dominate the raw fit in relative error on the small end.
	fn := func(x []float64) float64 { return math.Exp(x[0]) }
	xs, ys := synth(2000, 3, fn)
	mLog := Train(xs, ys, Config{Trees: 120, MaxDepth: 4, LogTarget: true})
	mRaw := Train(xs, ys, Config{Trees: 120, MaxDepth: 4})
	xt, yt := synth(300, 4, fn)
	relErr := func(m *Model) float64 {
		var s float64
		for i := range xt {
			s += math.Abs(m.Predict(xt[i])-yt[i]) / (yt[i] + 1)
		}
		return s / float64(len(xt))
	}
	if relErr(mLog) >= relErr(mRaw) {
		t.Errorf("log target did not improve relative error: %v vs %v",
			relErr(mLog), relErr(mRaw))
	}
}

func TestMoreTreesReduceTrainError(t *testing.T) {
	fn := func(x []float64) float64 { return x[0]*x[1] - 2*x[2] }
	xs, ys := synth(800, 5, fn)
	few := Train(xs, ys, Config{Trees: 5, MaxDepth: 3})
	many := Train(xs, ys, Config{Trees: 100, MaxDepth: 3})
	if many.R2(xs, ys) <= few.R2(xs, ys) {
		t.Errorf("more trees did not improve train R2: %v vs %v",
			many.R2(xs, ys), few.R2(xs, ys))
	}
	if few.NumTrees() != 5 || many.NumTrees() != 100 {
		t.Error("NumTrees wrong")
	}
}

func TestConstantTarget(t *testing.T) {
	xs, _ := synth(100, 6, func([]float64) float64 { return 0 })
	ys := make([]float64, 100)
	for i := range ys {
		ys[i] = 7.5
	}
	m := Train(xs, ys, Config{Trees: 10})
	if math.Abs(m.Predict(xs[0])-7.5) > 1e-9 {
		t.Errorf("constant target prediction = %v", m.Predict(xs[0]))
	}
}

func TestConstantFeatureIgnored(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	xs := make([][]float64, 300)
	ys := make([]float64, 300)
	for i := range xs {
		v := rng.Float64() * 5
		xs[i] = []float64{1.0, v} // first feature constant
		ys[i] = 2 * v
	}
	m := Train(xs, ys, Config{Trees: 80, MaxDepth: 3})
	if r2 := m.R2(xs, ys); r2 < 0.95 {
		t.Errorf("R2 with constant feature = %v", r2)
	}
}

func TestDeterministic(t *testing.T) {
	fn := func(x []float64) float64 { return x[0] + x[1] }
	xs, ys := synth(200, 8, fn)
	a := Train(xs, ys, Config{Trees: 20})
	b := Train(xs, ys, Config{Trees: 20})
	for i := 0; i < 20; i++ {
		if a.Predict(xs[i]) != b.Predict(xs[i]) {
			t.Fatal("training not deterministic")
		}
	}
}

func TestPanicsOnEmptyData(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic on empty data")
		}
	}()
	Train(nil, nil, Config{})
}

// refTrain is the trainer as it was before the presorted builder: the
// reference the tests hold Train to, bit for bit.
func refTrain(x [][]float64, y []float64, cfg Config) *Model {
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
	resid := make([]float64, n)
	idx := make([]int, n)
	for t := 0; t < cfg.Trees; t++ {
		for i := range resid {
			resid[i] = target[i] - pred[i]
			idx[i] = i
		}
		tree := refBuildTree(xn, resid, idx, cfg, 0)
		m.trees = append(m.trees, tree)
		for i := range pred {
			pred[i] += cfg.Shrinkage * evalTree(tree, xn[i])
		}
	}
	return m
}

// refBuildTree fits one regression tree on the residuals of the given
// rows, re-sorting every feature at every node and rescanning the rows
// once per candidate threshold.
func refBuildTree(x [][]float64, resid []float64, rows []int, cfg Config, depth int) *node {
	var sum float64
	for _, i := range rows {
		sum += resid[i]
	}
	mean := sum / float64(len(rows))
	if depth >= cfg.MaxDepth || len(rows) < 2*cfg.MinLeaf {
		return &node{feature: -1, value: mean}
	}
	bestGain := 0.0
	bestFeat := -1
	bestThresh := 0.0
	d := len(x[rows[0]])
	var baseSSE float64
	for _, i := range rows {
		dv := resid[i] - mean
		baseSSE += dv * dv
	}
	vals := make([]float64, 0, len(rows))
	for j := 0; j < d; j++ {
		// Histogram candidate thresholds: quantiles of the feature.
		vals = vals[:0]
		for _, i := range rows {
			vals = append(vals, x[i][j])
		}
		sort.Float64s(vals)
		if vals[0] == vals[len(vals)-1] {
			continue
		}
		for b := 1; b < cfg.Bins; b++ {
			thresh := vals[b*len(vals)/cfg.Bins]
			if thresh == vals[0] {
				continue
			}
			var ls, lc, rs, rc float64
			for _, i := range rows {
				if x[i][j] < thresh {
					ls += resid[i]
					lc++
				} else {
					rs += resid[i]
					rc++
				}
			}
			if lc < float64(cfg.MinLeaf) || rc < float64(cfg.MinLeaf) {
				continue
			}
			// SSE reduction of splitting at thresh.
			gain := ls*ls/lc + rs*rs/rc - sum*sum/float64(len(rows))
			if gain > bestGain+1e-12 {
				bestGain = gain
				bestFeat = j
				bestThresh = thresh
			}
		}
	}
	if bestFeat < 0 {
		return &node{feature: -1, value: mean}
	}
	var left, right []int
	for _, i := range rows {
		if x[i][bestFeat] < bestThresh {
			left = append(left, i)
		} else {
			right = append(right, i)
		}
	}
	return &node{
		feature:   bestFeat,
		threshold: bestThresh,
		left:      refBuildTree(x, resid, left, cfg, depth+1),
		right:     refBuildTree(x, resid, right, cfg, depth+1),
	}
}

// diffModels describes the first difference between two models, compared
// bit for bit: base, normalisation, and every tree's features,
// thresholds and leaf values. It returns "" when they are identical.
func diffModels(got, want *Model) string {
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	if !same(got.base, want.base) {
		return fmt.Sprintf("base %v, want %v", got.base, want.base)
	}
	if len(got.mean) != len(want.mean) {
		return fmt.Sprintf("%d features, want %d", len(got.mean), len(want.mean))
	}
	for j := range want.mean {
		if !same(got.mean[j], want.mean[j]) || !same(got.std[j], want.std[j]) {
			return fmt.Sprintf("feature %d: mean/std %v/%v, want %v/%v",
				j, got.mean[j], got.std[j], want.mean[j], want.std[j])
		}
	}
	if len(got.trees) != len(want.trees) {
		return fmt.Sprintf("%d trees, want %d", len(got.trees), len(want.trees))
	}
	var walk func(path string, a, b *node) string
	walk = func(path string, a, b *node) string {
		if a.feature != b.feature || !same(a.threshold, b.threshold) || !same(a.value, b.value) {
			return fmt.Sprintf("node %s: (feature %d, threshold %v, value %v), want (%d, %v, %v)",
				path, a.feature, a.threshold, a.value, b.feature, b.threshold, b.value)
		}
		if b.feature < 0 {
			return ""
		}
		if msg := walk(path+"L", a.left, b.left); msg != "" {
			return msg
		}
		return walk(path+"R", a.right, b.right)
	}
	for t := range want.trees {
		if msg := walk(fmt.Sprintf("tree %d ", t), got.trees[t], want.trees[t]); msg != "" {
			return msg
		}
	}
	return ""
}

// quantised draws n rows of d features, each taking one of levels values
// so that every column is heavily tied, with a target mixing them.
func quantised(n, d, levels int, seed int64) ([][]float64, []float64) {
	rng := rand.New(rand.NewSource(seed))
	xs := make([][]float64, n)
	ys := make([]float64, n)
	for i := range xs {
		x := make([]float64, d)
		for j := range x {
			x[j] = float64(rng.Intn(levels))
			ys[i] += float64(j+1) * x[j]
		}
		xs[i] = x
		ys[i] += rng.Float64()
	}
	return xs, ys
}

// suiteLike draws n rows shaped like the learned utility model's training
// set: 40 plan-feature columns (cost, rows and two height-weighted sums
// for each of 10 operator types), most of them zero in any one row, with
// costs and row counts spread over orders of magnitude.
func suiteLike(n int, seed int64) ([][]float64, []float64) {
	const types = 10
	rng := rand.New(rand.NewSource(seed))
	xs := make([][]float64, n)
	ys := make([]float64, n)
	for i := range xs {
		x := make([]float64, 4*types)
		for k := 0; k < types; k++ {
			if rng.Float64() > 0.3 {
				continue
			}
			cost := math.Exp(rng.Float64() * 12)
			rows := math.Round(math.Exp(rng.Float64() * 10))
			h := float64(1 + rng.Intn(3))
			x[k], x[types+k], x[2*types+k], x[3*types+k] = cost, rows, h*cost, h*rows
			ys[i] += cost * (0.5 + rng.Float64())
		}
		xs[i] = x
	}
	return xs, ys
}

func TestTrainMatchesReference(t *testing.T) {
	type set struct {
		name string
		x    [][]float64
		y    []float64
	}
	constCol := func(n int) set {
		rng := rand.New(rand.NewSource(7))
		xs := make([][]float64, n)
		ys := make([]float64, n)
		for i := range xs {
			v := rng.Float64() * 5
			xs[i] = []float64{1.0, v, 0}
			ys[i] = 2 * v
		}
		return set{"constant columns", xs, ys}
	}
	sets := []set{constCol(300)}
	add := func(name string, x [][]float64, y []float64) { sets = append(sets, set{name, x, y}) }
	x, y := synth(500, 1, func(x []float64) float64 {
		v := 3*x[0] + x[1]*x[1]
		if x[2] > 5 {
			v += 20
		}
		return v
	})
	add("nonlinear", x, y)
	x, y = synth(400, 3, func(x []float64) float64 { return math.Exp(x[0]) })
	add("wide range", x, y)
	x, y = synth(300, 5, func(x []float64) float64 { return x[0]*x[1] - 2*x[2] })
	add("signed", x, y)
	x, y = quantised(300, 4, 2, 11)
	add("two levels", x, y)
	x, y = quantised(300, 4, 3, 12)
	add("three levels", x, y)
	x, y = suiteLike(300, 13)
	add("suite-like", x, y)
	for n := 9; n <= 12; n++ {
		x, y = quantised(n, 3, 3, int64(n))
		add(fmt.Sprintf("n=%d three levels", n), x, y)
		x, y = synth(n, int64(n), func(x []float64) float64 { return x[0] + x[1] })
		add(fmt.Sprintf("n=%d", n), x, y)
	}

	for _, st := range sets {
		for _, depth := range []int{1, 5, 8} {
			for _, bins := range []int{2, 3, 32, 100} {
				for _, logTarget := range []bool{false, true} {
					cfg := Config{Trees: 6, MaxDepth: depth, Bins: bins, LogTarget: logTarget}
					if msg := diffModels(Train(st.x, st.y, cfg), refTrain(st.x, st.y, cfg)); msg != "" {
						t.Errorf("%s, %+v: %s", st.name, cfg, msg)
					}
				}
			}
		}
	}

	// The learned utility model's own recipe, at QuickParams' size.
	x, y = suiteLike(400, 14)
	cfg := Config{Trees: 120, MaxDepth: 5, LogTarget: true}
	if msg := diffModels(Train(x, y, cfg), refTrain(x, y, cfg)); msg != "" {
		t.Errorf("suite-like, utility recipe: %s", msg)
	}
}

// FuzzTrainMatchesReference trains both builders on rows decoded from
// the fuzz input: d features and a target per row, each one of a few
// integer levels, so ties are everywhere.
func FuzzTrainMatchesReference(f *testing.F) {
	f.Add([]byte("0123456789abcdefghijklmnopqrstuvwxyz"), uint8(2), uint8(3), uint8(4), uint8(1), uint8(30), true)
	f.Add([]byte{0, 0, 1, 0, 2, 9, 0, 1, 1, 3, 0, 0, 2, 2, 7, 1, 1, 1, 4, 4, 0}, uint8(0), uint8(2), uint8(7), uint8(0), uint8(0), false)
	f.Fuzz(func(t *testing.T, data []byte, features, levels, depth, minLeaf, bins uint8, logTarget bool) {
		d := 1 + int(features)%4
		lv := 2 + int(levels)
		n := len(data) / (d + 1)
		if n == 0 || n > 512 {
			return
		}
		xs := make([][]float64, n)
		ys := make([]float64, n)
		for i := range xs {
			row := data[i*(d+1) : (i+1)*(d+1)]
			xs[i] = make([]float64, d)
			for j := range xs[i] {
				xs[i][j] = float64(int(row[j])%lv - lv/2)
			}
			ys[i] = float64(int(row[d]) - 100)
		}
		cfg := Config{
			Trees:     4,
			MaxDepth:  1 + int(depth)%8,
			MinLeaf:   1 + int(minLeaf)%6,
			Bins:      2 + int(bins)%99,
			LogTarget: logTarget,
		}
		if msg := diffModels(Train(xs, ys, cfg), refTrain(xs, ys, cfg)); msg != "" {
			t.Errorf("%+v: %s", cfg, msg)
		}
	})
}

var benchModel *Model

// BenchmarkTrain times the learned utility model's recipe (120 trees,
// depth 5, log target) on suite-shaped data at QuickParams' 400 samples
// and FullParams' 2000.
func BenchmarkTrain(b *testing.B) {
	for _, n := range []int{400, 2000} {
		x, y := suiteLike(n, 1)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				benchModel = Train(x, y, Config{Trees: 120, MaxDepth: 5, LogTarget: true})
			}
		})
	}
}
