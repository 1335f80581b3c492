package nn

import (
	"context"
	"math/rand"
	"testing"

	"github.com/trap-repro/trap/internal/par"
)

// Naive k-ascending references: the bit-identity contract of gemm.go is
// that the blocked kernels match these exactly (==, not within epsilon).

func naiveMul(a, b []float64, m, k, n int) []float64 {
	out := make([]float64, m*n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var s float64
			for p := 0; p < k; p++ {
				s += a[i*k+p] * b[p*n+j]
			}
			out[i*n+j] = s
		}
	}
	return out
}

func naiveAddMulNT(dA, dOut, b []float64, m, k, n int) {
	for i := 0; i < m; i++ {
		for p := 0; p < k; p++ {
			var s float64
			for j := 0; j < n; j++ {
				s += dOut[i*n+j] * b[p*n+j]
			}
			dA[i*k+p] += s
		}
	}
}

// naiveAddMulTN adds each term A[i,p]·dOut[i,j] straight into the
// existing dB[p,j], i ascending, skipping zero A[i,p] as the kernel does:
// starting from a nonzero dB, "sum, then add" would round differently.
func naiveAddMulTN(dB, a, dOut []float64, m, k, n int) {
	for p := 0; p < k; p++ {
		for j := 0; j < n; j++ {
			for i := 0; i < m; i++ {
				if av := a[i*k+p]; av != 0 {
					dB[p*n+j] += av * dOut[i*n+j]
				}
			}
		}
	}
}

// addMulTvec's reference is refAddMulTvec (gruref_test.go): each term
// goes straight into dx, rows ascending, zero d rows skipped.

func randFloats(rng *rand.Rand, n int) []float64 {
	x := make([]float64, n)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	return x
}

// withZeros sets about a quarter of x to exactly zero, so the kernels'
// zero-skipping paths run.
func withZeros(rng *rand.Rand, x []float64) []float64 {
	for i := range x {
		if rng.Intn(4) == 0 {
			x[i] = 0
		}
	}
	return x
}

func eqBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: element %d differs bit-wise: got %v want %v", what, i, got[i], want[i])
		}
	}
}

// gemmShapes covers the awkward cases: non-multiple-of-register-block
// row counts, 1×N, N×1, degenerate singletons, and a larger panel.
var gemmShapes = []struct{ m, k, n int }{
	{1, 1, 1},
	{1, 7, 1},
	{7, 1, 1},
	{1, 1, 7},
	{1, 5, 9},
	{9, 5, 1},
	{4, 4, 4},
	{5, 3, 2},
	{6, 7, 5},
	{13, 11, 17},
	{32, 16, 1},
	{33, 17, 3},
	{48, 48, 1},
	{64, 64, 64},
}

func TestGEMMKernelsMatchNaiveBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, sh := range gemmShapes {
		m, k, n := sh.m, sh.k, sh.n
		a := randFloats(rng, m*k)
		b := randFloats(rng, k*n)
		want := naiveMul(a, b, m, k, n)
		got := make([]float64, m*n)
		if n == 1 {
			matvecTo(got, a, b, m, k)
		} else {
			mulTo(got, a, b, m, k, n)
		}
		eqBits(t, "mulTo", got, want)
		// Also exercise mulTo on the n==1 shapes: both paths must agree.
		mulTo(got, a, b, m, k, n)
		eqBits(t, "mulTo(n==1)", got, want)

		// Every accumulating kernel starts from a random existing value.
		dOut := randFloats(rng, m*n)
		gotA := randFloats(rng, m*k)
		wantA := append([]float64(nil), gotA...)
		addMulNT(gotA, dOut, b, m, k, n)
		naiveAddMulNT(wantA, dOut, b, m, k, n)
		eqBits(t, "addMulNT", gotA, wantA)

		az := withZeros(rng, append([]float64(nil), a...))
		gotB := randFloats(rng, k*n)
		wantB := append([]float64(nil), gotB...)
		addMulTN(gotB, az, dOut, m, k, n)
		naiveAddMulTN(wantB, az, dOut, m, k, n)
		eqBits(t, "addMulTN", gotB, wantB)

		checkAddMulTvec(t, rng, a, m, k)
	}
}

// checkAddMulTvec compares addMulTvec with the term-by-term reference
// from a random dx and a d with exact zeros.
func checkAddMulTvec(t *testing.T, rng *rand.Rand, a []float64, m, k int) {
	t.Helper()
	d := withZeros(rng, randFloats(rng, m))
	gotX := randFloats(rng, k)
	wantX := append([]float64(nil), gotX...)
	addMulTvec(gotX, a, d, m, k)
	refAddMulTvec(wantX, a, d, m, k)
	eqBits(t, "addMulTvec", gotX, wantX)
}

func TestGEMMKernelsFuzzBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for iter := 0; iter < 200; iter++ {
		m := 1 + rng.Intn(19)
		k := 1 + rng.Intn(19)
		n := 1 + rng.Intn(19)
		a := randFloats(rng, m*k)
		b := randFloats(rng, k*n)
		got := make([]float64, m*n)
		mulTo(got, a, b, m, k, n)
		eqBits(t, "mulTo(fuzz)", got, naiveMul(a, b, m, k, n))
		if n == 1 {
			mv := make([]float64, m)
			matvecTo(mv, a, b, m, k)
			eqBits(t, "matvecTo(fuzz)", mv, got)
		}
		checkAddMulTvec(t, rng, a, m, k)
	}
}

// TestGEMMBitIdenticalAcrossWorkers partitions the output rows of one
// GEMM across 1, 2 and 4 workers (the way batched training distributes
// independent trajectories) and asserts the assembled product is
// bit-identical for every worker count: blocking only ever spans
// independent output elements, never one element's reduction chain.
func TestGEMMBitIdenticalAcrossWorkers(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	const m, k, n = 37, 23, 29
	a := randFloats(rng, m*k)
	b := randFloats(rng, k*n)
	ref := make([]float64, m*n)
	mulTo(ref, a, b, m, k, n)
	for _, workers := range []int{1, 2, 4} {
		out := make([]float64, m*n)
		chunk := (m + workers - 1) / workers
		nChunks := (m + chunk - 1) / chunk
		err := par.ForEach(context.Background(), workers, nChunks, func(c int) error {
			lo := c * chunk
			hi := lo + chunk
			if hi > m {
				hi = m
			}
			mulTo(out[lo*n:hi*n], a[lo*k:hi*k], b, hi-lo, k, n)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		eqBits(t, "workers", out, ref)
	}
}

// TestArenaTrimReleasesOneOffPeak pins satellite behavior: a single
// outsized batch must not pin its high-water memory once steady-state
// cycles resume — within two trim windows the retained gauge falls back
// below the spike.
func TestArenaTrimReleasesOneOffPeak(t *testing.T) {
	g := NewGraph(false)
	const big = 1 << 20 // 8 MiB of float64
	g.floats(big)
	g.Reset()
	spike := ArenaRetainedBytes()
	for i := 0; i < 2*arenaTrimWindow+1; i++ {
		g.floats(64)
		g.Reset()
	}
	after := ArenaRetainedBytes()
	if after > spike-big*8/2 {
		t.Fatalf("arena retained %d bytes after trim window; spike was %d — one-off batch still pinned", after, spike)
	}
}
