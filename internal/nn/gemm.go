package nn

// Deterministic blocked matrix kernels. Every op in this file follows
// one accumulation contract: each output (or gradient) element is a
// single sum evaluated with its reduction index strictly ascending.
// Blocking is applied only across independent output elements (register
// blocks of rows, contiguous panels of columns) and never splits one
// element's accumulation chain, so the results are bit-identical to the
// naive three-loop reference regardless of tiling — and therefore
// identical no matter how work is distributed across rollout workers.
// gemm_test.go pins that contract with table and fuzz tests.

// mulTo computes out = a·b (row-major, shapes already validated).
// Register blocking: four rows of a share each streamed row of b, which
// quarters the b traffic without reordering any element's k-ascending
// accumulation.
func mulTo(out, a, b []float64, m, k, n int) {
	i := 0
	for ; i+4 <= m; i += 4 {
		r0 := out[(i+0)*n : (i+1)*n]
		r1 := out[(i+1)*n : (i+2)*n]
		r2 := out[(i+2)*n : (i+3)*n]
		r3 := out[(i+3)*n : (i+4)*n]
		for j := range r0 {
			r0[j], r1[j], r2[j], r3[j] = 0, 0, 0, 0
		}
		for p := 0; p < k; p++ {
			a0 := a[(i+0)*k+p]
			a1 := a[(i+1)*k+p]
			a2 := a[(i+2)*k+p]
			a3 := a[(i+3)*k+p]
			brow := b[p*n : p*n+n]
			for j, bv := range brow {
				r0[j] += a0 * bv
				r1[j] += a1 * bv
				r2[j] += a2 * bv
				r3[j] += a3 * bv
			}
		}
	}
	for ; i < m; i++ {
		row := out[i*n : i*n+n]
		for j := range row {
			row[j] = 0
		}
		for p := 0; p < k; p++ {
			av := a[i*k+p]
			brow := b[p*n : p*n+n]
			for j, bv := range brow {
				row[j] += av * bv
			}
		}
	}
}

// matvecTo computes out = a·x for a column vector x (n == 1). Each
// out[i] is one dot product summed from zero, k ascending. A pass covers
// four rows: each x[p] load feeds four independent accumulators, so the
// four chains overlap instead of one add chain waiting on the last.
func matvecTo(out, a, x []float64, m, k int) {
	x = x[:k]
	i := 0
	for ; i+4 <= m; i += 4 {
		a0 := a[(i+0)*k:][:k]
		a1 := a[(i+1)*k:][:k]
		a2 := a[(i+2)*k:][:k]
		a3 := a[(i+3)*k:][:k]
		var s0, s1, s2, s3 float64
		for p, xv := range x {
			s0 += a0[p] * xv
			s1 += a1[p] * xv
			s2 += a2[p] * xv
			s3 += a3[p] * xv
		}
		out[i], out[i+1], out[i+2], out[i+3] = s0, s1, s2, s3
	}
	for ; i < m; i++ {
		out[i] = dot(a[i*k:i*k+k], x)
	}
}

// dot returns the inner product of equal-length slices, accumulated in
// ascending index order.
func dot(a, x []float64) float64 {
	var s float64
	for i, av := range a {
		s += av * x[i]
	}
	return s
}

// addMulNT accumulates dA += dOut·Bᵀ: dA[i,p] += Σ_j dOut[i,j]·B[p,j],
// j ascending. Both operand rows are contiguous.
func addMulNT(dA, dOut, b []float64, m, k, n int) {
	for i := 0; i < m; i++ {
		drow := dOut[i*n : i*n+n]
		for p := 0; p < k; p++ {
			dA[i*k+p] += dot(drow, b[p*n:p*n+n])
		}
	}
}

// addMulTN accumulates dB += Aᵀ·dOut: dB[p,j] += Σ_i A[i,p]·dOut[i,j],
// i ascending (outer loop), inner rows contiguous.
func addMulTN(dB, a, dOut []float64, m, k, n int) {
	for i := 0; i < m; i++ {
		drow := dOut[i*n : i*n+n]
		for p := 0; p < k; p++ {
			av := a[i*k+p]
			if av == 0 {
				continue
			}
			brow := dB[p*n : p*n+n]
			for j, dv := range drow {
				brow[j] += av * dv
			}
		}
	}
}

// addOuter accumulates dW += d·xᵀ (rank-1 update): dW[i,j] += d[i]·x[j].
func addOuter(dW, d, x []float64) {
	k := len(x)
	for i, dv := range d {
		if dv == 0 {
			continue
		}
		row := dW[i*k : i*k+k]
		for j, xv := range x {
			row[j] += dv * xv
		}
	}
}

// addMulTvec accumulates dx += Aᵀ·d: each dx[p] is one chain that
// starts from its existing value and adds d[i]·A[i,p] term by term, i
// ascending, skipping rows whose d[i] is zero. A pass covers eight
// output elements held in registers across the whole row loop; the
// tail runs one element at a time.
func addMulTvec(dx, a, d []float64, m, k int) {
	d = d[:m]
	p := 0
	for ; p+8 <= k; p += 8 {
		o := dx[p : p+8 : p+8]
		s0, s1, s2, s3, s4, s5, s6, s7 := o[0], o[1], o[2], o[3], o[4], o[5], o[6], o[7]
		off := p // A[i, p:p+8] starts at i·k+p
		for _, dv := range d {
			if dv != 0 {
				r := a[off : off+8 : off+8]
				s0 += dv * r[0]
				s1 += dv * r[1]
				s2 += dv * r[2]
				s3 += dv * r[3]
				s4 += dv * r[4]
				s5 += dv * r[5]
				s6 += dv * r[6]
				s7 += dv * r[7]
			}
			off += k
		}
		o[0], o[1], o[2], o[3], o[4], o[5], o[6], o[7] = s0, s1, s2, s3, s4, s5, s6, s7
	}
	for ; p < k; p++ {
		s := dx[p]
		for i, dv := range d {
			if dv != 0 {
				s += dv * a[i*k+p]
			}
		}
		dx[p] = s
	}
}

// addVec accumulates dst += src.
func addVec(dst, src []float64) {
	for i, v := range src {
		dst[i] += v
	}
}

// allZeroF reports whether every value of x is zero (used to skip whole
// backward GEMMs for outputs that received no gradient; skipping a
// strictly-zero accumulation leaves every gradient bit-identical for
// any worker count because the same skip fires on every schedule).
func allZeroF(x []float64) bool {
	for _, v := range x {
		if v != 0 {
			return false
		}
	}
	return true
}
