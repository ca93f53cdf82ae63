package tensor

import "fmt"

// MatMul returns the matrix product m · b.
// It panics if m.Cols != b.Rows.
func (m *Matrix) MatMul(b *Matrix) *Matrix {
	return m.MatMulInto(b, New(m.Rows, b.Cols))
}

// MatMulInto computes dst = m · b and returns dst. dst is zeroed first (the
// kernel accumulates), must have shape m.Rows x b.Cols, and must not alias m
// or b.
func (m *Matrix) MatMulInto(b, dst *Matrix) *Matrix {
	if m.Cols != b.Rows {
		panic(fmt.Sprintf("tensor: MatMul shape mismatch %dx%d · %dx%d", m.Rows, m.Cols, b.Rows, b.Cols))
	}
	dst.assertShape(m.Rows, b.Cols, "MatMulInto")
	if aliases(dst, m) || aliases(dst, b) {
		panic("tensor: MatMulInto dst aliases an operand")
	}
	dst.Zero()
	matmulKernel(dst, m, b)
	return dst
}

// matmulKBlock is the k-panel height of the cache-blocked SIMD kernels: 64
// rows of b at the repo's typical ≤64 hidden columns is ≤32 KiB, so a panel
// stays L1-resident while every output row in the range streams over it.
// Panels are visited in ascending k order, so each output element still
// accumulates in exactly the order of the unblocked scalar kernel.
const matmulKBlock = 64

// matmulKernel accumulates out += m·b using an ikj loop order so the inner
// loop walks both b and out contiguously.
func matmulKernel(out, m, b *Matrix) {
	n, p := m.Cols, b.Cols
	if simdEnabled && p >= 8 && n > 0 {
		matmulSIMD(out, m, b)
		return
	}
	for i := 0; i < m.Rows; i++ {
		mrow := m.Data[i*n : (i+1)*n]
		orow := out.Data[i*p : (i+1)*p]
		for k, mv := range mrow {
			if mv == 0 {
				continue
			}
			brow := b.Data[k*p : (k+1)*p]
			for j, bv := range brow {
				orow[j] += mv * bv
			}
		}
	}
}

// matmulSIMD is the cache-blocked AVX-512 variant of matmulKernel. The
// full-width column groups go through axpyCols (bitwise identical to the
// scalar inner loop); the p%8 tail columns run the scalar loop. Requires
// b.Cols >= 8 and m.Cols > 0.
func matmulSIMD(out, m, b *Matrix) {
	n, p := m.Cols, b.Cols
	p8 := p &^ 7
	for k0 := 0; k0 < n; k0 += matmulKBlock {
		kn := n - k0
		if kn > matmulKBlock {
			kn = matmulKBlock
		}
		bp := &b.Data[k0*p]
		for i := 0; i < m.Rows; i++ {
			axpyCols(&out.Data[i*p], bp, &m.Data[i*n+k0], kn, p8, p, 1)
		}
	}
	if p8 == p {
		return
	}
	for i := 0; i < m.Rows; i++ {
		mrow := m.Data[i*n : (i+1)*n]
		orow := out.Data[i*p : (i+1)*p]
		for k, mv := range mrow {
			if mv == 0 {
				continue
			}
			brow := b.Data[k*p : (k+1)*p]
			for j := p8; j < p; j++ {
				orow[j] += mv * brow[j]
			}
		}
	}
}

// MatMulTransB returns m · bᵀ without materializing the transpose.
func (m *Matrix) MatMulTransB(b *Matrix) *Matrix {
	return m.MatMulTransBInto(b, New(m.Rows, b.Rows))
}

// MatMulTransBInto computes dst = m · bᵀ and returns dst. dst must have
// shape m.Rows x b.Rows and must not alias m or b.
func (m *Matrix) MatMulTransBInto(b, dst *Matrix) *Matrix {
	if m.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: MatMulTransB shape mismatch %dx%d · (%dx%d)ᵀ", m.Rows, m.Cols, b.Rows, b.Cols))
	}
	dst.assertShape(m.Rows, b.Rows, "MatMulTransBInto")
	if aliases(dst, m) || aliases(dst, b) {
		panic("tensor: MatMulTransBInto dst aliases an operand")
	}
	matmulTransBKernel(dst, m, b)
	return dst
}

// matmulTransBKernel computes out = m·bᵀ: each output row is a set of dot
// products between one row of m and every row of b.
func matmulTransBKernel(out, m, b *Matrix) {
	n := m.Cols
	for i := 0; i < m.Rows; i++ {
		mrow := m.Data[i*n : (i+1)*n]
		orow := out.Data[i*b.Rows : (i+1)*b.Rows]
		for j := 0; j < b.Rows; j++ {
			brow := b.Data[j*n : (j+1)*n]
			s := 0.0
			for k, mv := range mrow {
				s += mv * brow[k]
			}
			orow[j] = s
		}
	}
}

// MatMulTransA returns mᵀ · b without materializing the transpose.
func (m *Matrix) MatMulTransA(b *Matrix) *Matrix {
	return m.MatMulTransAInto(b, New(m.Cols, b.Cols))
}

// MatMulTransAInto computes dst = mᵀ · b and returns dst. dst is zeroed
// first (the kernel accumulates), must have shape m.Cols x b.Cols, and must
// not alias m or b.
func (m *Matrix) MatMulTransAInto(b, dst *Matrix) *Matrix {
	if m.Rows != b.Rows {
		panic(fmt.Sprintf("tensor: MatMulTransA shape mismatch (%dx%d)ᵀ · %dx%d", m.Rows, m.Cols, b.Rows, b.Cols))
	}
	dst.assertShape(m.Cols, b.Cols, "MatMulTransAInto")
	if aliases(dst, m) || aliases(dst, b) {
		panic("tensor: MatMulTransAInto dst aliases an operand")
	}
	dst.Zero()
	matmulTransAKernel(dst, m, b)
	return dst
}

// matmulTransAKernel accumulates out += mᵀ·b. The k loop stays outermost
// (as in the historical kernel), fixing the accumulation order per output
// element.
func matmulTransAKernel(out, m, b *Matrix) {
	if simdEnabled && b.Cols >= 8 && m.Rows > 0 {
		matmulTransASIMD(out, m, b)
		return
	}
	for k := 0; k < m.Rows; k++ {
		mrow := m.Data[k*m.Cols : (k+1)*m.Cols]
		brow := b.Data[k*b.Cols : (k+1)*b.Cols]
		for i := 0; i < m.Cols; i++ {
			mv := mrow[i]
			if mv == 0 {
				continue
			}
			orow := out.Data[i*b.Cols : (i+1)*b.Cols]
			for j, bv := range brow {
				orow[j] += mv * bv
			}
		}
	}
}

// matmulTransASIMD is the cache-blocked AVX-512 variant of
// matmulTransAKernel. Each output row i reads column i of m with stride
// m.Cols (a strided scalar stream the out-of-order core hides well);
// accumulation per element runs over ascending k exactly like the scalar
// k-outermost kernel. Requires b.Cols >= 8 and m.Rows > 0.
func matmulTransASIMD(out, m, b *Matrix) {
	p := b.Cols
	p8 := p &^ 7
	for k0 := 0; k0 < m.Rows; k0 += matmulKBlock {
		kn := m.Rows - k0
		if kn > matmulKBlock {
			kn = matmulKBlock
		}
		bp := &b.Data[k0*p]
		for i := 0; i < m.Cols; i++ {
			axpyCols(&out.Data[i*p], bp, &m.Data[k0*m.Cols+i], kn, p8, p, m.Cols)
		}
	}
	if p8 == p {
		return
	}
	for k := 0; k < m.Rows; k++ {
		mrow := m.Data[k*m.Cols : (k+1)*m.Cols]
		brow := b.Data[k*p : (k+1)*p]
		for i := 0; i < m.Cols; i++ {
			mv := mrow[i]
			if mv == 0 {
				continue
			}
			orow := out.Data[i*p : (i+1)*p]
			for j := p8; j < p; j++ {
				orow[j] += mv * brow[j]
			}
		}
	}
}
