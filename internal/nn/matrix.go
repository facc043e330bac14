// Package nn is a small, dependency-free neural-network library built for
// the paper's DQN: row-major float64 matrices, fully-connected layers, ReLU
// activations, mean-squared-error loss, backpropagation, SGD and Adam
// optimizers, and binary model serialization.
//
// Go has no mature deep-learning framework in its standard ecosystem, so
// this package implements exactly the subset the paper's 4-layer
// fully-connected DQN needs, with numerical-gradient checks in the tests.
package nn

import (
	"fmt"
	"math"
	"math/rand"
)

// Matrix is a dense row-major matrix.
type Matrix struct {
	Rows, Cols int
	Data       []float64
}

// NewMatrix allocates a zero matrix.
func NewMatrix(rows, cols int) *Matrix {
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// FromSlice wraps a row vector (1 x n) around a copy of x.
func FromSlice(x []float64) *Matrix {
	m := NewMatrix(1, len(x))
	copy(m.Data, x)
	return m
}

// At returns element (r, c).
func (m *Matrix) At(r, c int) float64 { return m.Data[r*m.Cols+c] }

// Set assigns element (r, c).
func (m *Matrix) Set(r, c int, v float64) { m.Data[r*m.Cols+c] = v }

// Clone returns a deep copy.
func (m *Matrix) Clone() *Matrix {
	out := NewMatrix(m.Rows, m.Cols)
	copy(out.Data, m.Data)
	return out
}

// Row returns row r as a fresh slice.
func (m *Matrix) Row(r int) []float64 {
	out := make([]float64, m.Cols)
	copy(out, m.Data[r*m.Cols:(r+1)*m.Cols])
	return out
}

// RowView returns row r as a subslice sharing m's backing array. Mutations
// through the view are visible in m, and the view is invalidated by anything
// that reallocates m's Data.
func (m *Matrix) RowView(r int) []float64 {
	return m.Data[r*m.Cols : (r+1)*m.Cols]
}

// Reshape resizes m to rows x cols in place, reusing the backing array when
// it has capacity. Element values are unspecified afterwards.
func (m *Matrix) Reshape(rows, cols int) {
	n := rows * cols
	if cap(m.Data) < n {
		m.Data = make([]float64, n)
	}
	m.Rows, m.Cols = rows, cols
	m.Data = m.Data[:n]
}

// MatMul computes a @ b.
func MatMul(a, b *Matrix) (*Matrix, error) {
	out := NewMatrix(a.Rows, b.Cols)
	if err := MatMulInto(out, a, b); err != nil {
		return nil, err
	}
	return out, nil
}

// MatMulInto computes a @ b into dst, reshaping dst (reusing its backing
// array when large enough). dst must not alias a or b.
//
// It is the package's one float64 GEMM: Dense.Forward, ForwardBatch and
// Dense.Backward's products for a dense gradient all run on it. Rows of a are taken eight or four
// at a time, so each streamed row of b serves several output rows; on amd64
// with AVX those blocks run in block8AVX/block4AVX (gemm_amd64.s), which also
// vectorize four output columns per instruction. Every output element
// accumulates from +0 in ascending k with a separate multiply and add rounding
// per step (never FMA), so the block shape and the assembly never change a
// bit. The paths differ only in which exact 0·b products they skip, and
// adding one to a finite sum that started at +0 leaves it unchanged. The
// float64(...) around each product keeps gc from fusing it into the add on
// architectures with FMA.
func MatMulInto(dst, a, b *Matrix) error {
	if a.Cols != b.Rows {
		return fmt.Errorf("nn: matmul shape mismatch (%dx%d)@(%dx%d)", a.Rows, a.Cols, b.Rows, b.Cols)
	}
	dst.Reshape(a.Rows, b.Cols)
	for i := range dst.Data {
		dst.Data[i] = 0
	}
	k, n := a.Cols, b.Cols
	cols4 := 0
	if useAVX && k > 0 {
		// The AVX microkernels cover columns [0, cols4); tailCols finishes
		// the rest with the same per-element rounding sequence.
		cols4 = n &^ 3
	}
	i := 0
	if cols4 > 0 {
		for ; i+8 <= a.Rows; i += 8 {
			block8AVX(&dst.Data[i*n], &a.Data[i*k], &b.Data[0], k, n, cols4)
			tailCols(dst, a, b, i, 8, cols4)
		}
	}
	for ; i+4 <= a.Rows; i += 4 {
		if cols4 > 0 {
			block4AVX(&dst.Data[i*n], &a.Data[i*k], &b.Data[0], k, n, cols4)
			tailCols(dst, a, b, i, 4, cols4)
			continue
		}
		a0 := a.Data[(i+0)*k : (i+1)*k]
		a1 := a.Data[(i+1)*k : (i+2)*k]
		a2 := a.Data[(i+2)*k : (i+3)*k]
		a3 := a.Data[(i+3)*k : (i+4)*k]
		o0 := dst.Data[(i+0)*n : (i+1)*n]
		o1 := dst.Data[(i+1)*n : (i+2)*n]
		o2 := dst.Data[(i+2)*n : (i+3)*n]
		o3 := dst.Data[(i+3)*n : (i+4)*n]
		for kk := 0; kk < k; kk++ {
			v0, v1, v2, v3 := a0[kk], a1[kk], a2[kk], a3[kk]
			if v0 == 0 && v1 == 0 && v2 == 0 && v3 == 0 {
				continue
			}
			brow := b.Data[kk*n : (kk+1)*n]
			for j, bv := range brow {
				o0[j] += float64(v0 * bv)
				o1[j] += float64(v1 * bv)
				o2[j] += float64(v2 * bv)
				o3[j] += float64(v3 * bv)
			}
		}
	}
	tailCols(dst, a, b, i, a.Rows-i, 0)
	return nil
}

// tailCols accumulates columns [col0, n) of `rows` output rows starting at
// row i, skipping zero multiplicands. It runs k ascending per element, so it
// composes with the block kernels without changing any bits.
func tailCols(dst, a, b *Matrix, i, rows, col0 int) {
	k, n := a.Cols, b.Cols
	if col0 >= n {
		return
	}
	for r := i; r < i+rows; r++ {
		arow := a.Data[r*k : (r+1)*k]
		orow := dst.Data[r*n : (r+1)*n]
		for kk, av := range arow {
			if av == 0 {
				continue
			}
			brow := b.Data[kk*n : (kk+1)*n]
			for j := col0; j < n; j++ {
				orow[j] += float64(av * brow[j])
			}
		}
	}
}

// Transpose returns m transposed.
func (m *Matrix) Transpose() *Matrix {
	out := &Matrix{}
	transposeInto(out, m)
	return out
}

// transposeInto writes m transposed into dst, reshaping dst (reusing its
// backing array when large enough). dst must not alias m.
func transposeInto(dst, m *Matrix) {
	dst.Reshape(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			dst.Data[j*dst.Cols+i] = m.Data[i*m.Cols+j]
		}
	}
}

// AddRowVector adds a 1 x Cols bias row to every row of m in place. On amd64
// with AVX the first Cols&^3 columns of every row go through vecAddRows; an
// element-wise add vectorizes without changing any bit.
func (m *Matrix) AddRowVector(b *Matrix) error {
	if b.Rows != 1 || b.Cols != m.Cols {
		return fmt.Errorf("nn: bias shape (%dx%d) does not match %d cols", b.Rows, b.Cols, m.Cols)
	}
	cols4 := 0
	if useAVX && m.Rows > 0 {
		cols4 = m.Cols &^ 3
	}
	if cols4 > 0 {
		vecAddRows(&m.Data[0], &b.Data[0], m.Rows, m.Cols, cols4)
	}
	for i := 0; cols4 < m.Cols && i < m.Rows; i++ {
		row := m.Data[i*m.Cols : (i+1)*m.Cols]
		for j := cols4; j < m.Cols; j++ {
			row[j] += b.Data[j]
		}
	}
	return nil
}

// XavierInit fills m with Glorot-uniform values for a layer with the given
// fan-in and fan-out.
func (m *Matrix) XavierInit(fanIn, fanOut int, rng *rand.Rand) {
	limit := math.Sqrt(6.0 / float64(fanIn+fanOut))
	for i := range m.Data {
		// The conversion rounds rng.Float64's inlined product, which gc
		// would otherwise fuse into the doubling add on FMA machines.
		m.Data[i] = (float64(rng.Float64())*2 - 1) * limit
	}
}

// MaxAbsDiff returns the largest element-wise absolute difference between
// two equally-shaped matrices.
func MaxAbsDiff(a, b *Matrix) (float64, error) {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		return 0, fmt.Errorf("nn: shape mismatch (%dx%d) vs (%dx%d)", a.Rows, a.Cols, b.Rows, b.Cols)
	}
	var d float64
	for i := range a.Data {
		if v := math.Abs(a.Data[i] - b.Data[i]); v > d {
			d = v
		}
	}
	return d, nil
}
