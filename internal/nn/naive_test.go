package nn

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// naiveMatMulInto is the scalar ikj GEMM that MatMulInto replaced, kept
// verbatim as the reference its blocked and AVX paths must match bit for bit.
func naiveMatMulInto(dst, a, b *Matrix) error {
	if a.Cols != b.Rows {
		return fmt.Errorf("nn: matmul shape mismatch (%dx%d)@(%dx%d)", a.Rows, a.Cols, b.Rows, b.Cols)
	}
	dst.Reshape(a.Rows, b.Cols)
	for i := range dst.Data {
		dst.Data[i] = 0
	}
	for i := 0; i < a.Rows; i++ {
		arow := a.Data[i*a.Cols : (i+1)*a.Cols]
		orow := dst.Data[i*dst.Cols : (i+1)*dst.Cols]
		for k, av := range arow {
			if av == 0 {
				continue
			}
			brow := b.Data[k*b.Cols : (k+1)*b.Cols]
			for j, bv := range brow {
				orow[j] += av * bv
			}
		}
	}
	return nil
}

// naiveDenseBackward is the hand-written Dense.Backward that the GEMM-based
// one replaced, kept verbatim (fused untransposed dW loop, column-sum db,
// sparse-gradient dx): it accumulates into wGrad and bGrad and returns dx.
func naiveDenseBackward(x, w, gradOut, wGrad, bGradM *Matrix) *Matrix {
	in, out, batch := x.Cols, w.Cols, x.Rows

	dW := NewMatrix(in, out)
	for j := 0; j < in; j++ {
		dwRow := dW.Data[j*out : (j+1)*out]
		for k := 0; k < batch; k++ {
			av := x.Data[k*in+j]
			if av == 0 {
				continue
			}
			gRow := gradOut.Data[k*out : (k+1)*out]
			for c, gv := range gRow {
				dwRow[c] += av * gv
			}
		}
	}
	for i := range dW.Data {
		wGrad.Data[i] += dW.Data[i]
	}

	bGrad := bGradM.Data
	for i := 0; i < batch; i++ {
		gRow := gradOut.Data[i*out : (i+1)*out]
		for j, gv := range gRow {
			bGrad[j] += gv
		}
	}

	dx := NewMatrix(batch, in)
	nzK := make([]int, 0, out)
	for i := 0; i < batch; i++ {
		gRow := gradOut.Data[i*out : (i+1)*out]
		dxRow := dx.Data[i*in : (i+1)*in]
		nz := nzK[:0]
		for k, gv := range gRow {
			if gv != 0 {
				nz = append(nz, k)
			}
		}
		if len(nz) == out {
			for j := 0; j < in; j++ {
				wRow := w.Data[j*out : (j+1)*out]
				var acc float64
				for k, gv := range gRow {
					acc += gv * wRow[k]
				}
				dxRow[j] = acc
			}
			continue
		}
		for j := 0; j < in; j++ {
			wRow := w.Data[j*out : (j+1)*out]
			var acc float64
			for _, k := range nz {
				acc += gRow[k] * wRow[k]
			}
			dxRow[j] = acc
		}
	}
	return dx
}

// avxModes returns the kernel selections this build can exercise: the
// portable loops always, and the AVX microkernels when the CPU has them.
func avxModes() []bool {
	if useAVX {
		return []bool{true, false}
	}
	return []bool{false}
}

// withAVX runs f with useAVX forced to on, restoring it afterwards.
func withAVX(on bool, f func()) {
	prev := useAVX
	useAVX = on
	defer func() { useAVX = prev }()
	f()
}

// operandFills are the operand shapes the kernels must agree on: dense
// Gaussian entries, zero-heavy ones (ReLU activations, the state encoding),
// and one-hot rows (the Q-learning loss gradient, one taken action per
// sample).
var operandFills = []struct {
	name string
	fill func(m *Matrix, rng *rand.Rand)
}{
	{"dense", func(m *Matrix, rng *rand.Rand) {
		for i := range m.Data {
			m.Data[i] = rng.NormFloat64()
		}
	}},
	{"zero-heavy", func(m *Matrix, rng *rand.Rand) {
		for i := range m.Data {
			m.Data[i] = 0
			if rng.Intn(4) == 0 {
				m.Data[i] = rng.NormFloat64()
			}
		}
	}},
	{"one-hot", func(m *Matrix, rng *rand.Rand) {
		for i := range m.Data {
			m.Data[i] = 0
		}
		for r := 0; r < m.Rows && m.Cols > 0; r++ {
			m.Data[r*m.Cols+rng.Intn(m.Cols)] = rng.NormFloat64()
		}
	}},
}

// sameBits reports the first index where got and want differ in their
// IEEE-754 bits, or -1.
func sameBits(got, want []float64) int {
	if len(got) != len(want) {
		return 0
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			return i
		}
	}
	return -1
}

// TestMatMulIntoMatchesNaiveBitwise pins MatMulInto, with the AVX
// microkernels on and off, to the scalar reference across row remainders of
// the 8- and 4-row blocks, column tails of the 4-wide vectors, and dense,
// zero-heavy and one-hot operands.
func TestMatMulIntoMatchesNaiveBitwise(t *testing.T) {
	for _, avx := range avxModes() {
		withAVX(avx, func() {
			rng := rand.New(rand.NewSource(17))
			for _, fa := range operandFills {
				for _, fb := range operandFills[:2] {
					for _, rows := range []int{1, 2, 3, 4, 5, 7, 8, 9, 12, 13, 32, 64} {
						for _, k := range []int{1, 2, 3, 24, 47, 48} {
							for _, cols := range []int{1, 2, 3, 4, 5, 7, 8, 11, 12, 48, 160} {
								a, b := NewMatrix(rows, k), NewMatrix(k, cols)
								fa.fill(a, rng)
								fb.fill(b, rng)
								got, want := NewMatrix(0, 0), NewMatrix(0, 0)
								if err := MatMulInto(got, a, b); err != nil {
									t.Fatal(err)
								}
								if err := naiveMatMulInto(want, a, b); err != nil {
									t.Fatal(err)
								}
								if i := sameBits(got.Data, want.Data); i >= 0 {
									t.Fatalf("avx=%v a=%s b=%s %dx%dx%d element %d: %v != %v",
										avx, fa.name, fb.name, rows, k, cols, i, got.Data[i], want.Data[i])
								}
							}
						}
					}
				}
			}
		})
	}
}

// TestDenseBackwardMatchesNaiveBitwise pins Dense.Backward's three GEMM-based
// products to the hand-written loops they replaced: the accumulated dW and db
// and the returned dx must keep every bit, with the AVX microkernels on and
// off, for dense, zero-heavy and one-hot inputs and gradients.
func TestDenseBackwardMatchesNaiveBitwise(t *testing.T) {
	for _, avx := range avxModes() {
		withAVX(avx, func() {
			rng := rand.New(rand.NewSource(31))
			for _, fx := range operandFills {
				for _, fg := range operandFills {
					for _, shape := range [][2]int{{24, 48}, {48, 48}, {48, 160}, {3, 5}, {7, 13}, {1, 1}} {
						for _, batch := range []int{1, 3, 4, 8, 11, 32} {
							in, out := shape[0], shape[1]
							d := NewDense(in, out, rng)
							x, g := NewMatrix(batch, in), NewMatrix(batch, out)
							fx.fill(x, rng)
							fg.fill(g, rng)
							// Start from nonzero accumulators so Grad += dW
							// is checked, not just dW.
							operandFills[0].fill(d.W.Grad, rng)
							operandFills[0].fill(d.B.Grad, rng)
							wantW, wantB := d.W.Grad.Clone(), d.B.Grad.Clone()
							wantX := naiveDenseBackward(x, d.W.Value, g, wantW, wantB)

							if _, err := d.Forward(x); err != nil {
								t.Fatal(err)
							}
							gotX, err := d.Backward(g)
							if err != nil {
								t.Fatal(err)
							}
							for _, c := range []struct {
								name      string
								got, want []float64
							}{{"dW", d.W.Grad.Data, wantW.Data}, {"db", d.B.Grad.Data, wantB.Data}, {"dx", gotX.Data, wantX.Data}} {
								if i := sameBits(c.got, c.want); i >= 0 {
									t.Fatalf("avx=%v x=%s g=%s %dx%d batch %d %s[%d]: %v != %v",
										avx, fx.name, fg.name, in, out, batch, c.name, i, c.got[i], c.want[i])
								}
							}
						}
					}
				}
			}
		})
	}
}

// TestMatMulBatchFallbackShapeTails re-runs the bitwise shape/tail sweep
// with the assembly microkernels disabled, so the pure-Go blocked path keeps
// its bit-identity contract with the AVX path and with the scalar reference
// even on machines where the default run takes the AVX path.
func TestMatMulBatchFallbackShapeTails(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	fill := func(m *Matrix) {
		for i := range m.Data {
			m.Data[i] = rng.NormFloat64()
			if rng.Intn(4) == 0 {
				m.Data[i] = 0
			}
		}
	}
	for _, rows := range []int{1, 3, 4, 5, 7, 8, 9, 64} {
		for _, k := range []int{1, 3, 24, 47} {
			for _, cols := range []int{1, 3, 4, 5, 11, 48, 160} {
				a := NewMatrix(rows, k)
				b := NewMatrix(k, cols)
				fill(a)
				fill(b)
				got := NewMatrix(0, 0)
				var err error
				withAVX(false, func() { err = MatMulInto(got, a, b) })
				if err != nil {
					t.Fatalf("%dx%dx%d: %v", rows, k, cols, err)
				}
				def, ref := NewMatrix(0, 0), NewMatrix(0, 0)
				if err := MatMulInto(def, a, b); err != nil {
					t.Fatalf("%dx%dx%d: %v", rows, k, cols, err)
				}
				if err := naiveMatMulInto(ref, a, b); err != nil {
					t.Fatalf("%dx%dx%d: %v", rows, k, cols, err)
				}
				for _, want := range []*Matrix{def, ref} {
					if i := sameBits(got.Data, want.Data); i >= 0 {
						t.Fatalf("%dx%dx%d element %d: %v != %v",
							rows, k, cols, i, got.Data[i], want.Data[i])
					}
				}
			}
		}
	}
}

// FuzzForwardBatchEngines cross-checks the batched forward pass on its two
// kernels — the AVX microkernels (when this CPU has them) and the pure-Go
// loops — bitwise, on random shapes, weights and zero-heavy inputs.
func FuzzForwardBatchEngines(f *testing.F) {
	f.Add(int64(1), byte(4), byte(24), byte(48), byte(160))
	f.Add(int64(2), byte(1), byte(1), byte(0), byte(1))
	f.Add(int64(3), byte(5), byte(3), byte(17), byte(33))
	f.Add(int64(4), byte(64), byte(24), byte(0), byte(16))
	f.Add(int64(5), byte(7), byte(47), byte(31), byte(80))
	f.Fuzz(func(t *testing.T, seed int64, rowsB, kB, hiddenB, colsB byte) {
		rows := 1 + int(rowsB)%24
		k := 1 + int(kB)%40
		hidden := int(hiddenB) % 49 // 0 = single dense layer
		cols := 1 + int(colsB)%80
		rng := rand.New(rand.NewSource(seed))

		sizes := []int{k, cols}
		if hidden > 0 {
			sizes = []int{k, hidden, cols}
		}
		net, err := NewMLP(sizes, rng)
		if err != nil {
			t.Fatal(err)
		}
		x := NewMatrix(rows, k)
		for i := range x.Data {
			if rng.Intn(4) != 0 {
				x.Data[i] = rng.NormFloat64()
			}
		}

		var es InferScratch
		def := NewMatrix(0, 0)
		if err := net.ForwardBatch(def, &es, x); err != nil {
			t.Fatal(err)
		}
		var es2 InferScratch
		scalar := NewMatrix(0, 0)
		withAVX(false, func() { err = net.ForwardBatch(scalar, &es2, x) })
		if err != nil {
			t.Fatal(err)
		}
		if i := sameBits(def.Data, scalar.Data); i >= 0 {
			t.Fatalf("forward diverged at %d: default %v != pure-Go %v",
				i, def.Data[i], scalar.Data[i])
		}
	})
}

// oneHotGrad returns a batch x out gradient whose rows follow rowKinds,
// cycling: "zero" is all zero, "negzero" is all -0, "hot" has one Gaussian
// entry in a random column among -0 fill, "last" has it in the last column,
// and "repeat" reuses the previous hot row's column.
func oneHotGrad(batch, out int, rng *rand.Rand) *Matrix {
	g := NewMatrix(batch, out)
	kinds := []string{"hot", "repeat", "zero", "last", "negzero", "hot", "repeat", "repeat"}
	prev := 0
	for r := 0; r < batch; r++ {
		row := g.Data[r*out : (r+1)*out]
		for c := range row {
			if rng.Intn(3) == 0 {
				row[c] = math.Copysign(0, -1)
			}
		}
		switch kinds[r%len(kinds)] {
		case "zero":
			clear(row)
			continue
		case "negzero":
			for c := range row {
				row[c] = math.Copysign(0, -1)
			}
			continue
		case "hot":
			prev = rng.Intn(out)
		case "last":
			prev = out - 1
		}
		row[prev] = rng.NormFloat64()
	}
	return g
}

// signedZeroWeights sets about a quarter of w to +0 or -0, so hot products
// g·W come out as -0 and dx must still read +0 as the sum from +0 does.
func signedZeroWeights(w *Matrix, rng *rand.Rand) {
	for i := range w.Data {
		switch rng.Intn(8) {
		case 0:
			w.Data[i] = 0
		case 1:
			w.Data[i] = math.Copysign(0, -1)
		}
	}
}

// TestDenseBackwardOneHotMatchesNaive pins the one-hot Dense.Backward path
// (the Q-learning gradient: at most one nonzero per row) to the hand-written
// reference bit for bit, with the AVX microkernels on and off, on the DQN's
// 48→160 output layer at its batch sizes and on odd shapes. Rows repeat hot
// columns, hold only zeros or -0, and put the hot entry in the last column;
// weights hold ±0 so -0 products reach dx. Gradients with a NaN or ±Inf row,
// and inputs holding ±Inf, must leave the one-hot path and still match.
func TestDenseBackwardOneHotMatchesNaive(t *testing.T) {
	shapes := [][2]int{{48, 160}, {48, 48}, {24, 48}, {3, 5}, {7, 13}, {1, 1}, {5, 1}}
	for _, avx := range avxModes() {
		withAVX(avx, func() {
			rng := rand.New(rand.NewSource(41))
			for _, shape := range shapes {
				for _, batch := range []int{1, 3, 8, 16, 17, 32} {
					for _, tc := range []string{"one-hot", "nan row", "inf row", "inf input"} {
						in, out := shape[0], shape[1]
						d := NewDense(in, out, rng)
						signedZeroWeights(d.W.Value, rng)
						x := NewMatrix(batch, in)
						operandFills[1].fill(x, rng) // zero-heavy, like ReLU output
						g := oneHotGrad(batch, out, rng)
						wantHot := true
						switch tc {
						case "nan row", "inf row":
							// The dense GEMM multiplies through zero
							// activations; keep x free of them so 0·Inf
							// does not split it from the reference.
							operandFills[0].fill(x, rng)
							bad := math.NaN()
							if tc == "inf row" {
								bad = math.Inf(1 - 2*rng.Intn(2))
							}
							r := rng.Intn(batch)
							g.Data[r*out+rng.Intn(out)] = bad
							wantHot = false
						case "inf input":
							x.Data[rng.Intn(len(x.Data))] = math.Inf(-1)
							wantHot = false
						}
						operandFills[0].fill(d.W.Grad, rng)
						operandFills[0].fill(d.B.Grad, rng)
						wantW, wantB := d.W.Grad.Clone(), d.B.Grad.Clone()
						wantX := naiveDenseBackward(x, d.W.Value, g, wantW, wantB)

						if got := d.findHot(g) && allFinite(x.Data); got != wantHot {
							t.Fatalf("%s %dx%d batch %d: one-hot path taken = %v, want %v", tc, in, out, batch, got, wantHot)
						}
						if _, err := d.Forward(x); err != nil {
							t.Fatal(err)
						}
						gotX, err := d.Backward(g)
						if err != nil {
							t.Fatal(err)
						}
						for _, c := range []struct {
							name      string
							got, want []float64
						}{{"dW", d.W.Grad.Data, wantW.Data}, {"db", d.B.Grad.Data, wantB.Data}, {"dx", gotX.Data, wantX.Data}} {
							if i := sameBits(c.got, c.want); i >= 0 {
								t.Fatalf("avx=%v %s %dx%d batch %d %s[%d]: %v != %v",
									avx, tc, in, out, batch, c.name, i, c.got[i], c.want[i])
							}
						}
					}
				}
			}
		})
	}
}

// naiveAdam is Adam.Step's scalar loop as it stood before the AVX kernel,
// kept as the reference adamUpdate must match bit for bit.
type naiveAdam struct {
	o    Adam
	m, v map[*Param][]float64
}

func (n *naiveAdam) step(params []*Param) {
	o := &n.o
	if n.m == nil {
		n.m = make(map[*Param][]float64)
		n.v = make(map[*Param][]float64)
	}
	o.step++
	scale := clipScale(params, o.ClipNorm)
	bc1 := 1 - math.Pow(o.Beta1, float64(o.step))
	bc2 := 1 - math.Pow(o.Beta2, float64(o.step))
	for _, p := range params {
		if n.m[p] == nil {
			n.m[p] = make([]float64, len(p.Value.Data))
			n.v[p] = make([]float64, len(p.Value.Data))
		}
		m, v := n.m[p], n.v[p]
		for i := range p.Value.Data {
			g := p.Grad.Data[i] * scale
			m[i] = o.Beta1*m[i] + (1-o.Beta1)*g
			v[i] = o.Beta2*v[i] + (1-o.Beta2)*g*g
			mhat := m[i] / bc1
			vhat := v[i] / bc2
			p.Value.Data[i] -= o.LR * mhat / (math.Sqrt(vhat) + o.Eps)
		}
	}
}

// TestAdamStepMatchesScalarBitwise pins Adam.Step, with the AVX kernel on and
// off, to the scalar reference over several steps: parameter lengths 0-13
// cover every vector tail, 11392 is the DQN's parameter count, and a clip
// norm below the gradient norm makes the gradient scale differ from 1.
func TestAdamStepMatchesScalarBitwise(t *testing.T) {
	lengths := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 11392}
	for _, avx := range avxModes() {
		withAVX(avx, func() {
			rng := rand.New(rand.NewSource(53))
			for _, n := range lengths {
				mk := func(size int) (got, want *Param) {
					got = &Param{Value: NewMatrix(1, size), Grad: NewMatrix(1, size)}
					operandFills[0].fill(got.Value, rng)
					want = &Param{Value: got.Value.Clone(), Grad: NewMatrix(1, size)}
					return got, want
				}
				g0, w0 := mk(n)
				g1, w1 := mk(3)
				got, want := []*Param{g0, g1}, []*Param{w0, w1}
				opt := NewAdam(1e-2)
				opt.ClipNorm = 0.5
				ref := &naiveAdam{o: *opt}
				for step := 1; step <= 4; step++ {
					for i, p := range got {
						operandFills[0].fill(p.Grad, rng)
						copy(want[i].Grad.Data, p.Grad.Data)
					}
					if err := opt.Step(got); err != nil {
						t.Fatal(err)
					}
					ref.step(want)
					for i := range got {
						for _, c := range []struct {
							name      string
							got, want []float64
						}{
							{"value", got[i].Value.Data, want[i].Value.Data},
							{"m", opt.m[got[i]], ref.m[want[i]]},
							{"v", opt.v[got[i]], ref.v[want[i]]},
						} {
							if j := sameBits(c.got, c.want); j >= 0 {
								t.Fatalf("avx=%v len %d step %d param %d %s[%d]: %v != %v",
									avx, n, step, i, c.name, j, c.got[j], c.want[j])
							}
						}
					}
				}
			}
		})
	}
}

// naiveReLUGrad is the per-element branch ReLU.Backward used before the mask
// kernel, kept as the reference batchReLUGrad must match bit for bit.
func naiveReLUGrad(dst, grad, out []float64) {
	for i, v := range grad {
		if out[i] > 0 {
			dst[i] = v
		} else {
			dst[i] = 0
		}
	}
}

// TestReLUGradMatchesNaive compares batchReLUGrad with the scalar branch at
// every length from 0 to 67 (whole kernel blocks plus every tail), on inputs
// salted with ±0, NaN and ±Inf in both the gradient and the forward output:
// the bits must agree, so a -0 or NaN gradient passes unchanged where out > 0
// and +0 lands wherever out ≤ 0 or is NaN.
func TestReLUGradMatchesNaive(t *testing.T) {
	special := []float64{0, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1), 1e-310, -1e-310}
	rng := rand.New(rand.NewSource(67))
	fill := func(xs []float64) {
		for i := range xs {
			if rng.Intn(3) == 0 {
				xs[i] = special[rng.Intn(len(special))]
			} else {
				xs[i] = rng.NormFloat64()
			}
		}
	}
	for n := 0; n <= 67; n++ {
		for trial := 0; trial < 20; trial++ {
			grad, out := make([]float64, n), make([]float64, n)
			fill(grad)
			fill(out)
			got, want := make([]float64, n), make([]float64, n)
			for i := range got {
				got[i], want[i] = 1, 1 // both must be overwritten
			}
			batchReLUGrad(got, grad, out)
			naiveReLUGrad(want, grad, out)
			for i := range got {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("n=%d trial %d element %d (grad %v, out %v): got %v (%#x), want %v (%#x)",
						n, trial, i, grad[i], out[i], got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
				}
			}
		}
	}
}
