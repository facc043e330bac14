package nn

import (
	"math"
	"math/rand"
	"sync"
	"testing"
)

// Dual-engine equivalence harness for the float32 fast path, in the
// accelerated-engine-vs-reference-engine style: the float64 batched path is
// the reference, and the fast engine must track it within explicit
// tolerance budgets rather than bitwise. Three relations are pinned:
//
//   - fast asm vs fast scalar: same float32 accumulation order, so the only
//     difference is FMA's fused rounding — a tight ULP/absolute budget.
//   - fast (either kernel) vs exact float64: float32 quantization plus
//     accumulation error — a looser relative/absolute budget.
//   - exact asm vs exact scalar: bitwise, as everywhere else in the repo.

// Per-op tolerance budgets. tolFMA bounds asm-vs-scalar within the fast
// engine (fused-rounding drift only, compounded across layers); tolQuant
// bounds fast-vs-exact (weight/activation quantization dominates). The
// absolute floor covers ReLU-boundary elements where the reference is ~0 and
// relative error is meaningless.
const (
	fmaMaxULP  = 256  // single fused-dense op, asm vs scalar
	fmaAbsTol  = 1e-5 // ReLU-boundary floor for the ULP gate
	quantRel   = 5e-4 // fast vs exact float64
	quantAbs   = 5e-4
	deepFMARel = 1e-4 // asm vs scalar through a multi-layer net
	deepFMAAbs = 1e-5
)

// ulpDiff32 returns the distance between a and b in float32 representation
// order (half a ULP of difference in the last rounding shows up as 1).
func ulpDiff32(a, b float32) uint32 {
	ia := int64(orderedBits32(a))
	ib := int64(orderedBits32(b))
	d := ia - ib
	if d < 0 {
		d = -d
	}
	if d > math.MaxUint32 {
		return math.MaxUint32
	}
	return uint32(d)
}

// orderedBits32 maps float32 bit patterns to a monotone integer scale so
// subtraction gives ULP distance across the zero boundary.
func orderedBits32(f float32) uint32 {
	b := math.Float32bits(f)
	if b&0x8000_0000 != 0 {
		return 0x8000_0000 - (b & 0x7fff_ffff)
	}
	return b + 0x8000_0000
}

// closeFMA asserts the tight asm-vs-scalar budget for a single fused op.
func closeFMA(got, want float32) bool {
	if got == want {
		return true
	}
	if math.Abs(float64(got)-float64(want)) <= fmaAbsTol {
		return true
	}
	return ulpDiff32(got, want) <= fmaMaxULP
}

// closeRel asserts |got-want| <= abs + rel*|want| against a float64
// reference.
func closeRel(got float32, want, rel, abs float64) bool {
	return math.Abs(float64(got)-want) <= abs+rel*math.Abs(want)
}

// forwardBatch32Scalar runs the fast engine entirely on the pure-Go kernel,
// regardless of CPU support and without touching package globals — the
// in-package reference for the fast path.
func forwardBatch32Scalar(q *Net32, x *Matrix32) *Matrix32 {
	cur := x
	for ui := range q.units {
		u := &q.units[ui]
		out := NewMatrix32(cur.Rows, u.out)
		dense32Scalar(out.Data, cur.Data, 0, cur.Rows, 0, u.out, u.in, u.out, u.w, u.bias, u.relu)
		cur = out
	}
	return cur
}

// exactForwardUnits runs the same fused units through float64 arithmetic as
// the exact-path reference for the quantization budget.
func exactForwardUnits(q *Net32, x *Matrix32) []float64 {
	cur := make([]float64, len(x.Data))
	for i, v := range x.Data {
		cur[i] = float64(v)
	}
	rows := x.Rows
	for ui := range q.units {
		u := &q.units[ui]
		next := make([]float64, rows*u.out)
		for r := 0; r < rows; r++ {
			for j := 0; j < u.out; j++ {
				acc := 0.0
				for kk := 0; kk < u.in; kk++ {
					acc += cur[r*u.in+kk] * float64(u.w[kk*u.out+j])
				}
				acc += float64(u.bias[j])
				if u.relu && !(acc > 0) {
					acc = 0
				}
				next[r*u.out+j] = acc
			}
		}
		cur = next
	}
	return cur
}

// randUnit builds one fused unit with mixed-sign weights and a zero-heavy
// bias so ReLU clamps actually fire.
func randUnit(rng *rand.Rand, in, out int, relu bool) unit32 {
	u := unit32{in: in, out: out, w: make([]float32, in*out), bias: make([]float32, out), relu: relu}
	for i := range u.w {
		u.w[i] = float32(rng.NormFloat64())
		if rng.Intn(4) == 0 {
			u.w[i] = 0
		}
	}
	for i := range u.bias {
		u.bias[i] = float32(rng.NormFloat64())
	}
	return u
}

func randBatch32(rng *rand.Rand, rows, cols int) *Matrix32 {
	x := NewMatrix32(rows, cols)
	for i := range x.Data {
		x.Data[i] = float32(rng.NormFloat64())
		if rng.Intn(4) == 0 {
			x.Data[i] = 0
		}
	}
	return x
}

// TestDense32KernelShapeTails sweeps every row remainder around the 4-row
// microkernel block and every column tail around the 16-lane tile, with odd
// inner dims, asserting the asm path against the pure-Go kernel within the
// tight FMA budget, and that the non-asm path is bitwise the pure-Go kernel.
func TestDense32KernelShapeTails(t *testing.T) {
	if !useFMA {
		t.Skip("CPU lacks FMA; the noasm CI leg covers the fallback")
	}
	rng := rand.New(rand.NewSource(21))
	for _, rows := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 16, 33, 64} {
		for _, k := range []int{1, 2, 3, 5, 24, 47} {
			for _, cols := range []int{1, 3, 15, 16, 17, 31, 32, 33, 48, 160} {
				for _, relu := range []bool{false, true} {
					u := randUnit(rng, k, cols, relu)
					q := &Net32{units: []unit32{u}}
					x := randBatch32(rng, rows, k)

					want := forwardBatch32Scalar(q, x)

					got := NewMatrix32(0, 0)
					var s InferScratch32
					if err := q.ForwardBatch32(got, &s, x); err != nil {
						t.Fatalf("%dx%dx%d: %v", rows, k, cols, err)
					}
					for i := range want.Data {
						if !closeFMA(got.Data[i], want.Data[i]) {
							t.Fatalf("%dx%dx%d relu=%v asm element %d: %v vs scalar %v (%d ulps)",
								rows, k, cols, relu, i, got.Data[i], want.Data[i],
								ulpDiff32(got.Data[i], want.Data[i]))
						}
					}

					// The explicit fallback must be the pure-Go kernel, bitwise.
					fast32UseAsm = false
					fb := NewMatrix32(0, 0)
					err := q.ForwardBatch32(fb, &s, x)
					fast32UseAsm = useFMA
					if err != nil {
						t.Fatalf("%dx%dx%d fallback: %v", rows, k, cols, err)
					}
					for i := range want.Data {
						if math.Float32bits(fb.Data[i]) != math.Float32bits(want.Data[i]) {
							t.Fatalf("%dx%dx%d relu=%v fallback element %d: %v != %v",
								rows, k, cols, relu, i, fb.Data[i], want.Data[i])
						}
					}
				}
			}
		}
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

// TestForwardBatch32MatchesExact pins both fast-engine kernels to the exact
// float64 reference on the paper's network dims across batch sizes, within
// the quantization budget, and asm to scalar within the deep FMA budget.
func TestForwardBatch32MatchesExact(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	net, err := NewMLP([]int{24, 48, 48, 160}, rng)
	if err != nil {
		t.Fatal(err)
	}
	q, err := net.Quantize32()
	if err != nil {
		t.Fatal(err)
	}
	for _, batch := range []int{1, 2, 3, 4, 5, 7, 8, 64, 100} {
		x64 := NewMatrix(batch, 24)
		x32 := NewMatrix32(batch, 24)
		for i := range x64.Data {
			v := float32(rng.NormFloat64())
			x32.Data[i] = v
			x64.Data[i] = float64(v) // identical inputs on both engines
		}

		var es InferScratch
		exact := NewMatrix(0, 0)
		if err := net.ForwardBatch(exact, &es, x64); err != nil {
			t.Fatalf("batch %d: %v", batch, err)
		}

		var fs InferScratch32
		fast := NewMatrix32(0, 0)
		if err := q.ForwardBatch32(fast, &fs, x32); err != nil {
			t.Fatalf("batch %d: %v", batch, err)
		}
		scalar := forwardBatch32Scalar(q, x32)

		for i := range exact.Data {
			if !closeRel(fast.Data[i], exact.Data[i], quantRel, quantAbs) {
				t.Fatalf("batch %d element %d: fast %v vs exact %v exceeds quant budget",
					batch, i, fast.Data[i], exact.Data[i])
			}
			if !closeRel(scalar.Data[i], exact.Data[i], quantRel, quantAbs) {
				t.Fatalf("batch %d element %d: scalar32 %v vs exact %v exceeds quant budget",
					batch, i, scalar.Data[i], exact.Data[i])
			}
			if !closeRel(fast.Data[i], float64(scalar.Data[i]), deepFMARel, deepFMAAbs) {
				t.Fatalf("batch %d element %d: asm %v vs scalar32 %v exceeds deep FMA budget",
					batch, i, fast.Data[i], scalar.Data[i])
			}
		}
	}
}

// TestFast32ReLUNegativeZero pins the ReLU sign convention on both kernels:
// a pre-activation of -0 (all-zero inputs, -0 bias) must come out as +0,
// matching the exact engine's `v > 0 ? v : 0`.
func TestFast32ReLUNegativeZero(t *testing.T) {
	cols := 32 // full 16-lane tiles so the asm path covers every column
	u := unit32{in: 4, out: cols, w: make([]float32, 4*cols), bias: make([]float32, cols), relu: true}
	negZero := math.Float32frombits(0x8000_0000)
	for j := range u.bias {
		u.bias[j] = negZero
	}
	q := &Net32{units: []unit32{u}}
	x := NewMatrix32(4, 4)

	check := func(name string, out *Matrix32) {
		for i, v := range out.Data {
			if v != 0 || math.Signbit(float64(v)) {
				t.Fatalf("%s element %d: ReLU(-0) = %v (signbit %v), want +0",
					name, i, v, math.Signbit(float64(v)))
			}
		}
	}
	var s InferScratch32
	out := NewMatrix32(0, 0)
	if err := q.ForwardBatch32(out, &s, x); err != nil {
		t.Fatal(err)
	}
	check("default", out)

	prev := fast32UseAsm
	fast32UseAsm = false
	out2 := NewMatrix32(0, 0)
	err := q.ForwardBatch32(out2, &s, x)
	fast32UseAsm = prev
	if err != nil {
		t.Fatal(err)
	}
	check("fallback", out2)
}

func TestQuantize32Rejections(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	if _, err := (&Network{}).Quantize32(); err == nil {
		t.Fatal("empty network: want error")
	}
	if _, err := (&Network{Layers: []Layer{&ReLU{}}}).Quantize32(); err == nil {
		t.Fatal("leading ReLU: want error")
	}
	net := &Network{Layers: []Layer{NewDense(4, 4, rng), &ReLU{}, &ReLU{}}}
	if _, err := net.Quantize32(); err == nil {
		t.Fatal("double ReLU: want error")
	}
}

func TestForwardBatch32DimMismatch(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	net, err := NewMLP([]int{8, 4}, rng)
	if err != nil {
		t.Fatal(err)
	}
	q, err := net.Quantize32()
	if err != nil {
		t.Fatal(err)
	}
	var s InferScratch32
	if err := q.ForwardBatch32(NewMatrix32(0, 0), &s, NewMatrix32(2, 7)); err == nil {
		t.Fatal("want feature-count mismatch error")
	}
}

// TestForwardBatch32Concurrent drives one shared Net32 from several
// goroutines (own dst/scratch each); under -race this is the data-race proof
// for the immutable-snapshot claim, and results must be deterministic since
// every caller takes the same kernel path.
func TestForwardBatch32Concurrent(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	net, err := NewMLP([]int{24, 48, 48, 160}, rng)
	if err != nil {
		t.Fatal(err)
	}
	q, err := net.Quantize32()
	if err != nil {
		t.Fatal(err)
	}
	x := randBatch32(rng, 8, 24)
	var s InferScratch32
	want := NewMatrix32(0, 0)
	if err := q.ForwardBatch32(want, &s, x); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var s InferScratch32
			dst := NewMatrix32(0, 0)
			for iter := 0; iter < 50; iter++ {
				if err := q.ForwardBatch32(dst, &s, x); err != nil {
					errs <- err
					return
				}
				for i := range want.Data {
					if dst.Data[i] != want.Data[i] {
						errs <- errMismatch
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// FuzzForwardBatchEngines cross-checks all three engines on random shapes
// and weights: exact asm vs exact scalar bitwise, fast asm vs fast scalar
// within the FMA budget, and fast vs exact within the quantization budget.
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
		q, err := net.Quantize32()
		if err != nil {
			t.Fatal(err)
		}

		x64 := NewMatrix(rows, k)
		x32 := NewMatrix32(rows, k)
		for i := range x64.Data {
			v := float32(rng.NormFloat64())
			if rng.Intn(4) == 0 {
				v = 0
			}
			x32.Data[i] = v
			x64.Data[i] = float64(v)
		}

		// Exact engine: asm (when available) and pure-Go paths, bitwise.
		var es InferScratch
		exact := NewMatrix(0, 0)
		if err := net.ForwardBatch(exact, &es, x64); err != nil {
			t.Fatal(err)
		}
		prevAVX := useAVX
		useAVX = false
		var es2 InferScratch
		exactScalar := NewMatrix(0, 0)
		err = net.ForwardBatch(exactScalar, &es2, x64)
		useAVX = prevAVX
		if err != nil {
			t.Fatal(err)
		}
		for i := range exact.Data {
			if exact.Data[i] != exactScalar.Data[i] {
				t.Fatalf("exact engine diverged at %d: asm %v != scalar %v",
					i, exact.Data[i], exactScalar.Data[i])
			}
		}

		// Fast engine: whatever kernel this CPU selects, plus the pure-Go
		// reference.
		var fs InferScratch32
		fast := NewMatrix32(0, 0)
		if err := q.ForwardBatch32(fast, &fs, x32); err != nil {
			t.Fatal(err)
		}
		scalar := forwardBatch32Scalar(q, x32)
		for i := range fast.Data {
			if !closeRel(fast.Data[i], float64(scalar.Data[i]), deepFMARel, deepFMAAbs) {
				t.Fatalf("fast engine diverged at %d: asm %v vs scalar32 %v",
					i, fast.Data[i], scalar.Data[i])
			}
			if !closeRel(fast.Data[i], exact.Data[i], quantRel, quantAbs) {
				t.Fatalf("fast vs exact at %d: %v vs %v exceeds quant budget",
					i, fast.Data[i], exact.Data[i])
			}
		}
	})
}
