package nn

import (
	"math/rand"
	"sync"
	"testing"
)

func TestForwardBatchMatchesForwardBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	net, err := NewMLP([]int{24, 48, 48, 160}, rng)
	if err != nil {
		t.Fatal(err)
	}
	for _, batch := range []int{1, 2, 3, 4, 5, 7, 8, 64} {
		x := NewMatrix(batch, 24)
		for i := range x.Data {
			x.Data[i] = rng.NormFloat64()
			if rng.Intn(4) == 0 {
				x.Data[i] = 0 // exercise the zero-skip paths
			}
		}
		var scratch InferScratch
		got := NewMatrix(0, 0)
		if err := net.ForwardBatch(got, &scratch, x); err != nil {
			t.Fatalf("batch %d: %v", batch, err)
		}
		if got.Rows != batch || got.Cols != 160 {
			t.Fatalf("batch %d: got shape %dx%d", batch, got.Rows, got.Cols)
		}
		// Row-by-row reference through the training-path Forward.
		for r := 0; r < batch; r++ {
			row := NewMatrix(1, 24)
			copy(row.Data, x.Data[r*24:(r+1)*24])
			want, err := net.Forward(row)
			if err != nil {
				t.Fatal(err)
			}
			for c := 0; c < 160; c++ {
				if got.At(r, c) != want.At(0, c) {
					t.Fatalf("batch %d row %d col %d: batch %v != serial %v",
						batch, r, c, got.At(r, c), want.At(0, c))
				}
			}
		}
	}
}

// TestMatMulBatchMatchesMatMulIntoBitwise pins MatMulInto on a multi-row
// batch (the 8- and 4-row blocks, and the AVX microkernels behind them on
// amd64) to the same product taken one row at a time, across row
// remainders, column tails and zero-heavy operands.
func TestMatMulBatchMatchesMatMulIntoBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	fill := func(m *Matrix) {
		for i := range m.Data {
			m.Data[i] = rng.NormFloat64()
			if rng.Intn(4) == 0 {
				m.Data[i] = 0
			}
		}
	}
	for _, rows := range []int{1, 2, 3, 4, 5, 7, 8, 9, 64} {
		for _, k := range []int{1, 2, 3, 24, 48} {
			for _, cols := range []int{1, 2, 3, 4, 5, 7, 8, 11, 12, 48, 160} {
				a := NewMatrix(rows, k)
				b := NewMatrix(k, cols)
				fill(a)
				fill(b)
				got := NewMatrix(0, 0)
				if err := MatMulInto(got, a, b); err != nil {
					t.Fatalf("%dx%dx%d: %v", rows, k, cols, err)
				}
				want := NewMatrix(0, 0)
				for r := 0; r < rows; r++ {
					if err := MatMulInto(want, FromSlice(a.Row(r)), b); err != nil {
						t.Fatalf("%dx%dx%d row %d: %v", rows, k, cols, r, err)
					}
					gotRow := got.Data[r*cols : (r+1)*cols]
					if i := sameBits(gotRow, want.Data); i >= 0 {
						t.Fatalf("%dx%dx%d row %d element %d: %v != %v",
							rows, k, cols, r, i, gotRow[i], want.Data[i])
					}
				}
			}
		}
	}
}

func TestForwardBatchDoesNotDisturbTrainingScratch(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	net, err := NewMLP([]int{6, 8, 4}, rng)
	if err != nil {
		t.Fatal(err)
	}
	x := NewMatrix(1, 6)
	for i := range x.Data {
		x.Data[i] = rng.NormFloat64()
	}
	out, err := net.Forward(x)
	if err != nil {
		t.Fatal(err)
	}
	before := append([]float64(nil), out.Data...)

	// A batched inference call in between must leave the layer-owned forward
	// scratch (and thus a pending Backward) untouched.
	big := NewMatrix(16, 6)
	for i := range big.Data {
		big.Data[i] = rng.NormFloat64()
	}
	var scratch InferScratch
	dst := NewMatrix(0, 0)
	if err := net.ForwardBatch(dst, &scratch, big); err != nil {
		t.Fatal(err)
	}
	for i, v := range before {
		if out.Data[i] != v {
			t.Fatalf("training forward output disturbed at %d: %v != %v", i, out.Data[i], v)
		}
	}
}

func TestForwardBatchConcurrent(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	net, err := NewMLP([]int{24, 48, 48, 160}, rng)
	if err != nil {
		t.Fatal(err)
	}
	x := NewMatrix(8, 24)
	for i := range x.Data {
		x.Data[i] = rng.NormFloat64()
	}
	var scratch InferScratch
	want := NewMatrix(0, 0)
	if err := net.ForwardBatch(want, &scratch, x); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var s InferScratch
			dst := NewMatrix(0, 0)
			for iter := 0; iter < 50; iter++ {
				if err := net.ForwardBatch(dst, &s, x); err != nil {
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

var errMismatch = errString("concurrent forward diverged")

type errString string

func (e errString) Error() string { return string(e) }
