package nn

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"ctjam/internal/ckpt"
)

func TestMatMulKnown(t *testing.T) {
	a := FromSlice([]float64{1, 2, 3}) // 1x3
	b := NewMatrix(3, 2)
	copy(b.Data, []float64{1, 4, 2, 5, 3, 6})
	got, err := MatMul(a, b)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{14, 32}
	for i := range want {
		if math.Abs(got.Data[i]-want[i]) > 1e-12 {
			t.Fatalf("matmul = %v, want %v", got.Data, want)
		}
	}
}

func TestMatMulShapeMismatch(t *testing.T) {
	if _, err := MatMul(NewMatrix(2, 3), NewMatrix(2, 3)); err == nil {
		t.Fatal("expected shape error")
	}
}

func TestMatMulIntoReusesBuffer(t *testing.T) {
	a := FromSlice([]float64{1, 2, 3})
	b := NewMatrix(3, 2)
	copy(b.Data, []float64{1, 4, 2, 5, 3, 6})
	dst := NewMatrix(5, 5) // larger buffer; must be reshaped and reused
	backing := &dst.Data[0]
	if err := MatMulInto(dst, a, b); err != nil {
		t.Fatal(err)
	}
	if dst.Rows != 1 || dst.Cols != 2 {
		t.Fatalf("dst reshaped to %dx%d, want 1x2", dst.Rows, dst.Cols)
	}
	if &dst.Data[0] != backing {
		t.Fatal("MatMulInto reallocated a sufficiently large buffer")
	}
	want := []float64{14, 32}
	for i := range want {
		if math.Abs(dst.Data[i]-want[i]) > 1e-12 {
			t.Fatalf("matmulinto = %v, want %v", dst.Data, want)
		}
	}
	if err := MatMulInto(dst, NewMatrix(2, 3), NewMatrix(2, 3)); err == nil {
		t.Fatal("expected shape error")
	}
}

func TestRowViewSharesBacking(t *testing.T) {
	m := NewMatrix(3, 4)
	for i := range m.Data {
		m.Data[i] = float64(i)
	}
	v := m.RowView(1)
	if len(v) != 4 || v[0] != 4 || v[3] != 7 {
		t.Fatalf("RowView(1) = %v", v)
	}
	v[2] = -1
	if m.At(1, 2) != -1 {
		t.Fatal("RowView does not alias the matrix backing array")
	}
	if got := m.Row(1); got[2] != -1 {
		t.Fatalf("Row copy = %v, want the mutated values", got)
	}
}

func TestMatMulAssociativityProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a, b, c := NewMatrix(3, 4), NewMatrix(4, 5), NewMatrix(5, 2)
		for _, m := range []*Matrix{a, b, c} {
			for i := range m.Data {
				m.Data[i] = r.NormFloat64()
			}
		}
		ab, err := MatMul(a, b)
		if err != nil {
			return false
		}
		abc1, err := MatMul(ab, c)
		if err != nil {
			return false
		}
		bc, err := MatMul(b, c)
		if err != nil {
			return false
		}
		abc2, err := MatMul(a, bc)
		if err != nil {
			return false
		}
		d, err := MaxAbsDiff(abc1, abc2)
		return err == nil && d < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestTransposeInvolutionProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		m := NewMatrix(1+r.Intn(6), 1+r.Intn(6))
		for i := range m.Data {
			m.Data[i] = r.NormFloat64()
		}
		d, err := MaxAbsDiff(m.Transpose().Transpose(), m)
		return err == nil && d == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestAddRowVector(t *testing.T) {
	m := NewMatrix(2, 3)
	b := FromSlice([]float64{1, 2, 3})
	if err := m.AddRowVector(b); err != nil {
		t.Fatal(err)
	}
	if m.At(0, 0) != 1 || m.At(1, 2) != 3 {
		t.Fatalf("AddRowVector result %v", m.Data)
	}
	if err := m.AddRowVector(FromSlice([]float64{1})); err == nil {
		t.Fatal("expected shape error")
	}
}

func TestDenseForwardKnown(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	d := NewDense(2, 2, rng)
	copy(d.W.Value.Data, []float64{1, 2, 3, 4})
	copy(d.B.Value.Data, []float64{10, 20})
	y, err := d.Forward(FromSlice([]float64{1, 1}))
	if err != nil {
		t.Fatal(err)
	}
	if y.At(0, 0) != 14 || y.At(0, 1) != 26 {
		t.Fatalf("forward = %v", y.Data)
	}
}

func TestDenseBackwardBeforeForward(t *testing.T) {
	d := NewDense(2, 2, rand.New(rand.NewSource(2)))
	if _, err := d.Backward(NewMatrix(1, 2)); err == nil {
		t.Fatal("expected error")
	}
}

// numericalGradient perturbs every parameter element and measures the loss
// change, the gold standard for checking backprop.
func numericalGradient(t *testing.T, net *Network, x, target *Matrix, p *Param) []float64 {
	t.Helper()
	const h = 1e-6
	grads := make([]float64, len(p.Value.Data))
	for i := range p.Value.Data {
		orig := p.Value.Data[i]
		p.Value.Data[i] = orig + h
		outP, err := net.Forward(x)
		if err != nil {
			t.Fatal(err)
		}
		lossP, err := MSELoss(&Matrix{}, outP, target)
		if err != nil {
			t.Fatal(err)
		}
		p.Value.Data[i] = orig - h
		outM, err := net.Forward(x)
		if err != nil {
			t.Fatal(err)
		}
		lossM, err := MSELoss(&Matrix{}, outM, target)
		if err != nil {
			t.Fatal(err)
		}
		p.Value.Data[i] = orig
		grads[i] = (lossP - lossM) / (2 * h)
	}
	return grads
}

func TestBackpropMatchesNumericalGradient(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	net, err := NewMLP([]int{4, 8, 8, 3}, rng)
	if err != nil {
		t.Fatal(err)
	}
	x := NewMatrix(5, 4)
	target := NewMatrix(5, 3)
	for i := range x.Data {
		x.Data[i] = rng.NormFloat64()
	}
	for i := range target.Data {
		target.Data[i] = rng.NormFloat64()
	}

	out, err := net.Forward(x)
	if err != nil {
		t.Fatal(err)
	}
	grad := &Matrix{}
	_, err = MSELoss(grad, out, target)
	if err != nil {
		t.Fatal(err)
	}
	net.ZeroGrad()
	if err := net.Backward(grad); err != nil {
		t.Fatal(err)
	}

	for pi, p := range net.Params() {
		want := numericalGradient(t, net, x, target, p)
		for i := range want {
			if diff := math.Abs(p.Grad.Data[i] - want[i]); diff > 1e-5 {
				t.Fatalf("param %d element %d: backprop %v vs numerical %v",
					pi, i, p.Grad.Data[i], want[i])
			}
		}
	}
}

func TestReLU(t *testing.T) {
	r := &ReLU{}
	x := FromSlice([]float64{-1, 0, 2})
	y, err := r.Forward(x)
	if err != nil {
		t.Fatal(err)
	}
	if y.Data[0] != 0 || y.Data[1] != 0 || y.Data[2] != 2 {
		t.Fatalf("relu forward = %v", y.Data)
	}
	g, err := r.Backward(FromSlice([]float64{5, 5, 5}))
	if err != nil {
		t.Fatal(err)
	}
	if g.Data[0] != 0 || g.Data[1] != 0 || g.Data[2] != 5 {
		t.Fatalf("relu backward = %v", g.Data)
	}
	if _, err := r.Backward(NewMatrix(1, 7)); err == nil {
		t.Fatal("expected mask size error")
	}
	// Input must not be mutated.
	if x.Data[0] != -1 {
		t.Fatal("relu mutated input")
	}
}

func TestNewMLPValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	if _, err := NewMLP([]int{3}, rng); err == nil {
		t.Fatal("expected error for single size")
	}
	if _, err := NewMLP([]int{3, 0}, rng); err == nil {
		t.Fatal("expected error for zero size")
	}
	net, err := NewMLP([]int{24, 48, 48, 160}, rng)
	if err != nil {
		t.Fatal(err)
	}
	// 3 dense + 2 relu layers.
	if len(net.Layers) != 5 {
		t.Fatalf("layer count = %d, want 5", len(net.Layers))
	}
	want := 24*48 + 48 + 48*48 + 48 + 48*160 + 160
	if got := net.ParamCount(); got != want {
		t.Fatalf("ParamCount = %d, want %d", got, want)
	}
}

func TestMSELoss(t *testing.T) {
	pred := FromSlice([]float64{1, 2})
	target := FromSlice([]float64{0, 2})
	grad := &Matrix{}
	loss, err := MSELoss(grad, pred, target)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(loss-0.25) > 1e-12 {
		t.Fatalf("loss = %v, want 0.25", loss)
	}
	if math.Abs(grad.Data[0]-0.5) > 1e-12 || grad.Data[1] != 0 {
		t.Fatalf("grad = %v", grad.Data)
	}
	if _, err := MSELoss(grad, pred, NewMatrix(2, 2)); err == nil {
		t.Fatal("expected shape error")
	}
}

func TestSGDReducesLoss(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	net, err := NewMLP([]int{2, 16, 1}, rng)
	if err != nil {
		t.Fatal(err)
	}
	opt := &SGD{LR: 0.05}
	x := NewMatrix(4, 2)
	copy(x.Data, []float64{0, 0, 0, 1, 1, 0, 1, 1})
	target := NewMatrix(4, 1)
	copy(target.Data, []float64{0, 1, 1, 0}) // XOR
	var first, last float64
	for step := 0; step < 3000; step++ {
		out, err := net.Forward(x)
		if err != nil {
			t.Fatal(err)
		}
		grad := &Matrix{}
		loss, err := MSELoss(grad, out, target)
		if err != nil {
			t.Fatal(err)
		}
		if step == 0 {
			first = loss
		}
		last = loss
		net.ZeroGrad()
		if err := net.Backward(grad); err != nil {
			t.Fatal(err)
		}
		if err := opt.Step(net.Params()); err != nil {
			t.Fatal(err)
		}
	}
	if last > first/10 {
		t.Fatalf("SGD failed to learn XOR: loss %v -> %v", first, last)
	}
}

func TestAdamLearnsFasterThanSGDOnRegression(t *testing.T) {
	train := func(opt Optimizer, seed int64) float64 {
		rng := rand.New(rand.NewSource(seed))
		net, err := NewMLP([]int{1, 16, 1}, rng)
		if err != nil {
			t.Fatal(err)
		}
		x := NewMatrix(16, 1)
		target := NewMatrix(16, 1)
		for i := 0; i < 16; i++ {
			v := float64(i)/8 - 1
			x.Data[i] = v
			target.Data[i] = math.Sin(3 * v)
		}
		var loss float64
		for step := 0; step < 500; step++ {
			out, err := net.Forward(x)
			if err != nil {
				t.Fatal(err)
			}
			grad := &Matrix{}
			loss, err = MSELoss(grad, out, target)
			if err != nil {
				t.Fatal(err)
			}
			net.ZeroGrad()
			if err := net.Backward(grad); err != nil {
				t.Fatal(err)
			}
			if err := opt.Step(net.Params()); err != nil {
				t.Fatal(err)
			}
		}
		return loss
	}
	adamLoss := train(NewAdam(0.01), 6)
	sgdLoss := train(&SGD{LR: 0.01}, 6)
	if adamLoss > sgdLoss {
		t.Fatalf("adam loss %v worse than sgd loss %v after 500 steps", adamLoss, sgdLoss)
	}
}

func TestOptimizerValidation(t *testing.T) {
	if err := (&SGD{LR: 0}).Step(nil); err == nil {
		t.Fatal("sgd lr=0: expected error")
	}
	if err := (&Adam{LR: -1}).Step(nil); err == nil {
		t.Fatal("adam lr<0: expected error")
	}
}

func TestGradientClipping(t *testing.T) {
	p := &Param{Value: FromSlice([]float64{0}), Grad: FromSlice([]float64{100})}
	opt := &SGD{LR: 1, ClipNorm: 1}
	if err := opt.Step([]*Param{p}); err != nil {
		t.Fatal(err)
	}
	// With clipping to norm 1 the update is exactly -1.
	if math.Abs(p.Value.Data[0]+1) > 1e-12 {
		t.Fatalf("clipped update = %v, want -1", p.Value.Data[0])
	}
}

func TestCloneIndependence(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	net, err := NewMLP([]int{3, 5, 2}, rng)
	if err != nil {
		t.Fatal(err)
	}
	clone, err := net.Clone()
	if err != nil {
		t.Fatal(err)
	}
	if clone.ParamCount() != net.ParamCount() {
		t.Fatal("clone parameter count differs")
	}
	// Mutating the original must not affect the clone.
	net.Params()[0].Value.Data[0] += 100
	if clone.Params()[0].Value.Data[0] == net.Params()[0].Value.Data[0] {
		t.Fatal("clone shares storage with original")
	}
}

func TestCopyWeightsFrom(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	a, err := NewMLP([]int{3, 5, 2}, rng)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewMLP([]int{3, 5, 2}, rng)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.CopyWeightsFrom(a); err != nil {
		t.Fatal(err)
	}
	x := FromSlice([]float64{1, -1, 0.5})
	ya, err := a.Forward(x)
	if err != nil {
		t.Fatal(err)
	}
	yb, err := b.Forward(x)
	if err != nil {
		t.Fatal(err)
	}
	d, err := MaxAbsDiff(ya, yb)
	if err != nil {
		t.Fatal(err)
	}
	if d != 0 {
		t.Fatalf("outputs differ by %v after weight copy", d)
	}
	c, err := NewMLP([]int{3, 6, 2}, rng)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.CopyWeightsFrom(a); err == nil {
		t.Fatal("shape mismatch: expected error")
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	net, err := NewMLP([]int{4, 7, 3}, rng)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := net.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if got := buf.Len(); got != net.SerializedSize() {
		t.Fatalf("SerializedSize = %d, actual = %d", net.SerializedSize(), got)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	x := FromSlice([]float64{0.3, -0.7, 1.1, 0.0})
	y1, err := net.Forward(x)
	if err != nil {
		t.Fatal(err)
	}
	y2, err := loaded.Forward(x)
	if err != nil {
		t.Fatal(err)
	}
	d, err := MaxAbsDiff(y1, y2)
	if err != nil {
		t.Fatal(err)
	}
	if d != 0 {
		t.Fatalf("loaded network output differs by %v", d)
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	if _, err := Load(bytes.NewReader([]byte{1, 2, 3})); !errors.Is(err, ErrBadModelFile) {
		t.Fatalf("err = %v, want ErrBadModelFile", err)
	}
	if _, err := Load(bytes.NewReader(make([]byte, 64))); !errors.Is(err, ErrBadModelFile) {
		t.Fatalf("zeros: err = %v, want ErrBadModelFile", err)
	}

	// A dense layer whose dimensions are individually plausible but whose
	// product is terabyte-scale must be rejected before allocation (found
	// by FuzzCheckpointLoad: 0x40000 x 0x80000 = 2^37 float64s).
	var huge []byte
	for _, v := range []uint32{modelMagic, modelVersion, 1, layerKindDense, 1 << 18, 1 << 19} {
		huge = binary.LittleEndian.AppendUint32(huge, v)
	}
	if _, err := Load(bytes.NewReader(huge)); !errors.Is(err, ErrBadModelFile) {
		t.Fatalf("huge shape: err = %v, want ErrBadModelFile", err)
	}
}

// TestAdamStateRoundTrip pins the optimizer half of a learner checkpoint: an
// Adam restored by LoadAdam from SaveAdam's bytes (onto a copy of the same
// weights) takes bit-identical steps to the one that kept running, and a
// stream for a different parameter list or a truncated one is rejected.
func TestAdamStateRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	net, err := NewMLP([]int{4, 6, 2}, rng)
	if err != nil {
		t.Fatal(err)
	}
	x, target := NewMatrix(2, 4), NewMatrix(2, 2)
	copy(x.Data, []float64{0.5, -1, 0.25, 2, -0.5, 1, 0, 0.75})
	copy(target.Data, []float64{1, -1, 0.5, 0})
	step := func(net *Network, opt *Adam) {
		t.Helper()
		net.ZeroGrad()
		pred, err := net.Forward(x)
		if err != nil {
			t.Fatal(err)
		}
		grad := NewMatrix(0, 0)
		if _, err := MSELoss(grad, pred, target); err != nil {
			t.Fatal(err)
		}
		if err := net.Backward(grad); err != nil {
			t.Fatal(err)
		}
		if err := opt.Step(net.Params()); err != nil {
			t.Fatal(err)
		}
	}

	saveAdam := func(opt *Adam, w io.Writer) error {
		e := ckpt.NewEncoder(w)
		opt.SaveAdam(e, net.Params())
		return e.Close()
	}
	loadAdam := func(opt *Adam, data []byte, params []*Param) error {
		return opt.LoadAdam(ckpt.NewDecoder(bytes.NewReader(data), ErrBadModelFile), params)
	}
	opt := NewAdam(0.01)
	var fresh bytes.Buffer // before the first Step the moments encode as zeros
	if err := saveAdam(opt, &fresh); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		step(net, opt)
	}
	var state bytes.Buffer
	if err := saveAdam(opt, &state); err != nil {
		t.Fatal(err)
	}
	saved := state.Bytes()
	twin, err := net.Clone()
	if err != nil {
		t.Fatal(err)
	}
	resumed := NewAdam(0.01)
	if err := loadAdam(resumed, saved, twin.Params()); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		step(net, opt)
		step(twin, resumed)
	}
	want, got := net.Params(), twin.Params()
	for i := range want {
		if j := sameBits(got[i].Value.Data, want[i].Value.Data); j >= 0 {
			t.Fatalf("param %d element %d: resumed %v, uninterrupted %v", i, j, got[i].Value.Data[j], want[i].Value.Data[j])
		}
	}

	if err := loadAdam(NewAdam(0.01), fresh.Bytes(), twin.Params()); err != nil {
		t.Fatalf("zero-moment state: %v", err)
	}
	if err := loadAdam(NewAdam(0.01), saved, twin.Params()[:1]); !errors.Is(err, ErrBadModelFile) {
		t.Fatalf("param count mismatch: err = %v, want ErrBadModelFile", err)
	}
	for _, n := range []int{0, 4, 12, 16, len(saved) - 1} {
		if err := loadAdam(NewAdam(0.01), saved[:n], twin.Params()); !errors.Is(err, ErrBadModelFile) {
			t.Fatalf("truncated to %d bytes: err = %v, want ErrBadModelFile", n, err)
		}
	}
}

func TestPaperScaleModelSize(t *testing.T) {
	// The paper's model stores ~10664 floats in ~42.7 KB. Our default
	// DQN shape (3x8 inputs, two hidden layers, 16x10 outputs) lands in
	// the same order of magnitude.
	rng := rand.New(rand.NewSource(10))
	net, err := NewMLP([]int{24, 48, 48, 160}, rng)
	if err != nil {
		t.Fatal(err)
	}
	params := net.ParamCount()
	if params < 5000 || params > 20000 {
		t.Fatalf("param count %d far from the paper's 10664", params)
	}
	sizeKB := float64(net.SerializedSize()) / 1024
	if sizeKB < 30 || sizeKB > 160 {
		t.Fatalf("model size %.1f KB implausible", sizeKB)
	}
}

func BenchmarkForwardBatch64(b *testing.B) {
	rng := rand.New(rand.NewSource(11))
	net, err := NewMLP([]int{24, 48, 48, 160}, rng)
	if err != nil {
		b.Fatal(err)
	}
	x := NewMatrix(64, 24)
	for i := range x.Data {
		x.Data[i] = rng.NormFloat64()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := net.Forward(x); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTrainStepBatch64(b *testing.B) {
	rng := rand.New(rand.NewSource(12))
	net, err := NewMLP([]int{24, 48, 48, 160}, rng)
	if err != nil {
		b.Fatal(err)
	}
	opt := NewAdam(1e-3)
	x := NewMatrix(64, 24)
	target := NewMatrix(64, 160)
	for i := range x.Data {
		x.Data[i] = rng.NormFloat64()
	}
	grad := &Matrix{}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err := net.Forward(x)
		if err != nil {
			b.Fatal(err)
		}
		_, err = MSELoss(grad, out, target)
		if err != nil {
			b.Fatal(err)
		}
		net.ZeroGrad()
		if err := net.Backward(grad); err != nil {
			b.Fatal(err)
		}
		if err := opt.Step(net.Params()); err != nil {
			b.Fatal(err)
		}
	}
}
