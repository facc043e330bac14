package nn

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// Robustness suite: Load consumes untrusted bytes (model files travel to
// IoT devices, §IV-B), so arbitrary input must produce errors, not panics
// or huge allocations.

func TestLoadNeverPanicsProperty(t *testing.T) {
	f := func(data []byte) bool {
		net, err := Load(bytes.NewReader(data))
		// Either a clean error or a usable network.
		if err == nil && net == nil {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestLoadTruncatedModel(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	net, err := NewMLP([]int{4, 8, 2}, rng)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := net.Save(&buf); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	// Every truncation point must error, never panic or succeed.
	for cut := 0; cut < len(full); cut += 7 {
		if _, err := Load(bytes.NewReader(full[:cut])); err == nil {
			t.Fatalf("truncation at %d/%d decoded successfully", cut, len(full))
		}
	}
}

func TestLoadBitflippedHeaderRejected(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	net, err := NewMLP([]int{3, 5, 2}, rng)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := net.Save(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	for _, pos := range []int{0, 1, 4, 8} { // magic, version, layer count
		mut := make([]byte, len(data))
		copy(mut, data)
		mut[pos] ^= 0xFF
		if _, err := Load(bytes.NewReader(mut)); err == nil {
			t.Fatalf("header corruption at byte %d accepted", pos)
		}
	}
}

func TestForwardRejectsWrongInputWidth(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	net, err := NewMLP([]int{4, 8, 2}, rng)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := net.Forward(NewMatrix(1, 3)); err == nil {
		t.Fatal("wrong input width: expected error")
	}
}

func TestTrainingIsFiniteProperty(t *testing.T) {
	// Gradients and parameters must remain finite through aggressive
	// updates on random data (Adam + clipping keep things sane).
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		net, err := NewMLP([]int{3, 8, 2}, rng)
		if err != nil {
			return false
		}
		opt := NewAdam(0.1)
		opt.ClipNorm = 5
		for step := 0; step < 50; step++ {
			x := NewMatrix(4, 3)
			target := NewMatrix(4, 2)
			for i := range x.Data {
				x.Data[i] = rng.NormFloat64() * 10
			}
			for i := range target.Data {
				target.Data[i] = rng.NormFloat64() * 10
			}
			out, err := net.Forward(x)
			if err != nil {
				return false
			}
			grad := &Matrix{}
			_, err = MSELoss(grad, out, target)
			if err != nil {
				return false
			}
			net.ZeroGrad()
			if err := net.Backward(grad); err != nil {
				return false
			}
			if err := opt.Step(net.Params()); err != nil {
				return false
			}
		}
		for _, p := range net.Params() {
			for _, v := range p.Value.Data {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}
