package rl

import (
	"crypto/sha256"
	"encoding/hex"
	"math/rand"
	"testing"
)

// trainSyntheticDQN trains the paper-shaped DQN (24→48→48→160, Double DQN)
// on a fixed synthetic transition stream, with no environment involved.
// States mix dense Gaussian entries, exact zeros and one-hot blocks, so the
// GEMM kernels see both the zero-heavy inputs of the real encoding and
// fully dense ones.
func trainSyntheticDQN(t testing.TB) *DQN {
	cfg := DefaultDQNConfig(24, 160)
	cfg.DoubleDQN = true
	cfg.WarmupSize = 64
	cfg.TargetSyncEvery = 50
	cfg.Seed = 5
	d, err := NewDQN(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(41))
	state := func() []float64 {
		s := make([]float64, 24)
		if rng.Intn(2) == 0 {
			for b := 0; b < 24; b += 8 {
				s[b+rng.Intn(8)] = 1
			}
			return s
		}
		for j := range s {
			if rng.Intn(3) != 0 {
				s[j] = rng.NormFloat64()
			}
		}
		return s
	}
	s := state()
	for i := 0; i < 400; i++ {
		next := state()
		tr := Transition{
			State:  s,
			Action: rng.Intn(160),
			Reward: rng.NormFloat64(),
			Next:   next,
			Done:   rng.Intn(10) == 0,
		}
		if _, err := d.Observe(tr); err != nil {
			t.Fatal(err)
		}
		s = next
	}
	return d
}

// TestDQNTrainedWeightsDigest pins the SHA-256 of the serialized online
// network after trainSyntheticDQN: every forward product, backward product
// and optimizer step must keep its bits. Under -tags noasm it checks the
// portable kernels against the same digest.
func TestDQNTrainedWeightsDigest(t *testing.T) {
	d := trainSyntheticDQN(t)
	if d.TrainSteps() != 400-64+1 {
		t.Fatalf("train steps = %d, want %d", d.TrainSteps(), 400-64+1)
	}
	h := sha256.New()
	if err := d.Network().Save(h); err != nil {
		t.Fatal(err)
	}
	const want = "6f80b81cfd34f14198193e603854c249806ee39812ec93bc6d29bc10b0af566f"
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Fatalf("trained weights SHA-256 = %s, want %s", got, want)
	}
}

// TestDQNStateDigest pins the SHA-256 of the CTDQ stream SaveState writes
// after trainSyntheticDQN: header, both networks, the Adam moments and the
// replay ring. Any change to the layout or to a field's bytes moves it.
func TestDQNStateDigest(t *testing.T) {
	d := trainSyntheticDQN(t)
	h := sha256.New()
	if err := d.SaveState(h); err != nil {
		t.Fatal(err)
	}
	const want = "8a7877d5c8e56308ca00be2d42b3bf0ef970376c53495dd29e0e92beddbab2e5"
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Fatalf("CTDQ stream SHA-256 = %s, want %s", got, want)
	}
}
