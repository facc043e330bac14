package ctjam

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"
)

// TestTrainDQNWeightsDigest pins the exact bits of a trained network: the
// SHA-256 of Policy.Save after TrainDQN(DefaultConfig(), 3000) at two seeds.
// Any change to the GEMM kernels, backprop, the optimizer or the learner that
// moves one weight by one ulp fails here. CI also runs it with -tags noasm so
// the portable kernels are shown to train the same network.
func TestTrainDQNWeightsDigest(t *testing.T) {
	if testing.Short() {
		t.Skip("trains two networks")
	}
	for _, tc := range []struct {
		seed int64
		want string
	}{
		{1, "0ba9f200d919c97f7d4613c4dd3df970dd60489ecf63512de5b7de0e45d2795c"},
		{7, "64fbff4cb22f3e72c81791f22443b2e405b5be35658d5cd07596d422b7706a59"},
	} {
		t.Run(fmt.Sprintf("seed%d", tc.seed), func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.Seed = tc.seed
			p, err := TrainDQN(cfg, 3000)
			if err != nil {
				t.Fatal(err)
			}
			h := sha256.New()
			if err := p.Save(h); err != nil {
				t.Fatal(err)
			}
			if got := hex.EncodeToString(h.Sum(nil)); got != tc.want {
				t.Fatalf("trained weights SHA-256 = %s, want %s", got, tc.want)
			}
		})
	}
}
