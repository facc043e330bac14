package policy_test

import (
	"fmt"
	"math/rand"
	"testing"

	"ctjam/internal/rl"
)

// BenchmarkPolicyBatch measures inference throughput (states/s) at the
// paper's network dimensions (24 features -> 48 -> 48 -> 160 actions),
// comparing one batched forward over N states against N single-state
// forwards through the same snapshot. The batched path must win by >= 2x at
// N=256 (PR acceptance gate; see CHANGES.md for recorded numbers).
func BenchmarkPolicyBatch(b *testing.B) {
	cfg := rl.DefaultDQNConfig(24, 160)
	cfg.Hidden = []int{48, 48}
	d, err := rl.NewDQN(cfg)
	if err != nil {
		b.Fatal(err)
	}
	snap, err := d.Snapshot()
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{1, 16, 64, 256} {
		states := make([]float64, n*24)
		for i := range states {
			states[i] = rng.Float64()*2 - 1
		}
		actions := make([]int, n)

		b.Run(fmt.Sprintf("batched/n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := snap.GreedyBatch(actions, states); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(n)*float64(b.N)/b.Elapsed().Seconds(), "states/s")
		})

		b.Run(fmt.Sprintf("perstate/n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			one := make([]int, 1)
			for i := 0; i < b.N; i++ {
				for s := 0; s < n; s++ {
					if err := snap.GreedyBatch(one, states[s*24:(s+1)*24]); err != nil {
						b.Fatal(err)
					}
					actions[s] = one[0]
				}
			}
			b.ReportMetric(float64(n)*float64(b.N)/b.Elapsed().Seconds(), "states/s")
		})
	}
}
