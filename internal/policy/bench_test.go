package policy_test

import (
	"fmt"
	"math/rand"
	"testing"

	"ctjam/internal/core"
	"ctjam/internal/env"
	"ctjam/internal/jammer"
	"ctjam/internal/policy"
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

// BenchmarkSchemeRunSlot measures one slot of the lockstep evaluation loop —
// env.BatchRun, the Batch adapter, the scheme's encoder and policy, and the
// jammer strategy — on one link, as a sweep point runs it. One op is one
// slot, so ns/op and allocs/op are per slot; the run's set-up (the batch,
// the agent stream, the counters) is spread over b.N slots.
func BenchmarkSchemeRunSlot(b *testing.B) {
	mdp := func(cfg env.Config) (*policy.Scheme, error) {
		model, err := core.NewModel(core.ParamsFromEnv(cfg))
		if err != nil {
			return nil, err
		}
		a, err := core.NewMDPAgent(model, nil, cfg.Channels, cfg.SweepWidth)
		if err != nil {
			return nil, err
		}
		return a.Scheme(), nil
	}
	psv := func(cfg env.Config) (*policy.Scheme, error) {
		return policy.PassiveFHScheme(cfg.Channels, cfg.SweepWidth, 4)
	}
	rnd := func(cfg env.Config) (*policy.Scheme, error) {
		return policy.RandomFHScheme(cfg.Channels, cfg.SweepWidth, len(cfg.TxPowers))
	}
	cases := []struct {
		name   string
		jammer string
		mode   jammer.PowerMode
		scheme func(env.Config) (*policy.Scheme, error)
	}{
		{"mdp/sweep-max", "", jammer.ModeMax, mdp},
		{"mdp/sweep-random", "", jammer.ModeRandom, mdp},
		{"psv/sweep-max", "", jammer.ModeMax, psv},
		{"rand/sweep-max", "", jammer.ModeMax, rnd},
		{"mdp/adaptive", "adaptive", jammer.ModeMax, mdp},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			cfg := env.DefaultConfig()
			cfg.Jammer = c.jammer
			cfg.JammerMode = c.mode
			s, err := c.scheme(cfg)
			if err != nil {
				b.Fatal(err)
			}
			e, err := env.New(cfg)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			if _, err := s.Run([]*env.Environment{e}, b.N); err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/slot")
		})
	}
}
