package iot

import (
	"math"
	"testing"
	"time"

	"ctjam/internal/core"
	"ctjam/internal/env"
	"ctjam/internal/metrics"
	"ctjam/internal/policy"
)

func noJammerConfig(slot time.Duration) Config {
	cfg := DefaultConfig()
	cfg.JammerEnabled = false
	cfg.SlotDuration = slot
	return cfg
}

func mdpAgent(t testing.TB, cfg Config) env.Agent {
	t.Helper()
	ecfg := env.DefaultConfig()
	ecfg.Channels = cfg.Channels
	ecfg.SweepWidth = cfg.SweepWidth
	ecfg.TxPowers = cfg.TxPowers
	ecfg.JamPowers = cfg.JamPowers
	ecfg.JammerMode = cfg.JammerMode
	model, err := core.NewModel(core.ParamsFromEnv(ecfg))
	if err != nil {
		t.Fatal(err)
	}
	agent, err := core.NewMDPAgent(model, nil, cfg.Channels, cfg.SweepWidth)
	if err != nil {
		t.Fatal(err)
	}
	return agent
}

func TestConfigValidation(t *testing.T) {
	tests := []struct {
		name   string
		mutate func(*Config)
	}{
		{"no nodes", func(c *Config) { c.Nodes = 0 }},
		{"zero slot", func(c *Config) { c.SlotDuration = 0 }},
		{"zero jam slot", func(c *Config) { c.JammerSlot = 0 }},
		{"one channel", func(c *Config) { c.Channels = 1 }},
		{"bad width", func(c *Config) { c.SweepWidth = 0 }},
		{"no powers", func(c *Config) { c.TxPowers = nil }},
		{"bad timing", func(c *Config) { c.Timing.OffChannelProb = 2 }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			cfg := DefaultConfig()
			tt.mutate(&cfg)
			if _, err := New(cfg); err == nil {
				t.Fatal("expected error")
			}
		})
	}
}

func TestTimingValidation(t *testing.T) {
	good := DefaultTiming()
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := good
	bad.PacketAirtime = 0
	if err := bad.Validate(); err == nil {
		t.Fatal("zero airtime: expected error")
	}
	bad = good
	bad.RecoveryMin = 2 * bad.RecoveryMax
	if err := bad.Validate(); err == nil {
		t.Fatal("inverted recovery window: expected error")
	}
	bad = good
	bad.Jitter = 0.9
	if err := bad.Validate(); err == nil {
		t.Fatal("huge jitter: expected error")
	}
	bad = good
	bad.DQNDecision = -time.Millisecond
	if err := bad.Validate(); err == nil {
		t.Fatal("negative duration: expected error")
	}
}

func TestPacketServiceTimeMatchesPaperRate(t *testing.T) {
	// The paper reports ~148 packets in a 1 s slot after overheads,
	// i.e. ~6.2 ms per packet.
	got := DefaultTiming().PacketServiceTime()
	if got < 5500*time.Microsecond || got > 7*time.Millisecond {
		t.Fatalf("packet service time %v outside the paper's ~6.2 ms band", got)
	}
}

func TestRunSlotValidation(t *testing.T) {
	s, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.RunSlot(-1, 0, false); err == nil {
		t.Fatal("bad channel: expected error")
	}
	if _, err := s.RunSlot(0, 99, false); err == nil {
		t.Fatal("bad power: expected error")
	}
}

func TestUtilizationMatchesPaperFig10b(t *testing.T) {
	// Fig. 10(b): utilization grows from ~91.75% at 1 s slots to
	// ~98.58% at 5 s slots.
	prev := 0.0
	for _, slotSec := range []int{1, 2, 3, 4, 5} {
		cfg := noJammerConfig(time.Duration(slotSec) * time.Second)
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		run, err := s.Run(policy.StaticScheme().NewAgent(), 200)
		if err != nil {
			t.Fatal(err)
		}
		if run.MeanUtilization < prev-0.01 {
			t.Fatalf("utilization fell at %ds slots: %.4f -> %.4f", slotSec, prev, run.MeanUtilization)
		}
		prev = run.MeanUtilization
		switch slotSec {
		case 1:
			if run.MeanUtilization < 0.88 || run.MeanUtilization > 0.96 {
				t.Fatalf("1s utilization %.4f outside paper band ~0.9175", run.MeanUtilization)
			}
		case 5:
			if run.MeanUtilization < 0.97 {
				t.Fatalf("5s utilization %.4f below paper band ~0.9858", run.MeanUtilization)
			}
		}
	}
}

func TestGoodputGrowsWithSlotDuration(t *testing.T) {
	// Fig. 10(a): goodput per slot grows with slot duration (~148
	// packets at 1 s with the paper's packet size).
	prev := 0.0
	for _, slotSec := range []int{1, 2, 3, 4, 5} {
		s, err := New(noJammerConfig(time.Duration(slotSec) * time.Second))
		if err != nil {
			t.Fatal(err)
		}
		run, err := s.Run(policy.StaticScheme().NewAgent(), 100)
		if err != nil {
			t.Fatal(err)
		}
		if run.GoodputPktsPerSlot <= prev {
			t.Fatalf("goodput did not grow at %ds slots: %.1f -> %.1f", slotSec, prev, run.GoodputPktsPerSlot)
		}
		prev = run.GoodputPktsPerSlot
		if slotSec == 1 {
			if run.GoodputPktsPerSlot < 120 || run.GoodputPktsPerSlot > 175 {
				t.Fatalf("1s goodput %.1f outside paper band ~148", run.GoodputPktsPerSlot)
			}
		}
	}
}

func TestNoJammerMeansNoLosses(t *testing.T) {
	s, err := New(noJammerConfig(2 * time.Second))
	if err != nil {
		t.Fatal(err)
	}
	run, err := s.Run(policy.StaticScheme().NewAgent(), 100)
	if err != nil {
		t.Fatal(err)
	}
	if run.Attempted != run.Delivered {
		t.Fatalf("lost %d packets without a jammer", run.Attempted-run.Delivered)
	}
	if run.Counters.JammedSlots != 0 {
		t.Fatal("jammed slots recorded without a jammer")
	}
}

func TestStaticVictimLosesMostPacketsUnderJamming(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Seed = 3
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	run, err := s.Run(policy.StaticScheme().NewAgent(), 150)
	if err != nil {
		t.Fatal(err)
	}
	frac := float64(run.Delivered) / float64(run.Attempted)
	if frac > 0.45 {
		t.Fatalf("static victim delivered %.2f of packets under a locked jammer", frac)
	}
}

func TestSchemeOrderingGoodputFig11a(t *testing.T) {
	// Fig. 11(a): RL/MDP > Rand FH > PSV FH in goodput, and the best
	// scheme lands near 78% of the no-jammer goodput.
	cfg := DefaultConfig()
	cfg.Seed = 5
	const slots = 400

	noJam := cfg
	noJam.JammerEnabled = false
	sNoJam, err := New(noJam)
	if err != nil {
		t.Fatal(err)
	}
	baseline, err := sNoJam.Run(policy.StaticScheme().NewAgent(), slots)
	if err != nil {
		t.Fatal(err)
	}

	passive, err := core.NewPassiveFH(cfg.Channels, cfg.SweepWidth)
	if err != nil {
		t.Fatal(err)
	}
	random, err := core.NewRandomFH(cfg.Channels, cfg.SweepWidth, len(cfg.TxPowers))
	if err != nil {
		t.Fatal(err)
	}
	agents := []env.Agent{passive, random, mdpAgent(t, cfg)}
	goodputs := make([]float64, len(agents))
	for i, a := range agents {
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		run, err := s.Run(a, slots)
		if err != nil {
			t.Fatal(err)
		}
		goodputs[i] = run.GoodputPktsPerSlot
	}
	psv, rnd, mdp := goodputs[0], goodputs[1], goodputs[2]
	t.Logf("goodput pkts/slot: psv=%.0f rand=%.0f mdp=%.0f noJam=%.0f (ratios %.2f/%.2f/%.2f)",
		psv, rnd, mdp, baseline.GoodputPktsPerSlot,
		psv/baseline.GoodputPktsPerSlot, rnd/baseline.GoodputPktsPerSlot, mdp/baseline.GoodputPktsPerSlot)
	if !(mdp > rnd && rnd > psv) {
		t.Fatalf("ordering violated: psv=%.0f rand=%.0f mdp=%.0f", psv, rnd, mdp)
	}
	ratio := mdp / baseline.GoodputPktsPerSlot
	if ratio < 0.65 || ratio > 0.95 {
		t.Fatalf("best scheme reaches %.2f of no-jammer goodput, paper reports ~0.78", ratio)
	}
}

func TestFastJammerHurtsMore(t *testing.T) {
	// Fig. 11(b): a jammer with a much shorter slot than the victim
	// finds and jams the victim faster, reducing goodput relative to
	// the aligned case.
	base := DefaultConfig()
	base.Seed = 7
	agent := mdpAgent(t, base)

	run := func(jamSlot time.Duration) float64 {
		cfg := base
		cfg.JammerSlot = jamSlot
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		r, err := s.Run(agent, 300)
		if err != nil {
			t.Fatal(err)
		}
		return r.GoodputPktsPerSlot
	}
	fast := run(500 * time.Millisecond)
	aligned := run(3 * time.Second)
	t.Logf("goodput: fast jammer=%.0f aligned=%.0f", fast, aligned)
	if fast >= aligned {
		t.Fatalf("fast jammer (%.0f) should hurt more than aligned (%.0f)", fast, aligned)
	}
}

func TestRunCountersConsistent(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Seed = 11
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	run, err := s.Run(mdpAgent(t, cfg), 300)
	if err != nil {
		t.Fatal(err)
	}
	if err := run.Counters.Validate(); err != nil {
		t.Fatal(err)
	}
	if run.Slots != 300 || run.Counters.Slots != 300 {
		t.Fatalf("slot bookkeeping wrong: %d / %d", run.Slots, run.Counters.Slots)
	}
	if run.Delivered > run.Attempted {
		t.Fatal("delivered exceeds attempted")
	}
}

func TestRunValidation(t *testing.T) {
	s, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(policy.StaticScheme().NewAgent(), 0); err == nil {
		t.Fatal("0 slots: expected error")
	}
}

func TestRunIsDeterministic(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Seed = 13
	s1, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	passive, err := core.NewPassiveFH(cfg.Channels, cfg.SweepWidth)
	if err != nil {
		t.Fatal(err)
	}
	r1, err := s1.Run(passive, 100)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := s2.Run(passive, 100)
	if err != nil {
		t.Fatal(err)
	}
	if r1 != r2 {
		t.Fatalf("same seed diverged: %+v vs %+v", r1, r2)
	}
}

func TestFunctionTimingsMatchPaperFig9a(t *testing.T) {
	s, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	samples := s.FunctionTimings(100)
	wants := map[string]float64{
		"DQN":     0.009,
		"ACK":     0.0009,
		"Proc":    0.0006,
		"Polling": 0.0131,
	}
	for name, want := range wants {
		xs, ok := samples[name]
		if !ok || len(xs) != 100 {
			t.Fatalf("missing samples for %s", name)
		}
		mean := metrics.Mean(xs)
		if math.Abs(mean-want)/want > 0.10 {
			t.Fatalf("%s mean %.5f s deviates from paper's %.5f s", name, mean, want)
		}
	}
}

func TestNegotiationTimesGrowWithNetworkSize(t *testing.T) {
	// Fig. 9(b): mean negotiation time grows with the number of nodes
	// and reaches seconds when nodes must be recovered.
	s, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	prevMean := 0.0
	for _, nodes := range []int{1, 2, 4, 6, 8, 10} {
		xs, err := s.NegotiationTimes(nodes, 400, 0.25)
		if err != nil {
			t.Fatal(err)
		}
		mean := metrics.Mean(xs)
		if mean < prevMean {
			t.Fatalf("mean negotiation time fell at %d nodes: %.3f -> %.3f", nodes, prevMean, mean)
		}
		prevMean = mean
	}
	// At 10 nodes with cold-start recovery the tail reaches seconds.
	xs, err := s.NegotiationTimes(10, 500, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	if p95 := metrics.Percentile(xs, 0.95); p95 < 1.0 {
		t.Fatalf("10-node negotiation p95 = %.3f s, expected seconds-scale tail", p95)
	}
}

func TestNegotiationTimesValidation(t *testing.T) {
	s, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.NegotiationTimes(0, 10, 0.1); err == nil {
		t.Fatal("0 nodes: expected error")
	}
	if _, err := s.NegotiationTimes(3, 0, 0.1); err == nil {
		t.Fatal("0 trials: expected error")
	}
	if _, err := s.NegotiationTimes(3, 10, 1.5); err == nil {
		t.Fatal("bad prob: expected error")
	}
}

func BenchmarkRunSlot(b *testing.B) {
	s, err := New(DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.RunSlot(i%16, i%10, i%2 == 0); err != nil {
			b.Fatal(err)
		}
	}
}

func TestCSMAModeContentionCost(t *testing.T) {
	// With CSMA enabled, goodput stays close to the fixed-LBT model for
	// the paper's 3-node network and degrades relative to it as
	// contention grows.
	goodput := func(nodes int, useCSMA bool) float64 {
		cfg := noJammerConfig(2 * time.Second)
		cfg.Nodes = nodes
		cfg.UseCSMA = useCSMA
		cfg.Seed = 21
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		run, err := s.Run(policy.StaticScheme().NewAgent(), 60)
		if err != nil {
			t.Fatal(err)
		}
		return run.GoodputPktsPerSlot
	}
	fixed3 := goodput(3, false)
	csma3 := goodput(3, true)
	if ratio := csma3 / fixed3; ratio < 0.55 || ratio > 1.1 {
		t.Fatalf("3-node CSMA goodput ratio %.2f implausible (csma=%.0f fixed=%.0f)",
			ratio, csma3, fixed3)
	}
	// Denser networks pay more contention overhead per delivered packet.
	csma12 := goodput(12, true)
	if csma12 >= csma3 {
		t.Fatalf("12-node CSMA goodput %.0f should be below 3-node %.0f (collisions)",
			csma12, csma3)
	}
	if csma12 <= 0 {
		t.Fatal("CSMA mode delivered nothing")
	}
}
