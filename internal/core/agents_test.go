package core

import (
	"bytes"
	"testing"

	"ctjam/internal/env"
	"ctjam/internal/jammer"
	"ctjam/internal/metrics"
	"ctjam/internal/policy"
	"ctjam/internal/rng"
)

func runAgent(t *testing.T, cfg env.Config, a env.Agent, slots int) metrics.Counters {
	t.Helper()
	e, err := env.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c, err := env.Run(e, a, slots)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	return c
}

func TestHopTargetLeavesBlock(t *testing.T) {
	src := rng.NewSource(1)
	for i := 0; i < 500; i++ {
		cur := src.Intn(16)
		got := policy.HopTarget(src, cur, 16, 4)
		if got < 0 || got >= 16 {
			t.Fatalf("hop target %d out of range", got)
		}
		if got/4 == cur/4 {
			t.Fatalf("hop target %d stayed in block of %d", got, cur)
		}
	}
}

func TestHopTargetUnevenChannels(t *testing.T) {
	src := rng.NewSource(2)
	for i := 0; i < 300; i++ {
		got := policy.HopTarget(src, 9, 10, 4) // blocks {0-3},{4-7},{8-9}
		if got < 0 || got >= 10 {
			t.Fatalf("hop target %d out of range", got)
		}
		if got/4 == 2 {
			t.Fatalf("hop target %d stayed in block 2", got)
		}
	}
}

func TestAgentConstructorsValidate(t *testing.T) {
	if _, err := NewPassiveFH(1, 1); err == nil {
		t.Fatal("1 channel: expected error")
	}
	if _, err := NewPassiveFH(4, 4); err == nil {
		t.Fatal("single block: expected error")
	}
	if _, err := NewRandomFH(16, 4, 0); err == nil {
		t.Fatal("0 powers: expected error")
	}
	if _, err := NewDQNAgent(DQNAgentConfig{Channels: 16, Powers: 0, SweepWidth: 4, HistoryLen: 4, Hidden: []int{8}}); err == nil {
		t.Fatal("0 powers dqn: expected error")
	}
	cfg := DefaultDQNAgentConfig(16, 10, 4)
	cfg.HistoryLen = 0
	if _, err := NewDQNAgent(cfg); err == nil {
		t.Fatal("0 history: expected error")
	}
}

func TestPassiveFHOnlyHopsAfterJamStreak(t *testing.T) {
	s, err := policy.PassiveFHScheme(16, 4, 3)
	if err != nil {
		t.Fatal(err)
	}
	a := s.NewAgent()
	a.Reset(rng.NewSource(3))
	d := a.Decide(env.SlotInfo{First: true, Channel: 5})
	if d.Channel != 5 || d.Power != 0 {
		t.Fatalf("first decision %+v", d)
	}
	d = a.Decide(env.SlotInfo{Channel: 5, Outcome: env.OutcomeSuccess})
	if d.Channel != 5 {
		t.Fatal("passive agent hopped without a jam")
	}
	// Two jammed slots: still below the threshold of 3.
	for i := 0; i < 2; i++ {
		d = a.Decide(env.SlotInfo{Channel: 5, Outcome: env.OutcomeJammed})
		if d.Channel != 5 {
			t.Fatalf("passive agent hopped after %d jams (threshold 3)", i+1)
		}
	}
	// Third consecutive jam: error-rate threshold trips, agent hops.
	d = a.Decide(env.SlotInfo{Channel: 5, Outcome: env.OutcomeJammed})
	if d.Channel == 5 {
		t.Fatal("passive agent failed to hop after the jam streak")
	}
	// A success resets the streak: two more jams must not trigger a hop.
	home := d.Channel
	d = a.Decide(env.SlotInfo{Channel: home, Outcome: env.OutcomeSuccess})
	for i := 0; i < 2; i++ {
		d = a.Decide(env.SlotInfo{Channel: home, Outcome: env.OutcomeJammed})
		if d.Channel != home {
			t.Fatalf("streak did not reset: hopped after %d post-reset jams", i+1)
		}
	}
}

func TestPassiveFHThresholdValidation(t *testing.T) {
	if _, err := policy.PassiveFHScheme(16, 4, 0); err == nil {
		t.Fatal("threshold 0: expected error")
	}
}

func TestStaticAgentNeverMoves(t *testing.T) {
	a := policy.StaticScheme().NewAgent()
	a.Reset(nil)
	for i := 0; i < 10; i++ {
		d := a.Decide(env.SlotInfo{Channel: 7, Outcome: env.OutcomeJammed})
		if d.Channel != 7 || d.Power != 0 {
			t.Fatalf("static agent moved: %+v", d)
		}
	}
}

func TestRandomFHMixesActions(t *testing.T) {
	a, err := NewRandomFH(16, 4, 10)
	if err != nil {
		t.Fatal(err)
	}
	a.Reset(rng.NewSource(4))
	hops, pcs := 0, 0
	prev := env.SlotInfo{Channel: 3}
	for i := 0; i < 500; i++ {
		d := a.Decide(prev)
		if d.Channel != prev.Channel {
			hops++
		} else if d.Power > 0 {
			pcs++
		}
	}
	if hops < 150 || pcs < 100 {
		t.Fatalf("random agent not mixing: hops=%d pcs=%d", hops, pcs)
	}
}

func TestSchemeOrderingUnderMaxPowerJammer(t *testing.T) {
	// The paper's headline comparison (Fig. 11a, translated to ST): the
	// MDP/RL scheme beats Random FH, which beats Passive FH, which
	// beats no defense.
	cfg := env.DefaultConfig()
	cfg.Seed = 99
	const slots = 20000

	passive, err := NewPassiveFH(16, 4)
	if err != nil {
		t.Fatal(err)
	}
	random, err := NewRandomFH(16, 4, 10)
	if err != nil {
		t.Fatal(err)
	}
	model, err := NewModel(ParamsFromEnv(cfg))
	if err != nil {
		t.Fatal(err)
	}
	mdpAgent, err := NewMDPAgent(model, nil, 16, 4)
	if err != nil {
		t.Fatal(err)
	}

	stStatic := runAgent(t, cfg, policy.StaticScheme().NewAgent(), slots).ST()
	stPassive := runAgent(t, cfg, passive, slots).ST()
	stRandom := runAgent(t, cfg, random, slots).ST()
	stMDP := runAgent(t, cfg, mdpAgent, slots).ST()

	t.Logf("ST: static=%.3f passive=%.3f random=%.3f mdp=%.3f", stStatic, stPassive, stRandom, stMDP)
	if !(stMDP > stRandom && stRandom > stPassive && stPassive > stStatic) {
		t.Fatalf("ordering violated: static=%.3f passive=%.3f random=%.3f mdp=%.3f",
			stStatic, stPassive, stRandom, stMDP)
	}
	// The paper reports ~78% ST for the learned scheme at these
	// parameters; the exact-MDP policy should reach at least that band.
	if stMDP < 0.70 {
		t.Fatalf("MDP ST = %.3f, expected >= 0.70", stMDP)
	}
}

func TestMDPAgentPaperRatios(t *testing.T) {
	// Fig. 11(a) ratios: RL=78.5%, random=54.1%, passive=37.6% of the
	// no-jammer goodput. In slot terms ST_RL ~= 0.78, ST_random ~= 0.54,
	// ST_passive ~= 0.38. Check each scheme lands within a generous band
	// of the paper's value.
	cfg := env.DefaultConfig()
	cfg.Seed = 7
	const slots = 20000

	passive, err := NewPassiveFH(16, 4)
	if err != nil {
		t.Fatal(err)
	}
	random, err := NewRandomFH(16, 4, 10)
	if err != nil {
		t.Fatal(err)
	}
	model, err := NewModel(ParamsFromEnv(cfg))
	if err != nil {
		t.Fatal(err)
	}
	mdpAgent, err := NewMDPAgent(model, nil, 16, 4)
	if err != nil {
		t.Fatal(err)
	}
	stPassive := runAgent(t, cfg, passive, slots).ST()
	stRandom := runAgent(t, cfg, random, slots).ST()
	stMDP := runAgent(t, cfg, mdpAgent, slots).ST()
	if stPassive < 0.25 || stPassive > 0.55 {
		t.Fatalf("passive ST %.3f outside paper band ~0.38", stPassive)
	}
	if stRandom < 0.40 || stRandom > 0.70 {
		t.Fatalf("random ST %.3f outside paper band ~0.54", stRandom)
	}
	if stMDP < 0.70 || stMDP > 0.95 {
		t.Fatalf("MDP ST %.3f outside paper band ~0.78", stMDP)
	}
}

func TestDQNAgentLearnsToBeatPassive(t *testing.T) {
	if testing.Short() {
		t.Skip("DQN training is slow")
	}
	cfg := env.DefaultConfig()
	cfg.Seed = 5
	acfg := DefaultDQNAgentConfig(16, 10, 4)
	acfg.Hidden = []int{32, 32}
	acfg.Epsilon.DecaySteps = 6000
	agent, err := NewDQNAgent(acfg)
	if err != nil {
		t.Fatal(err)
	}
	trainEnv, err := env.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := agent.Train(trainEnv, 10000); err != nil {
		t.Fatal(err)
	}

	evalCfg := cfg
	evalCfg.Seed = 123
	stDQN := runAgent(t, evalCfg, agent, 5000).ST()

	passive, err := NewPassiveFH(16, 4)
	if err != nil {
		t.Fatal(err)
	}
	stPassive := runAgent(t, evalCfg, passive, 5000).ST()
	t.Logf("ST: dqn=%.3f passive=%.3f", stDQN, stPassive)
	if stDQN <= stPassive {
		t.Fatalf("trained DQN (%.3f) failed to beat passive FH (%.3f)", stDQN, stPassive)
	}
}

// TestDQNAgentLoadModelRejectsOtherShapes: a model trained for another
// channel count, power count or history length must not load.
func TestDQNAgentLoadModelRejectsOtherShapes(t *testing.T) {
	want := DefaultDQNAgentConfig(16, 10, 4)
	want.Hidden = []int{16}
	b, err := NewDQNAgent(want)
	if err != nil {
		t.Fatal(err)
	}
	for _, edit := range []func(*DQNAgentConfig){
		func(c *DQNAgentConfig) { c.Channels = 8 },
		func(c *DQNAgentConfig) { c.Powers = 3 },
		func(c *DQNAgentConfig) { c.HistoryLen = 3 },
		func(c *DQNAgentConfig) { c.Hidden = []int{16, 16} },
	} {
		cfg := want
		edit(&cfg)
		a, err := NewDQNAgent(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := a.SaveModel(&buf); err != nil {
			t.Fatal(err)
		}
		if err := b.LoadModel(&buf); err == nil {
			t.Errorf("%+v: model loaded into a %+v agent", cfg, want)
		}
	}
}

func TestDQNAgentModelRoundTrip(t *testing.T) {
	acfg := DefaultDQNAgentConfig(16, 10, 4)
	acfg.Hidden = []int{16}
	a, err := NewDQNAgent(acfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := a.SaveModel(&buf); err != nil {
		t.Fatal(err)
	}
	b, err := NewDQNAgent(acfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.LoadModel(&buf); err != nil {
		t.Fatal(err)
	}
	// Same weights -> same greedy decisions.
	a.Reset(nil)
	b.Reset(nil)
	prev := env.SlotInfo{First: true, Channel: 2}
	for i := 0; i < 20; i++ {
		da := a.Decide(prev)
		db := b.Decide(prev)
		if da != db {
			t.Fatalf("step %d: decisions diverge %+v vs %+v", i, da, db)
		}
		prev = env.SlotInfo{Slot: i + 1, Channel: da.Channel, Power: da.Power, Outcome: env.OutcomeSuccess}
	}
}

func TestDQNTrainValidation(t *testing.T) {
	acfg := DefaultDQNAgentConfig(16, 10, 4)
	acfg.Hidden = []int{8}
	a, err := NewDQNAgent(acfg)
	if err != nil {
		t.Fatal(err)
	}
	e, err := env.New(env.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Train(e, 0); err == nil {
		t.Fatal("0 slots: expected error")
	}
	small := env.DefaultConfig()
	small.Channels = 8
	small.SweepWidth = 2
	e2, err := env.New(small)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Train(e2, 10); err == nil {
		t.Fatal("mismatched env: expected error")
	}
}

func TestMDPAgentRandomModeUsesPC(t *testing.T) {
	// Under a random-power jammer the hybrid scheme should adopt power
	// control (AP > 0) because duels are winnable, per Fig. 7(b).
	cfg := env.DefaultConfig()
	cfg.JammerMode = jammer.ModeRandom
	cfg.Seed = 31
	model, err := NewModel(ParamsFromEnv(cfg))
	if err != nil {
		t.Fatal(err)
	}
	agent, err := NewMDPAgent(model, nil, 16, 4)
	if err != nil {
		t.Fatal(err)
	}
	c := runAgent(t, cfg, agent, 20000)
	if c.AP() == 0 {
		t.Fatal("random-mode MDP agent never used power control")
	}
	if c.ST() < 0.70 {
		t.Fatalf("random-mode MDP ST = %.3f, expected >= 0.70", c.ST())
	}
}
