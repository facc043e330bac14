package env

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"ctjam/internal/fault"
	"ctjam/internal/jammer"
	"ctjam/internal/rng"
)

func TestDefaultConfig(t *testing.T) {
	cfg := DefaultConfig()
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	if cfg.SweepCycle() != 4 {
		t.Fatalf("sweep cycle = %d, want 4", cfg.SweepCycle())
	}
	if cfg.TxPowers[0] != 6 || cfg.TxPowers[9] != 15 {
		t.Fatalf("tx powers = %v", cfg.TxPowers)
	}
	if cfg.JamPowers[0] != 11 || cfg.JamPowers[9] != 20 {
		t.Fatalf("jam powers = %v", cfg.JamPowers)
	}
}

func TestConfigValidation(t *testing.T) {
	base := DefaultConfig()
	tests := []struct {
		name   string
		mutate func(*Config)
	}{
		{"one channel", func(c *Config) { c.Channels = 1 }},
		{"zero width", func(c *Config) { c.SweepWidth = 0 }},
		{"width too big", func(c *Config) { c.SweepWidth = 17 }},
		{"no tx powers", func(c *Config) { c.TxPowers = nil }},
		{"no jam powers", func(c *Config) { c.JamPowers = nil }},
		{"descending tx powers", func(c *Config) { c.TxPowers = []float64{5, 3} }},
		{"negative loss", func(c *Config) { c.LossHop = -1 }},
		{"bad mode", func(c *Config) { c.JammerMode = 0 }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			cfg := base
			tt.mutate(&cfg)
			if _, err := New(cfg); err == nil {
				t.Fatal("expected error")
			}
		})
	}
}

func TestOutcomeString(t *testing.T) {
	if OutcomeSuccess.String() != "success" ||
		OutcomeJammedSurvived.String() != "jammed-survived" ||
		OutcomeJammed.String() != "jammed" {
		t.Fatal("outcome strings wrong")
	}
	if !strings.Contains(Outcome(9).String(), "9") {
		t.Fatal("unknown outcome string wrong")
	}
	if !OutcomeSuccess.Succeeded() || !OutcomeJammedSurvived.Succeeded() || OutcomeJammed.Succeeded() {
		t.Fatal("Succeeded() wrong")
	}
}

func TestStepValidation(t *testing.T) {
	e, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Step(-1, 0); err == nil {
		t.Fatal("bad channel: expected error")
	}
	if _, err := e.Step(16, 0); err == nil {
		t.Fatal("channel 16: expected error")
	}
	if _, err := e.Step(0, 10); err == nil {
		t.Fatal("bad power: expected error")
	}
}

func TestResetIsDeterministic(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Seed = 42
	e1, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	e2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		ch := i % 16
		r1, err := e1.Step(ch, 3)
		if err != nil {
			t.Fatal(err)
		}
		r2, err := e2.Step(ch, 3)
		if err != nil {
			t.Fatal(err)
		}
		if r1 != r2 {
			t.Fatalf("slot %d diverged: %+v vs %+v", i, r1, r2)
		}
	}
	// Reset must restore the initial trajectory.
	e1.Reset()
	e3, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		r1, _ := e1.Step(2, 0)
		r3, _ := e3.Step(2, 0)
		if r1 != r3 {
			t.Fatalf("reset trajectory diverged at slot %d", i)
		}
	}
}

func TestRewardStructure(t *testing.T) {
	// With a max-power jammer, outcomes and rewards follow Eq. (5)
	// exactly.
	cfg := DefaultConfig()
	cfg.Seed = 7
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	start := e.CurrentChannel()
	res, err := e.Step(start, 2) // stay, power index 2 (L_p = 8)
	if err != nil {
		t.Fatal(err)
	}
	wantReward := -8.0
	if res.Outcome == OutcomeJammed {
		wantReward -= 100
	}
	if res.Hopped {
		t.Fatal("first step cannot hop")
	}
	if math.Abs(res.Reward-wantReward) > 1e-12 {
		t.Fatalf("reward = %v, want %v", res.Reward, wantReward)
	}
	// Now hop: pay L_H.
	next := (start + 5) % 16
	res, err = e.Step(next, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Hopped {
		t.Fatal("channel change must be a hop")
	}
	wantReward = -6.0 - 50
	if res.Outcome == OutcomeJammed {
		wantReward -= 100
	}
	if math.Abs(res.Reward-wantReward) > 1e-12 {
		t.Fatalf("hop reward = %v, want %v", res.Reward, wantReward)
	}
}

func TestMaxModeJammerAlwaysWinsDuel(t *testing.T) {
	// Under max mode the jammer's 20 beats every victim power (max 15):
	// any jammed slot must be OutcomeJammed.
	cfg := DefaultConfig()
	cfg.Seed = 9
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sawJam := false
	for i := 0; i < 200; i++ {
		res, err := e.Step(3, 9) // stay put at max power
		if err != nil {
			t.Fatal(err)
		}
		if res.Outcome == OutcomeJammedSurvived {
			t.Fatal("survived a max-power jam with L_p=15 < 20")
		}
		if res.Outcome == OutcomeJammed {
			sawJam = true
			if res.JamPower != 20 {
				t.Fatalf("jam power = %v, want 20", res.JamPower)
			}
		}
	}
	if !sawJam {
		t.Fatal("static victim was never jammed in 200 slots")
	}
}

func TestRandomModeDuelsCanBeWon(t *testing.T) {
	cfg := DefaultConfig()
	cfg.JammerMode = jammer.ModeRandom
	cfg.Seed = 11
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	survived, lost := 0, 0
	for i := 0; i < 2000; i++ {
		res, err := e.Step(3, 9) // L_p = 15 beats jam levels 11..15
		if err != nil {
			t.Fatal(err)
		}
		switch res.Outcome {
		case OutcomeJammedSurvived:
			survived++
		case OutcomeJammed:
			lost++
		}
	}
	if survived == 0 || lost == 0 {
		t.Fatalf("random mode should mix outcomes: survived=%d lost=%d", survived, lost)
	}
	// With L_p=15 the victim wins when tau in {11..15}: about half.
	frac := float64(survived) / float64(survived+lost)
	if frac < 0.3 || frac > 0.7 {
		t.Fatalf("duel win rate %.2f far from 0.5", frac)
	}
}

func TestStaticVictimJamRateMatchesSweepCycle(t *testing.T) {
	// A victim that never hops ends up jammed in nearly all slots after
	// discovery; the pre-lock discovery takes (S+1)/2 slots on average.
	cfg := DefaultConfig()
	cfg.Seed = 13
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	jammedSlots := 0
	const slots = 4000
	for i := 0; i < slots; i++ {
		res, err := e.Step(5, 0)
		if err != nil {
			t.Fatal(err)
		}
		if res.Outcome != OutcomeSuccess {
			jammedSlots++
		}
	}
	if frac := float64(jammedSlots) / slots; frac < 0.98 {
		t.Fatalf("static victim only jammed %.3f of slots; lock-on broken?", frac)
	}
}

// hopEverySlotAgent hops to the next channel *block* every slot at minimum
// power. Hopping within the jammer's 4-channel block would not escape a
// locked jammer; crossing blocks does.
type hopEverySlotAgent struct{ cur int }

func (a *hopEverySlotAgent) Name() string      { return "hop-always" }
func (a *hopEverySlotAgent) Reset(*rng.Source) { a.cur = 0 }
func (a *hopEverySlotAgent) Decide(prev SlotInfo) Decision {
	if prev.First {
		a.cur = prev.Channel
		return Decision{Channel: a.cur, Power: 0}
	}
	a.cur = (a.cur + 5) % 16 // +5 changes the 4-channel block every slot
	return Decision{Channel: a.cur, Power: 0}
}

// stayInBlockAgent hops every slot but never leaves its starting block.
type stayInBlockAgent struct{ cur int }

func (a *stayInBlockAgent) Name() string      { return "hop-in-block" }
func (a *stayInBlockAgent) Reset(*rng.Source) {}
func (a *stayInBlockAgent) Decide(prev SlotInfo) Decision {
	if prev.First {
		a.cur = prev.Channel
		return Decision{Channel: a.cur, Power: 0}
	}
	block := a.cur / 4
	a.cur = block*4 + (a.cur+1)%4
	return Decision{Channel: a.cur, Power: 0}
}

func TestRunProducesConsistentCounters(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Seed = 17
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c, err := Run(e, &hopEverySlotAgent{}, 3000)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	if c.Slots != 3000 {
		t.Fatalf("slots = %d", c.Slots)
	}
	// Hopping every slot: hops = slots - 1 (first slot cannot hop).
	if c.Hops != 2999 {
		t.Fatalf("hops = %d, want 2999", c.Hops)
	}
	// A per-slot cross-block hopper evades most jamming: ST well above
	// the static victim's ~0.
	if c.ST() < 0.6 {
		t.Fatalf("hop-always ST = %.3f, expected > 0.6", c.ST())
	}
}

func TestHoppingInsideJammedBlockDoesNotEscape(t *testing.T) {
	// Hops that stay within the jammer's 4-channel block must not evade
	// it: the wide-band jammer is exactly what makes CTJ dangerous.
	cfg := DefaultConfig()
	cfg.Seed = 19
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	inBlock, err := Run(e, &stayInBlockAgent{}, 3000)
	if err != nil {
		t.Fatal(err)
	}
	e2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	crossBlock, err := Run(e2, &hopEverySlotAgent{}, 3000)
	if err != nil {
		t.Fatal(err)
	}
	if inBlock.ST() > crossBlock.ST()-0.2 {
		t.Fatalf("in-block hopping ST %.3f should be far below cross-block %.3f",
			inBlock.ST(), crossBlock.ST())
	}
}

func TestRunValidation(t *testing.T) {
	e, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(e, &hopEverySlotAgent{}, 0); err == nil {
		t.Fatal("zero slots: expected error")
	}
}

func BenchmarkEnvironmentStep(b *testing.B) {
	e, err := New(DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Step(i%16, i%10); err != nil {
			b.Fatal(err)
		}
	}
}

func TestRunTraceMatchesCounters(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Seed = 23
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c, records, err := RunTrace(e, &hopEverySlotAgent{}, 500)
	if err != nil {
		t.Fatal(err)
	}
	if len(records) != 500 {
		t.Fatalf("trace has %d records, want 500", len(records))
	}
	// Rebuild the counters from the trace; they must agree.
	var successes, hops, jams int
	for i, r := range records {
		if r.Slot != i {
			t.Fatalf("record %d has slot %d", i, r.Slot)
		}
		if r.Outcome.Succeeded() {
			successes++
		}
		if r.Hopped {
			hops++
		}
		if r.Outcome != OutcomeSuccess {
			jams++
			if r.JamPower <= 0 {
				t.Fatalf("jammed record %d has jam power %v", i, r.JamPower)
			}
		}
	}
	if successes != c.Successes || hops != c.Hops || jams != c.JammedSlots {
		t.Fatalf("trace totals (%d,%d,%d) disagree with counters (%d,%d,%d)",
			successes, hops, jams, c.Successes, c.Hops, c.JammedSlots)
	}
	// Run and RunTrace share the same trajectory for the same seed.
	e2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := Run(e2, &hopEverySlotAgent{}, 500)
	if err != nil {
		t.Fatal(err)
	}
	if c != c2 {
		t.Fatalf("Run and RunTrace diverged: %+v vs %+v", c, c2)
	}
}

func TestRewardBoundsProperty(t *testing.T) {
	// Eq. (5): every reward lies in [-(maxP+L_H+L_J), -minP].
	cfg := DefaultConfig()
	cfg.JammerMode = jammer.ModeRandom
	cfg.Seed = 29
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(30))
	lo := -(cfg.TxPowers[9] + cfg.LossHop + cfg.LossJam)
	hi := -cfg.TxPowers[0]
	for i := 0; i < 5000; i++ {
		res, err := e.Step(rng.Intn(16), rng.Intn(10))
		if err != nil {
			t.Fatal(err)
		}
		if res.Reward < lo-1e-9 || res.Reward > hi+1e-9 {
			t.Fatalf("slot %d reward %v outside [%v,%v]", i, res.Reward, lo, hi)
		}
	}
}

func TestStepAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	chain := fault.Chain{
		fault.BurstNoise{Seed: 3, Prob: 0.3, Len: 4, Power: 14},
		fault.AckLoss{Seed: 5, Prob: 0.1},
	}
	for _, tt := range []struct {
		name   string
		faults fault.Injector
	}{{"no faults", nil}, {"fault chain", chain}} {
		t.Run(tt.name, func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.Faults = tt.faults
			e, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			var stepErr error
			ch := 0
			allocs := testing.AllocsPerRun(1000, func() {
				ch = (ch + 5) % cfg.Channels
				if _, err := e.Step(ch, ch%len(cfg.TxPowers)); err != nil {
					stepErr = err
				}
			})
			if stepErr != nil {
				t.Fatal(stepErr)
			}
			if allocs != 0 {
				t.Fatalf("Step allocates %v objects per slot, want 0", allocs)
			}
		})
	}
}

// TestBatchRunAllocs pins that the lockstep loop allocates only per run, never
// per slot: a BatchRun over links under every attacker kind makes as many
// allocations at 4000 slots as at 2000.
func TestBatchRunAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	var envs []*Environment
	var agents []Agent
	for i, spec := range []string{"", "reactive:delay=2,miss=0.1,hold=1", "adaptive", "budget:duty=0.5,burst=2"} {
		cfg := DefaultConfig()
		cfg.Jammer = spec
		cfg.JammerMode = jammer.ModeRandom
		cfg.Seed = int64(40 + i)
		e, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		envs = append(envs, e)
		if i%2 == 0 {
			agents = append(agents, &hopEverySlotAgent{})
		} else {
			agents = append(agents, stayAgent{})
		}
	}
	batch := &agentBatch{agents: agents}
	allocs := func(slots int) float64 {
		var runErr error
		n := testing.AllocsPerRun(5, func() {
			for _, e := range envs {
				e.Reset()
			}
			if _, err := BatchRun(envs, batch, slots); err != nil {
				runErr = err
			}
		})
		if runErr != nil {
			t.Fatal(runErr)
		}
		return n
	}
	if short, long := allocs(2000), allocs(4000); short != long {
		t.Fatalf("BatchRun makes %v allocations at 2000 slots, %v at 4000: the slot loop allocates", short, long)
	}
}
