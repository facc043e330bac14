package env

import (
	"testing"
	"time"

	"ctjam/internal/fault"
	"ctjam/internal/jammer"
	"ctjam/internal/rng"
)

// stayAgent never defends: fixed channel, lowest power.
type stayAgent struct{}

func (stayAgent) Name() string               { return "stay" }
func (stayAgent) Reset(*rng.Source)          {}
func (stayAgent) Decide(p SlotInfo) Decision { return Decision{Channel: p.Channel, Power: 0} }

// scripted drives the environment with a deterministic channel/power pattern.
func scripted(e *Environment, slots int) []StepResult {
	out := make([]StepResult, 0, slots)
	for i := 0; i < slots; i++ {
		ch := (i * 7) % e.NumChannels()
		pw := i % e.NumPowers()
		res, err := e.Step(ch, pw)
		if err != nil {
			panic(err)
		}
		out = append(out, res)
	}
	return out
}

func TestStateRestoreContinuesIdentically(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Seed = 13

	e1, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	scripted(e1, 500)
	snap := e1.State()
	want := scripted(e1, 500)

	e2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Perturb e2 so the restore provably overwrites everything.
	scripted(e2, 123)
	if err := e2.SetState(snap); err != nil {
		t.Fatal(err)
	}
	got := scripted(e2, 500)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("slot %d after restore: %+v != %+v", i, got[i], want[i])
		}
	}
}

func TestSetStateRejectsInvalid(t *testing.T) {
	cfg := DefaultConfig()
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	base := e.State()

	bad := base
	bad.Channel = cfg.Channels
	if err := e.SetState(bad); err == nil {
		t.Fatal("out-of-range channel accepted")
	}
	bad = base
	bad.Slot = -1
	if err := e.SetState(bad); err == nil {
		t.Fatal("negative slot accepted")
	}
	bad = base
	bad.Jammer = jammer.State{Kind: jammer.KindSweep, Ints: []int64{0, 0, 99}}
	if err := e.SetState(bad); err == nil {
		t.Fatal("out-of-range sweeper block accepted")
	}
	bad = base
	bad.Jammer = jammer.State{Kind: jammer.KindSweep, Ints: []int64{1, -2}}
	if err := e.SetState(bad); err == nil {
		t.Fatal("invalid lock block accepted")
	}
	bad = base
	bad.Jammer = jammer.State{Kind: "reactive", Ints: []int64{0, 0}}
	if err := e.SetState(bad); err == nil {
		t.Fatal("wrong-kind jammer state accepted")
	}
}

// TestSetStateRejectsUnreachableRNGPosition: a position past what the
// snapshot's slot count allows is refused before any replay, so a crafted
// one cannot hang the restore; the largest reachable one is accepted.
func TestSetStateRejectsUnreachableRNGPosition(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Jammer = "adaptive:explore=0.5"
	cfg.JammerMode = jammer.ModeRandom
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	scripted(e, 300)
	base := e.State()
	if limit := maxRNGState(base.Slot); base.RNG > limit/2 {
		t.Fatalf("300 slots took %d draws, over half the %d bound", base.RNG, limit)
	}
	for _, tc := range []struct {
		name string
		rng  uint64
		ok   bool
	}{
		{"live", base.RNG, true},
		{"at the bound", maxRNGState(base.Slot), true},
		{"one past the bound", maxRNGState(base.Slot) + 1, false},
		{"2^30", 1 << 30, false},
		{"near 2^64", 1<<64 - 1, false},
	} {
		st := base
		st.RNG = tc.rng
		start := time.Now()
		err := e.SetState(st)
		if (err == nil) != tc.ok {
			t.Errorf("%s: SetState(RNG=%d) = %v, want ok=%v", tc.name, tc.rng, err, tc.ok)
		}
		if !tc.ok && time.Since(start) > time.Second {
			t.Errorf("%s: rejection took %v", tc.name, time.Since(start))
		}
	}
}

// Burst noise must be able to fail a slot the jammer missed, and the result
// must count as a jam loss so the metrics invariants keep holding.
func TestBurstNoiseFailsUnjammedSlots(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Faults = fault.BurstNoise{Seed: 1, Prob: 1, Len: 1, Power: 1000}
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		res, err := e.Step(i%cfg.Channels, 0)
		if err != nil {
			t.Fatal(err)
		}
		if res.Outcome != OutcomeJammed {
			t.Fatalf("slot %d: outcome %v under overwhelming noise", i, res.Outcome)
		}
	}
}

func TestBurstNoiseSurvivableAtHighPower(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Faults = fault.BurstNoise{Seed: 1, Prob: 1, Len: 1, Power: cfg.TxPowers[len(cfg.TxPowers)-1]}
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sawSurvived := false
	for i := 0; i < 200; i++ {
		res, err := e.Step(i%cfg.Channels, len(cfg.TxPowers)-1)
		if err != nil {
			t.Fatal(err)
		}
		if res.Outcome == OutcomeJammedSurvived {
			sawSurvived = true
		}
		if res.Outcome == OutcomeSuccess {
			t.Fatalf("slot %d: clean success while noise floor equals tx power", i)
		}
	}
	if !sawSurvived {
		t.Fatal("max tx power never survived equal-power noise")
	}
}

func TestAckLossDegradesOutcome(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Faults = fault.AckLoss{Seed: 1, Prob: 1}
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		res, err := e.Step(i%cfg.Channels, len(cfg.TxPowers)-1)
		if err != nil {
			t.Fatal(err)
		}
		if res.Outcome != OutcomeJammed {
			t.Fatalf("slot %d: outcome %v with every ACK lost", i, res.Outcome)
		}
	}
}

// The metrics invariants must survive arbitrary fault mixes end to end.
func TestRunWithFaultsKeepsInvariants(t *testing.T) {
	inj, err := fault.Parse("burst:p=0.2,power=30;ack:p=0.1", 3)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Seed = 3
	cfg.Faults = inj
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c, err := Run(e, stayAgent{}, 5000)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Validate(); err != nil {
		t.Fatalf("counters invalid under faults: %v", err)
	}
	// With p=0.2 bursts above every tx power plus jamming, the static
	// agent must lose strictly more slots than in a clean run.
	clean := DefaultConfig()
	clean.Seed = 3
	e2, err := New(clean)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := Run(e2, stayAgent{}, 5000)
	if err != nil {
		t.Fatal(err)
	}
	if c.JamLosses <= c2.JamLosses {
		t.Fatalf("faulted run lost %d slots, clean run %d", c.JamLosses, c2.JamLosses)
	}
}
