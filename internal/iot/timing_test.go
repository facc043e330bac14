package iot

import (
	"testing"
	"time"

	"ctjam/internal/policy"
	"ctjam/internal/rng"
)

func TestTimingValidateEdgeCases(t *testing.T) {
	tests := []struct {
		name   string
		mutate func(*Timing)
	}{
		{"negative dqn", func(tm *Timing) { tm.DQNDecision = -time.Millisecond }},
		{"negative poll", func(tm *Timing) { tm.PollPerNode = -time.Millisecond }},
		{"negative ack", func(tm *Timing) { tm.AckRTT = -time.Millisecond }},
		{"negative processing", func(tm *Timing) { tm.Processing = -time.Millisecond }},
		{"negative lbt", func(tm *Timing) { tm.LBT = -time.Millisecond }},
		{"negative airtime", func(tm *Timing) { tm.PacketAirtime = -time.Millisecond }},
		{"zero airtime", func(tm *Timing) { tm.PacketAirtime = 0 }},
		{"negative off-channel prob", func(tm *Timing) { tm.OffChannelProb = -0.1 }},
		{"off-channel prob above 1", func(tm *Timing) { tm.OffChannelProb = 1.1 }},
		{"negative recovery min", func(tm *Timing) { tm.RecoveryMin = -time.Millisecond }},
		{"inverted recovery window", func(tm *Timing) { tm.RecoveryMin = 2 * tm.RecoveryMax }},
		{"negative jitter", func(tm *Timing) { tm.Jitter = -0.1 }},
		{"jitter above half", func(tm *Timing) { tm.Jitter = 0.6 }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			tm := DefaultTiming()
			tt.mutate(&tm)
			if err := tm.Validate(); err == nil {
				t.Fatal("expected error")
			}
		})
	}
}

func TestTimingSample(t *testing.T) {
	tm := DefaultTiming()
	src := rng.NewSource(1)

	// Zero jitter and zero nominal both bypass the draw entirely.
	noJitter := tm
	noJitter.Jitter = 0
	if got := noJitter.sample(time.Second, src); got != time.Second {
		t.Errorf("zero jitter: sample = %v, want 1s", got)
	}
	if got := tm.sample(0, src); got != 0 {
		t.Errorf("zero nominal: sample = %v, want 0", got)
	}

	// At maximal jitter the factor clamps at 0.5: a sample can never drop
	// below half the nominal (and so never goes negative).
	wild := tm
	wild.Jitter = 0.5
	for i := 0; i < 10000; i++ {
		got := wild.sample(time.Second, src)
		if got < 500*time.Millisecond {
			t.Fatalf("sample %v fell below the 0.5 clamp", got)
		}
	}
}

func TestSampleRecovery(t *testing.T) {
	tm := DefaultTiming()
	src := rng.NewSource(1)

	degenerate := tm
	degenerate.RecoveryMin = 700 * time.Millisecond
	degenerate.RecoveryMax = 700 * time.Millisecond
	if got := degenerate.sampleRecovery(src); got != 700*time.Millisecond {
		t.Errorf("degenerate window: recovery = %v, want 700ms", got)
	}

	for i := 0; i < 1000; i++ {
		got := tm.sampleRecovery(src)
		if got < tm.RecoveryMin || got >= tm.RecoveryMax {
			t.Fatalf("recovery %v outside [%v,%v)", got, tm.RecoveryMin, tm.RecoveryMax)
		}
	}
}

// TestOverheadExceedsSlot pins the clamp: when polling overhead alone
// outruns the Tx slot, the slot carries no data — zero packets, zero
// utilization, overhead capped at the slot duration — instead of going
// negative or panicking.
func TestOverheadExceedsSlot(t *testing.T) {
	cfg := DefaultConfig()
	cfg.JammerEnabled = false
	cfg.SlotDuration = 10 * time.Millisecond // default overhead is ~48 ms
	cfg.JammerSlot = 10 * time.Millisecond
	sim, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	run, err := sim.Run(policy.StaticScheme().NewAgent(), 20)
	if err != nil {
		t.Fatal(err)
	}
	if run.Delivered != 0 || run.Attempted != 0 {
		t.Errorf("overloaded slot still moved data: attempted=%d delivered=%d", run.Attempted, run.Delivered)
	}
	if run.MeanUtilization != 0 {
		t.Errorf("mean utilization = %v, want 0", run.MeanUtilization)
	}
	if run.MeanOverhead != cfg.SlotDuration {
		t.Errorf("mean overhead = %v, want clamp at %v", run.MeanOverhead, cfg.SlotDuration)
	}
}

// TestDriftStretchedOverheadExceedsSlot covers the same clamp reached through
// clock drift: nominal overhead fits the slot, but the drifted stretch pushes
// it past the boundary.
func TestDriftStretchedOverheadExceedsSlot(t *testing.T) {
	cfg := DefaultConfig()
	cfg.JammerEnabled = false
	cfg.SlotDuration = 60 * time.Millisecond // ~48 ms nominal overhead fits...
	cfg.JammerSlot = 60 * time.Millisecond
	cfg.Faults = fixedDrift{d: 0.5} // ...but a 1.5x clock stretch does not
	sim, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	run, err := sim.Run(policy.StaticScheme().NewAgent(), 20)
	if err != nil {
		t.Fatal(err)
	}
	if run.Delivered != 0 {
		t.Errorf("drift-saturated slots still delivered %d packets", run.Delivered)
	}
	if run.MeanOverhead != cfg.SlotDuration {
		t.Errorf("mean overhead = %v, want clamp at %v", run.MeanOverhead, cfg.SlotDuration)
	}
}
