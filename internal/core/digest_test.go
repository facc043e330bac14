package core

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"ctjam/internal/env"
)

// trainWrapped trains a small agent for a fixed number of slots against a
// budget jammer wrapping an adaptive one, so a training checkpoint of it
// carries a nested jammer state as well as a partly filled replay ring.
func trainWrapped(t testing.TB, slots int) (*DQNAgent, *env.Environment) {
	t.Helper()
	cfg := env.DefaultConfig()
	cfg.Channels, cfg.SweepWidth = 8, 2
	cfg.TxPowers, cfg.JamPowers = []float64{6, 15}, []float64{11, 20}
	cfg.Jammer = "budget:duty=0.5,burst=3,over=(adaptive:alpha=0.2)"
	cfg.Seed = 3
	e, err := env.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	acfg := DefaultDQNAgentConfig(cfg.Channels, len(cfg.TxPowers), cfg.SweepWidth)
	acfg.HistoryLen = 2
	acfg.Hidden = []int{6}
	acfg.WarmupSize = 16
	acfg.BufferCapacity = 128
	acfg.BatchSize = 4
	acfg.Seed = 9
	agent, err := NewDQNAgent(acfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := agent.TrainRange(e, 0, slots, nil); err != nil {
		t.Fatal(err)
	}
	return agent, e
}

// TestTrainingCheckpointDigest pins the SHA-256 of the CTTC stream
// SaveTraining writes after a short fixed-seed run: the loop cursor, the
// history window, the environment with its nested jammer state and the
// embedded CTDQ learner state.
func TestTrainingCheckpointDigest(t *testing.T) {
	agent, e := trainWrapped(t, 100)
	if e.State().Jammer.Inner == nil || agent.dqn.TrainSteps() == 0 {
		t.Fatal("the run left no nested jammer state or no training step")
	}
	h := sha256.New()
	if err := agent.SaveTraining(h, e, TrainingCursor{Slot: 100, TotalReward: 12.5}); err != nil {
		t.Fatal(err)
	}
	const want = "9ba4343a71342621fdcb020b58dc0a9e5a8d64cb9d865d1ed451cfb1f4d84d3c"
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Fatalf("CTTC stream SHA-256 = %s, want %s", got, want)
	}
}
