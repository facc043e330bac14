package core

import (
	"bytes"
	"math/rand"
	"testing"

	"ctjam/internal/env"
)

// TestSnapshotFromCheckpoint loads the same trained network from all three
// on-disk formats and checks each snapshot picks the live learner's greedy
// actions. The CTTC stream carries a nested budget-over-reactive jammer
// state, so the prelude reader must walk a wrapper's inner state to reach
// the learner section.
func TestSnapshotFromCheckpoint(t *testing.T) {
	cfg := env.DefaultConfig()
	cfg.Channels, cfg.SweepWidth = 8, 2
	cfg.TxPowers, cfg.JamPowers = []float64{6, 15}, []float64{11, 20}
	cfg.Jammer = "budget:duty=0.5,burst=2,over=(reactive:delay=2,miss=0.1)"
	e, err := env.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	acfg := DefaultDQNAgentConfig(cfg.Channels, len(cfg.TxPowers), cfg.SweepWidth)
	acfg.HistoryLen = 2
	acfg.Hidden = []int{4}
	acfg.WarmupSize = 16
	acfg.BufferCapacity = 64
	agent, err := NewDQNAgent(acfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := agent.Train(e, 120); err != nil {
		t.Fatal(err)
	}
	if e.State().Jammer.Inner == nil {
		t.Fatal("jammer state has no inner state; the CTTC case would not cover nesting")
	}

	var ctjm, ctdq, cttc bytes.Buffer
	if err := agent.SaveModel(&ctjm); err != nil {
		t.Fatal(err)
	}
	if err := agent.dqn.SaveState(&ctdq); err != nil {
		t.Fatal(err)
	}
	if err := agent.SaveTraining(&cttc, e, TrainingCursor{Slot: 120}); err != nil {
		t.Fatal(err)
	}

	const n = 32
	rng := rand.New(rand.NewSource(3))
	states := make([]float64, n*3*acfg.HistoryLen)
	for i := range states {
		states[i] = rng.Float64()
	}
	want := make([]int, n)
	for i := range want {
		if want[i], err = agent.dqn.GreedyAction(states[i*3*acfg.HistoryLen : (i+1)*3*acfg.HistoryLen]); err != nil {
			t.Fatal(err)
		}
	}
	for name, stream := range map[string][]byte{"CTJM": ctjm.Bytes(), "CTDQ": ctdq.Bytes(), "CTTC": cttc.Bytes()} {
		snap, err := SnapshotFromCheckpoint(bytes.NewReader(stream))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got := make([]int, n)
		if err := snap.GreedyBatch(got, states); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("%s: state %d: snapshot action %d, live agent %d", name, i, got[i], want[i])
			}
		}
	}

	// The loader reads the CTTC prelude, the CTDQ header (4 uint32 and 4
	// uint64 fields) and the online network, which is the CTJM stream. Every
	// shorter prefix must fail cleanly; the full prefix must load.
	full := cttc.Bytes()
	needed := len(full) - ctdq.Len() + 4*4 + 4*8 + ctjm.Len()
	for i := 0; i < needed; i++ {
		if _, err := SnapshotFromCheckpoint(bytes.NewReader(full[:i])); err == nil {
			t.Fatalf("CTTC stream truncated to %d of %d bytes loaded without error", i, needed)
		}
	}
	if _, err := SnapshotFromCheckpoint(bytes.NewReader(full[:needed])); err != nil {
		t.Fatalf("CTTC prefix through the online network: %v", err)
	}
}
