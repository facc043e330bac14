package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"
	"time"

	"ctjam/internal/env"
	"ctjam/internal/rl"
)

// TestLoadTrainingRejectsUnreachableRNGPosition patches the RNG positions
// of a CTTC stream: an environment or learner position past what the
// stream's own slot and step counters allow must fail at once, with
// ErrBadTrainingCheckpoint or the learner's rl.ErrBadCheckpoint, instead of
// replaying the draws.
func TestLoadTrainingRejectsUnreachableRNGPosition(t *testing.T) {
	cfg := env.DefaultConfig()
	cfg.Channels, cfg.SweepWidth = 8, 2
	cfg.TxPowers, cfg.JamPowers = []float64{6, 15}, []float64{11, 20}
	build := func() (*DQNAgent, *env.Environment) {
		e, err := env.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		acfg := DefaultDQNAgentConfig(cfg.Channels, len(cfg.TxPowers), cfg.SweepWidth)
		acfg.HistoryLen = 2
		acfg.Hidden = []int{4}
		acfg.WarmupSize = 16
		acfg.BufferCapacity = 64
		acfg.BatchSize = 8
		agent, err := NewDQNAgent(acfg)
		if err != nil {
			t.Fatal(err)
		}
		return agent, e
	}
	agent, e := build()
	if _, err := agent.Train(e, 60); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := agent.SaveTraining(&buf, e, TrainingCursor{Slot: 60}); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()

	// Prelude: 8-byte magic+version, slot, reward, history length and
	// history, then the env RNG position. The CTDQ learner header closes
	// the stream's fixed part: its RNG position sits 40 bytes into it,
	// right after the jammer state.
	envRNGAt := 8 + 8 + 8 + 4 + 8*int(binary.LittleEndian.Uint32(good[24:]))
	ctdqAt := bytes.Index(good, []byte("QDTC"))
	if ctdqAt < 0 {
		t.Fatal("no CTDQ header in the stream")
	}
	for _, tc := range []struct {
		name string
		at   int
		pos  uint64
		want error
	}{
		{"env position 2^30", envRNGAt, 1 << 30, ErrBadTrainingCheckpoint},
		{"env position near 2^64", envRNGAt, 1<<64 - 1, ErrBadTrainingCheckpoint},
		{"learner position 2^30", ctdqAt + 40, 1 << 30, rl.ErrBadCheckpoint},
	} {
		data := append([]byte(nil), good...)
		binary.LittleEndian.PutUint64(data[tc.at:], tc.pos)
		a, e := build()
		start := time.Now()
		_, err := a.LoadTraining(bytes.NewReader(data), e)
		if !errors.Is(err, tc.want) {
			t.Errorf("%s: got %v, want %v", tc.name, err, tc.want)
		}
		if d := time.Since(start); d > time.Second {
			t.Errorf("%s: rejection took %v", tc.name, d)
		}
	}
	a, e2 := build()
	if _, err := a.LoadTraining(bytes.NewReader(good), e2); err != nil {
		t.Fatalf("unpatched stream: %v", err)
	}
}
