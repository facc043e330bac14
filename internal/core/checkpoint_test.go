package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"runtime"
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

// countingWriter counts the Write calls it receives and the bytes in them.
type countingWriter struct{ writes, bytes int }

func (w *countingWriter) Write(p []byte) (int, error) {
	w.writes++
	w.bytes += len(p)
	return len(p), nil
}

// TestSaveTrainingWriteCount: SaveTraining buffers its stream, so writing a
// checkpoint straight to a file costs about one write per 4 KB, not one per
// field.
func TestSaveTrainingWriteCount(t *testing.T) {
	agent, e := trainWrapped(t, 200) // 200 slots fill the 128-entry replay ring
	var w countingWriter
	if err := agent.SaveTraining(&w, e, TrainingCursor{Slot: 200}); err != nil {
		t.Fatal(err)
	}
	if limit := (w.bytes+4095)/4096 + 1; w.writes > limit {
		t.Fatalf("SaveTraining issued %d writes for %d bytes, want at most %d", w.writes, w.bytes, limit)
	}
}

// cttcPrelude returns the start of a CTTC stream: header, cursor and a
// history length field claiming histLen values, none of which follow.
func cttcPrelude(histLen uint32) []byte {
	b := binary.LittleEndian.AppendUint32(nil, trainMagic)
	b = binary.LittleEndian.AppendUint32(b, trainVersion)
	b = binary.LittleEndian.AppendUint64(b, 0)
	b = binary.LittleEndian.AppendUint64(b, 0)
	return binary.LittleEndian.AppendUint32(b, histLen)
}

// nestedJammerPrelude returns a CTTC stream with an empty history and an
// environment whose jammer state nests depth levels deep; the innermost
// level claims ints int values, none of which follow.
func nestedJammerPrelude(depth int, ints uint32) []byte {
	b := cttcPrelude(0)
	b = binary.LittleEndian.AppendUint64(b, 0) // env RNG position
	b = binary.LittleEndian.AppendUint32(b, 0) // channel
	b = binary.LittleEndian.AppendUint64(b, 0) // slot
	b = append(b, 0)                           // started
	for i := 1; i < depth; i++ {
		b = append(b, make([]byte, 12)...) // empty kind, no ints, no floats
		b = append(b, 1)                   // an inner state follows
	}
	b = binary.LittleEndian.AppendUint32(b, 0)
	return binary.LittleEndian.AppendUint32(b, ints)
}

// TestLoadTrainingOversizedHeaderAllocatesLittle: a CTTC prelude whose
// counts claim far more values than the stream holds must fail having
// allocated about what the stream supplied, not what the counts claimed.
func TestLoadTrainingOversizedHeaderAllocatesLittle(t *testing.T) {
	for _, tc := range []struct {
		name string
		data []byte
	}{
		{"2^20 history values", cttcPrelude(1 << 20)},
		{"65536 jammer ints at depth 8", nestedJammerPrelude(maxJamNesting, maxJamPayload)},
	} {
		agent, e := trainWrapped(t, 0)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := agent.LoadTraining(bytes.NewReader(tc.data), e)
		runtime.ReadMemStats(&after)
		if !errors.Is(err, ErrBadTrainingCheckpoint) {
			t.Fatalf("%s: err %v, want ErrBadTrainingCheckpoint", tc.name, err)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got > 64<<10 {
			t.Errorf("%s: rejecting a %d-byte stream allocated %d bytes", tc.name, len(tc.data), got)
		}
	}
}
