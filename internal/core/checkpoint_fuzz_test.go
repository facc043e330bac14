package core

import (
	"bytes"
	"errors"
	"sort"
	"testing"

	"ctjam/internal/ckpt"
	"ctjam/internal/jammer"
	"ctjam/internal/nn"
	"ctjam/internal/rl"
)

// trainingSeeds returns a small valid CTTC stream of trainWrapped's agent and
// hostile variants of it: a truncated prelude, a truncated embedded CTDQ, a
// jammer state at the maximum nesting depth and one level deeper, an
// oversized history and a bad started flag.
func trainingSeeds(tb testing.TB) map[string][]byte {
	agent, e := trainWrapped(tb, 24)
	var buf bytes.Buffer
	if err := agent.SaveTraining(&buf, e, TrainingCursor{Slot: 24, TotalReward: 3}); err != nil {
		tb.Fatal(err)
	}
	valid := buf.Bytes()
	jamAt := len(cttcPrelude(uint32(3*agent.cfg.HistoryLen))) + 8*3*agent.cfg.HistoryLen + 21
	ctdqAt := bytes.Index(valid, []byte("QDTC"))
	if ctdqAt < 0 {
		tb.Fatal("no CTDQ header in the stream")
	}
	withJammer := func(depth int) []byte {
		st := jammer.State{Kind: "sweep"}
		for i := 1; i < depth; i++ {
			inner := st
			st = jammer.State{Kind: "budget", Ints: []int64{int64(i)}, Floats: []float64{0.5}, Inner: &inner}
		}
		var jb bytes.Buffer
		enc := ckpt.NewEncoder(&jb)
		encodeJammerState(enc, st)
		if err := enc.Close(); err != nil {
			tb.Fatal(err)
		}
		out := append([]byte(nil), valid[:jamAt]...)
		out = append(out, jb.Bytes()...)
		return append(out, valid[ctdqAt:]...)
	}
	badStarted := append([]byte(nil), valid...)
	badStarted[jamAt-1] = 2
	return map[string][]byte{
		"seed-valid":             valid,
		"seed-truncated-prelude": valid[:20],
		"seed-truncated-ctdq":    valid[:ctdqAt+60],
		"seed-jammer-depth-max":  withJammer(maxJamNesting),
		"seed-jammer-depth-over": withJammer(maxJamNesting + 1),
		"seed-oversized-history": cttcPrelude(1 << 20),
		"seed-bad-started-flag":  badStarted,
		"seed-bare-ctdq":         valid[ctdqAt:],
		"seed-empty":             {},
	}
}

// FuzzTrainingLoad feeds arbitrary bytes to both readers of the CTTC
// training checkpoint. Neither may panic. LoadTraining either fails with
// ErrBadTrainingCheckpoint or accepts a stream that SaveTraining writes
// back byte for byte; SnapshotFromCheckpoint, which also reads bare CTDQ
// and CTJM streams, fails with one of the three formats' sentinels or
// succeeds, and succeeds on whatever LoadTraining accepts.
func FuzzTrainingLoad(f *testing.F) {
	seeds := trainingSeeds(f)
	names := make([]string, 0, len(seeds))
	for name := range seeds {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		f.Add(seeds[name])
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		agent, e := trainWrapped(t, 0)
		r := bytes.NewReader(data)
		cur, loadErr := agent.LoadTraining(r, e)
		if loadErr != nil && !errors.Is(loadErr, ErrBadTrainingCheckpoint) {
			t.Fatalf("LoadTraining rejected with %v, want an ErrBadTrainingCheckpoint", loadErr)
		}
		_, snapErr := SnapshotFromCheckpoint(bytes.NewReader(data))
		if snapErr != nil && !errors.Is(snapErr, ErrBadTrainingCheckpoint) &&
			!errors.Is(snapErr, rl.ErrBadCheckpoint) && !errors.Is(snapErr, nn.ErrBadModelFile) {
			t.Fatalf("SnapshotFromCheckpoint rejected with %v, want a format sentinel", snapErr)
		}
		if loadErr != nil {
			return
		}
		if snapErr != nil {
			t.Fatalf("LoadTraining accepted what SnapshotFromCheckpoint rejects: %v", snapErr)
		}
		consumed := data[:len(data)-r.Len()]
		var out bytes.Buffer
		if err := agent.SaveTraining(&out, e, cur); err != nil {
			t.Fatalf("re-save after an accepted load: %v", err)
		}
		if !bytes.Equal(out.Bytes(), consumed) {
			t.Fatalf("accepted %d bytes re-save to %d different bytes", len(consumed), out.Len())
		}
	})
}
