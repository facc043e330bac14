package rl

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
	"testing"
	"time"
)

func smallDQN(t *testing.T, seed int64) *DQN {
	t.Helper()
	cfg := DefaultDQNConfig(4, 3)
	cfg.Hidden = []int{8}
	cfg.BufferCapacity = 64
	cfg.WarmupSize = 8
	cfg.BatchSize = 4
	cfg.TargetSyncEvery = 5
	cfg.Seed = seed
	d, err := NewDQN(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// drive feeds n synthetic transitions (select + observe) and returns the
// resulting action sequence, which is sensitive to every piece of learner
// state: weights, optimizer, buffer, counters and RNG.
func drive(t *testing.T, d *DQN, n int, tag int64) []int {
	t.Helper()
	gen := rand.New(rand.NewSource(tag))
	state := []float64{0, 0, 0, 0}
	actions := make([]int, 0, n)
	for i := 0; i < n; i++ {
		a, err := d.SelectAction(state)
		if err != nil {
			t.Fatal(err)
		}
		actions = append(actions, a)
		next := []float64{gen.Float64(), gen.Float64(), gen.Float64(), gen.Float64()}
		if _, err := d.Observe(Transition{
			State:  append([]float64(nil), state...),
			Action: a,
			Reward: gen.Float64() - 0.5,
			Next:   next,
		}); err != nil {
			t.Fatal(err)
		}
		state = next
	}
	return actions
}

func TestSaveLoadStateResumesBitIdentically(t *testing.T) {
	ref := smallDQN(t, 5)
	drive(t, ref, 40, 7)
	var snap bytes.Buffer
	if err := ref.SaveState(&snap); err != nil {
		t.Fatal(err)
	}
	want := drive(t, ref, 40, 8)

	// Fresh learner, different seed: everything must come from the snapshot.
	resumed := smallDQN(t, 6)
	drive(t, resumed, 13, 9)
	if err := resumed.LoadState(bytes.NewReader(snap.Bytes())); err != nil {
		t.Fatal(err)
	}
	got := drive(t, resumed, 40, 8)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("action %d after restore: %d != %d", i, got[i], want[i])
		}
	}

	// And the snapshots of both learners now agree byte for byte.
	var a, b bytes.Buffer
	if err := ref.SaveState(&a); err != nil {
		t.Fatal(err)
	}
	if err := resumed.SaveState(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("post-restore snapshots differ")
	}
}

func TestLoadStateRejectsCorruptStreams(t *testing.T) {
	ref := smallDQN(t, 5)
	drive(t, ref, 30, 7)
	var snap bytes.Buffer
	if err := ref.SaveState(&snap); err != nil {
		t.Fatal(err)
	}
	good := snap.Bytes()

	fresh := smallDQN(t, 5)
	if err := fresh.LoadState(bytes.NewReader(nil)); err == nil {
		t.Fatal("empty stream accepted")
	}
	if err := fresh.LoadState(bytes.NewReader(good[:20])); err == nil {
		t.Fatal("truncated stream accepted")
	}
	bad := append([]byte(nil), good...)
	bad[0] ^= 0xFF
	if err := fresh.LoadState(bytes.NewReader(bad)); !errors.Is(err, ErrBadCheckpoint) {
		t.Fatalf("bad magic: got %v", err)
	}

	// Dimension mismatch: a learner with a different architecture.
	cfg := DefaultDQNConfig(5, 3)
	cfg.Hidden = []int{8}
	other, err := NewDQN(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := other.LoadState(bytes.NewReader(good)); !errors.Is(err, ErrBadCheckpoint) {
		t.Fatalf("dim mismatch: got %v", err)
	}

	// A failed load must leave the learner usable and unchanged.
	var before, after bytes.Buffer
	if err := ref.SaveState(&before); err != nil {
		t.Fatal(err)
	}
	if err := ref.LoadState(bytes.NewReader(good[:len(good)-3])); err == nil {
		t.Fatal("truncated tail accepted")
	}
	if err := ref.SaveState(&after); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before.Bytes(), after.Bytes()) {
		t.Fatal("failed load mutated the learner")
	}
}

// TestLoadStateRejectsUnreachableRNGPosition patches the CTDQ header's RNG
// position: any value past what the header's step counters allow must fail
// with ErrBadCheckpoint at once, before a single draw is replayed, and
// leave the learner unchanged; the largest allowed value still loads.
func TestLoadStateRejectsUnreachableRNGPosition(t *testing.T) {
	// Header: 8-byte magic+version, two uint32 dims, then the uint64
	// envSteps, trainSteps, rngSeed and rngState.
	const (
		envStepsAt = 16
		rngStateAt = 40
	)
	snapshot := func(d *DQN) []byte {
		var b bytes.Buffer
		if err := d.SaveState(&b); err != nil {
			t.Fatal(err)
		}
		return b.Bytes()
	}
	untrained := smallDQN(t, 5)
	trained := smallDQN(t, 5)
	drive(t, trained, 30, 7)
	limit := trained.maxRNGState(uint64(trained.EnvSteps()), uint64(trained.TrainSteps()))
	if got := trained.rngSrc.State(); got > limit/2 {
		t.Fatalf("30 steps took %d draws, over half the %d bound", got, limit)
	}
	for _, tc := range []struct {
		name     string
		from     *DQN
		envSteps uint64 // 0 keeps the saved counter
		rngState uint64
		ok       bool
	}{
		{"0-step learner at 2^30", untrained, 0, 1 << 30, false},
		{"0-step learner near 2^63", untrained, 0, 1<<63 - 1, false},
		{"trained learner one past its bound", trained, 0, limit + 1, false},
		{"trained learner at its bound", trained, 0, limit, true},
		{"counters at their cap, position past it", trained, 1 << 40, 1<<64 - 1, false},
	} {
		data := append([]byte(nil), snapshot(tc.from)...)
		if tc.envSteps != 0 {
			binary.LittleEndian.PutUint64(data[envStepsAt:], tc.envSteps)
		}
		binary.LittleEndian.PutUint64(data[rngStateAt:], tc.rngState)
		d := smallDQN(t, 9)
		before := snapshot(d)
		start := time.Now()
		err := d.LoadState(bytes.NewReader(data))
		elapsed := time.Since(start)
		if tc.ok {
			if err != nil {
				t.Errorf("%s: %v", tc.name, err)
			}
			continue
		}
		if !errors.Is(err, ErrBadCheckpoint) {
			t.Errorf("%s: got %v, want ErrBadCheckpoint", tc.name, err)
		}
		if elapsed > time.Second {
			t.Errorf("%s: rejection took %v", tc.name, elapsed)
		}
		if !bytes.Equal(snapshot(d), before) {
			t.Errorf("%s: failed load mutated the learner", tc.name)
		}
	}
}
