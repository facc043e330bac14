package ctjam

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"ctjam/internal/ckpt"
)

// TestCheckpointRotationResume covers the generational checkpoint store:
// with Keep set, -checkpoint is a directory of ckpt-NNNNNN.ctdq files, GC
// retains only the newest Keep generations, and resume falls back past a
// corrupt newest generation — still finishing bit-identical to a run that
// never stopped.
func TestCheckpointRotationResume(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Seed = 11
	const slots = 3000

	full, err := TrainDQNWithOptions(cfg, slots, TrainOptions{})
	if err != nil {
		t.Fatal(err)
	}

	dir := filepath.Join(t.TempDir(), "ckpts")
	if _, err := TrainDQNWithOptions(cfg, slots, TrainOptions{
		Checkpoint: dir, CheckpointEvery: 500, Keep: 2, StopAfter: 1700,
	}); err != nil {
		t.Fatal(err)
	}

	// Generations were written at 500, 1000, 1500 and 1700; GC must have
	// pruned down to the newest two.
	entries, err := ckpt.List(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 {
		t.Fatalf("expected 2 retained generations, found %d: %+v", len(entries), entries)
	}
	if entries[0].Slot != 1500 || entries[1].Slot != 1700 {
		t.Fatalf("unexpected generations: %+v", entries)
	}

	// Corrupt the newest generation; resume must fall back to slot 1500.
	if err := os.WriteFile(entries[1].Path, []byte("torn write"), 0o644); err != nil {
		t.Fatal(err)
	}
	resumed, err := TrainDQNWithOptions(cfg, slots, TrainOptions{
		Checkpoint: dir, CheckpointEvery: 500, Keep: 2, Resume: true,
	})
	if err != nil {
		t.Fatal(err)
	}

	var a, b bytes.Buffer
	if err := full.Save(&a); err != nil {
		t.Fatal(err)
	}
	if err := resumed.Save(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("resumed network differs from uninterrupted run")
	}

	// The completed run checkpointed its final state too, and GC kept the
	// directory bounded.
	entries, err = ckpt.List(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) > 2 {
		t.Fatalf("GC left %d generations, want <= 2: %+v", len(entries), entries)
	}
}

// TestCheckpointRotationAllCorrupt: when every retained generation is
// unreadable, resume must fail loudly rather than silently restart.
func TestCheckpointRotationAllCorrupt(t *testing.T) {
	cfg := DefaultConfig()
	const slots = 2000
	dir := filepath.Join(t.TempDir(), "ckpts")
	if _, err := TrainDQNWithOptions(cfg, slots, TrainOptions{
		Checkpoint: dir, CheckpointEvery: 500, Keep: 2, StopAfter: 1200,
	}); err != nil {
		t.Fatal(err)
	}
	entries, err := ckpt.List(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if err := os.WriteFile(e.Path, []byte("junk"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := TrainDQNWithOptions(cfg, slots, TrainOptions{
		Checkpoint: dir, CheckpointEvery: 500, Keep: 2, Resume: true,
	}); err == nil {
		t.Fatal("expected an error when no generation is usable")
	}
}

// TestEvaluateBatchMatchesSerial pins the facade's batched evaluation to the
// serial Evaluate it replaces: same per-env seeds, same metrics, bitwise.
func TestEvaluateBatchMatchesSerial(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Seed = 3
	const (
		k     = 4
		slots = 1500
	)
	mdpPolicy, err := SolveMDP(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rlPolicy, err := TrainDQN(cfg, 300)
	if err != nil {
		t.Fatal(err)
	}
	qPolicy, err := TrainQLearning(cfg, 3000)
	if err != nil {
		t.Fatal(err)
	}
	policies := map[Scheme]*Policy{SchemeMDP: mdpPolicy, SchemeRL: rlPolicy, SchemeQLearning: qPolicy}
	for _, scheme := range []Scheme{SchemePassive, SchemeRandom, SchemeStatic, SchemeMDP, SchemeRL, SchemeQLearning} {
		pol := policies[scheme]
		batch, err := EvaluateBatch(cfg, scheme, pol, k, slots)
		if err != nil {
			t.Fatalf("%s: %v", scheme, err)
		}
		if len(batch) != k {
			t.Fatalf("%s: got %d metrics for %d envs", scheme, len(batch), k)
		}
		for i := 0; i < k; i++ {
			ci := cfg
			ci.Seed = cfg.Seed + int64(i)
			serial, err := Evaluate(ci, scheme, pol, slots)
			if err != nil {
				t.Fatalf("%s env %d: %v", scheme, i, err)
			}
			if batch[i] != serial {
				t.Fatalf("%s env %d: batch %+v != serial %+v", scheme, i, batch[i], serial)
			}
		}
	}
}
