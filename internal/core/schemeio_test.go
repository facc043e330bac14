package core

import (
	"bytes"
	"errors"
	"math/rand"
	"strings"
	"testing"

	"ctjam/internal/env"
)

// trainedCheckpoint builds a small trained DQN checkpoint for codec tests.
func trainedCheckpoint(t testing.TB) *SchemeCheckpoint {
	t.Helper()
	cfg := env.DefaultConfig()
	acfg := DefaultDQNAgentConfig(cfg.Channels, len(cfg.TxPowers), cfg.SweepWidth)
	acfg.Seed = 7
	agent, err := NewDQNAgent(acfg)
	if err != nil {
		t.Fatal(err)
	}
	e, err := env.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := agent.Train(e, 300); err != nil {
		t.Fatal(err)
	}
	ck, err := agent.SchemeCheckpoint()
	if err != nil {
		t.Fatal(err)
	}
	return ck
}

// solvedCheckpoint builds an MDP checkpoint from the default environment.
func solvedCheckpoint(t testing.TB) *SchemeCheckpoint {
	t.Helper()
	cfg := env.DefaultConfig()
	m, err := NewModel(ParamsFromEnv(cfg))
	if err != nil {
		t.Fatal(err)
	}
	sol, err := m.Solve(0.9)
	if err != nil {
		t.Fatal(err)
	}
	ck, err := NewMDPSchemeCheckpoint("MDP*", m, sol.Policy, cfg.Channels, cfg.SweepWidth)
	if err != nil {
		t.Fatal(err)
	}
	return ck
}

// TestSchemeCheckpointRoundTrip pins the canonical-encoding contract for
// every scheme family: Encode -> DecodeScheme -> Encode is byte-identical,
// and the rebuilt scheme makes the same decisions as the original.
func TestSchemeCheckpointRoundTrip(t *testing.T) {
	cases := map[string]*SchemeCheckpoint{
		"dqn": trainedCheckpoint(t),
		"mdp": solvedCheckpoint(t),
	}
	for name, ck := range cases {
		t.Run(name, func(t *testing.T) {
			data, err := ck.Encode()
			if err != nil {
				t.Fatal(err)
			}
			dec, err := DecodeScheme(data)
			if err != nil {
				t.Fatal(err)
			}
			again, err := dec.Encode()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(data, again) {
				t.Fatalf("re-encode differs: %d vs %d bytes", len(data), len(again))
			}
			if dec.Family != ck.Family || dec.Name != ck.Name {
				t.Fatalf("decoded header %v/%q, want %v/%q", dec.Family, dec.Name, ck.Family, ck.Name)
			}
			want, err := ck.Scheme()
			if err != nil {
				t.Fatal(err)
			}
			got, err := dec.Scheme()
			if err != nil {
				t.Fatal(err)
			}
			// Same decisions over a shared random state batch.
			rng := rand.New(rand.NewSource(3))
			n := 64
			states := make([]float64, n*want.Policy().StateDim())
			if ck.Family == SchemeMDP {
				for i := range states {
					states[i] = float64(rng.Intn(ck.Params.SweepCycle + 1))
				}
			} else {
				for i := range states {
					states[i] = rng.Float64()*2 - 1
				}
			}
			wa := make([]int, n)
			ga := make([]int, n)
			if err := want.Policy().DecideBatch(states, wa); err != nil {
				t.Fatal(err)
			}
			if err := got.Policy().DecideBatch(states, ga); err != nil {
				t.Fatal(err)
			}
			for i := range wa {
				if wa[i] != ga[i] {
					t.Fatalf("decision %d: original %d, decoded %d", i, wa[i], ga[i])
				}
			}
		})
	}
}

// TestDecodeSchemeRejects exercises the decoder's strictness: corrupted or
// non-canonical streams must fail, never round-trip loosely.
func TestDecodeSchemeRejects(t *testing.T) {
	good, err := solvedCheckpoint(t).Encode()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeScheme(nil); err == nil {
		t.Error("empty stream accepted")
	}
	bad := append([]byte(nil), good...)
	bad[0] ^= 0xFF
	if _, err := DecodeScheme(bad); err == nil {
		t.Error("bad magic accepted")
	}
	if _, err := DecodeScheme(good[:len(good)-1]); err == nil {
		t.Error("truncated stream accepted")
	}
	if _, err := DecodeScheme(append(append([]byte(nil), good...), 0)); err == nil {
		t.Error("trailing byte accepted")
	}
	ck := solvedCheckpoint(t)
	ck.Actions[0] = 2 * len(ck.Params.TxPowers) // out of range
	if _, err := ck.Encode(); err == nil {
		t.Error("out-of-range action encoded")
	}
	if good[9] != 0 {
		t.Fatalf("engine flag byte is %d, want 0", good[9])
	}
	for _, flag := range []byte{1, 2} {
		if _, err := DecodeScheme(withEngineFlag(good, flag)); !errors.Is(err, ErrBadScheme) {
			t.Errorf("engine flag %d: err %v, want ErrBadScheme", flag, err)
		}
	}
	if _, err := DecodeScheme(withEngineFlag(good, 1)); err == nil || !strings.Contains(err.Error(), "fast32 engine, which was removed") {
		t.Errorf("engine flag 1: err %v, want it to name the removed fast32 engine", err)
	}
}

// TestSchemeFingerprint pins the content address: stable across calls,
// different for different content.
func TestSchemeFingerprint(t *testing.T) {
	a, err := solvedCheckpoint(t).Encode()
	if err != nil {
		t.Fatal(err)
	}
	if SchemeFingerprint(a) != SchemeFingerprint(a) {
		t.Error("fingerprint not deterministic")
	}
	if len(SchemeFingerprint(a)) != 64 {
		t.Errorf("fingerprint length %d, want 64 hex chars", len(SchemeFingerprint(a)))
	}
	b := append([]byte(nil), a...)
	b[len(b)-1] ^= 1
	if SchemeFingerprint(a) == SchemeFingerprint(b) {
		t.Error("distinct content shares a fingerprint")
	}
}
