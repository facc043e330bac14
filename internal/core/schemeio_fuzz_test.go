package core

import (
	"bytes"
	"testing"

	"ctjam/internal/env"
	"ctjam/internal/jammer"
)

// smallCheckpoints builds one compact checkpoint per scheme family — a few
// KB each, so the mutation engine iterates quickly.
func smallCheckpoints(f testing.TB) []*SchemeCheckpoint {
	cfg := env.Config{
		Channels:   6,
		SweepWidth: 2,
		TxPowers:   []float64{6, 8, 10},
		JamPowers:  []float64{7, 9},
		JammerMode: jammer.ModeMax,
		LossHop:    1,
		LossJam:    10,
		Seed:       3,
	}
	acfg := DefaultDQNAgentConfig(cfg.Channels, len(cfg.TxPowers), cfg.SweepWidth)
	acfg.HistoryLen = 2
	acfg.Hidden = []int{12}
	acfg.WarmupSize = 32
	acfg.Seed = 3
	agent, err := NewDQNAgent(acfg)
	if err != nil {
		f.Fatal(err)
	}
	e, err := env.New(cfg)
	if err != nil {
		f.Fatal(err)
	}
	if _, err := agent.Train(e, 64); err != nil {
		f.Fatal(err)
	}
	dqn, err := agent.SchemeCheckpoint()
	if err != nil {
		f.Fatal(err)
	}
	m, err := NewModel(ParamsFromEnv(cfg))
	if err != nil {
		f.Fatal(err)
	}
	sol, err := m.Solve(0.9)
	if err != nil {
		f.Fatal(err)
	}
	mdpCk, err := NewMDPSchemeCheckpoint("MDP*", m, sol.Policy, cfg.Channels, cfg.SweepWidth)
	if err != nil {
		f.Fatal(err)
	}
	return []*SchemeCheckpoint{dqn, mdpCk}
}

// FuzzSchemeRoundTrip pins the canonical-encoding contract of the CTSC wire
// format fleet-wide scheme reuse depends on: any stream DecodeScheme accepts
// must re-encode to exactly the input bytes (so fingerprints are stable no
// matter which process re-serializes a checkpoint), and decoding must never
// panic or over-allocate on hostile input. The seeds include the DQN stream
// with its engine flag set, which selected the removed fast32 engine and must
// now be rejected.
func FuzzSchemeRoundTrip(f *testing.F) {
	for i, ck := range smallCheckpoints(f) {
		data, err := ck.Encode()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
		if i == 0 {
			f.Add(withEngineFlag(data, 1))
		}
	}
	f.Add([]byte{})
	f.Add([]byte("CTSC"))

	f.Fuzz(func(t *testing.T, data []byte) {
		ck, err := DecodeScheme(data)
		if err != nil {
			return
		}
		enc, err := ck.Encode()
		if err != nil {
			t.Fatalf("decoded checkpoint fails to encode: %v", err)
		}
		if !bytes.Equal(enc, data) {
			t.Fatalf("re-encode differs from accepted input: %d vs %d bytes", len(enc), len(data))
		}
		if fp := SchemeFingerprint(enc); fp != SchemeFingerprint(data) {
			t.Fatalf("fingerprint drifted across round trip: %s vs %s", fp, SchemeFingerprint(data))
		}
		// A decodable checkpoint must rebuild into a runnable scheme.
		if _, err := ck.Scheme(); err != nil {
			t.Fatalf("decoded checkpoint fails to rebuild: %v", err)
		}
	})
}

// withEngineFlag returns a copy of an encoded CTSC stream with its engine
// flag byte (after the 8-byte header and the family byte) set to flag.
func withEngineFlag(data []byte, flag byte) []byte {
	out := append([]byte(nil), data...)
	out[9] = flag
	return out
}
