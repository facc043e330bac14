package ctjam

import (
	"bytes"
	"strings"
	"testing"
)

func TestDefaultConfigIsValid(t *testing.T) {
	if _, err := DefaultConfig().internal(); err != nil {
		t.Fatal(err)
	}
}

func TestConfigValidation(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Jammer = "sneaky"
	if _, err := cfg.internal(); err == nil {
		t.Fatal("bad jammer mode: expected error")
	}
	cfg = DefaultConfig()
	cfg.PowerLevels = 0
	if _, err := cfg.internal(); err == nil {
		t.Fatal("0 power levels: expected error")
	}
	cfg = DefaultConfig()
	cfg.Channels = 1
	if _, err := cfg.internal(); err == nil {
		t.Fatal("1 channel: expected error")
	}
}

func TestEvaluateBaselines(t *testing.T) {
	cfg := DefaultConfig()
	for _, scheme := range []Scheme{SchemePassive, SchemeRandom, SchemeStatic} {
		m, err := Evaluate(cfg, scheme, nil, 3000)
		if err != nil {
			t.Fatalf("%s: %v", scheme, err)
		}
		if m.Slots != 3000 {
			t.Fatalf("%s: slots = %d", scheme, m.Slots)
		}
		if m.ST < 0 || m.ST > 1 {
			t.Fatalf("%s: ST = %v", scheme, m.ST)
		}
	}
}

func TestEvaluateUnknownScheme(t *testing.T) {
	if _, err := Evaluate(DefaultConfig(), "quantum", nil, 100); err == nil {
		t.Fatal("expected error")
	}
}

func TestEvaluateRLWithoutPolicy(t *testing.T) {
	if _, err := Evaluate(DefaultConfig(), SchemeRL, nil, 100); err == nil {
		t.Fatal("expected error when policy missing")
	}
}

// TestPolicyOfWrongKindRejected pins that every facade entry point refuses
// to play a policy under another scheme's label, instead of silently
// evaluating the policy it was handed.
func TestPolicyOfWrongKindRejected(t *testing.T) {
	cfg := DefaultConfig()
	rl, err := TrainDQN(cfg, 200)
	if err != nil {
		t.Fatal(err)
	}
	mdp, err := SolveMDP(cfg)
	if err != nil {
		t.Fatal(err)
	}
	q, err := TrainQLearning(cfg, 200)
	if err != nil {
		t.Fatal(err)
	}
	policies := map[Scheme]*Policy{SchemeRL: rl, SchemeMDP: mdp, SchemeQLearning: q}
	entries := map[string]func(Scheme, *Policy) error{
		"Evaluate": func(s Scheme, p *Policy) error {
			_, err := Evaluate(cfg, s, p, 50)
			return err
		},
		"EvaluateBatch": func(s Scheme, p *Policy) error {
			_, err := EvaluateBatch(cfg, s, p, 2, 50)
			return err
		},
		"FieldScale": func(s Scheme, p *Policy) error {
			_, err := FieldScale(cfg, s, p, FieldScaleOptions{Slots: 5})
			return err
		},
		"FieldCompare": func(s Scheme, p *Policy) error {
			_, err := FieldCompare(cfg, []Scheme{s}, p, FieldOptions{Slots: 5}, false)
			return err
		},
	}
	for name, call := range entries {
		for scheme := range policies {
			for kind, p := range policies {
				if kind == scheme {
					if err := call(scheme, p); err != nil {
						t.Errorf("%s(%s, %s policy): %v", name, scheme, kind, err)
					}
					continue
				}
				err := call(scheme, p)
				if err == nil || !strings.Contains(err.Error(), "needs a policy from") {
					t.Errorf("%s(%s, %s policy) = %v, want a wrong-kind error", name, scheme, kind, err)
				}
			}
		}
	}
}

func TestSolveMDPAndEvaluate(t *testing.T) {
	cfg := DefaultConfig()
	policy, err := SolveMDP(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if policy.ParamCount() != 0 {
		t.Fatal("exact policy should report 0 network parameters")
	}
	m, err := Evaluate(cfg, SchemeMDP, policy, 10000)
	if err != nil {
		t.Fatal(err)
	}
	if m.ST < 0.7 {
		t.Fatalf("MDP policy ST = %.3f, expected ~0.78", m.ST)
	}
	// Exact policies are not persistable.
	var buf bytes.Buffer
	if err := policy.Save(&buf); err == nil {
		t.Fatal("saving an exact policy should fail")
	}
}

func TestTrainDQNSaveLoadEvaluate(t *testing.T) {
	if testing.Short() {
		t.Skip("DQN training is slow")
	}
	cfg := DefaultConfig()
	policy, err := TrainDQN(cfg, 12000)
	if err != nil {
		t.Fatal(err)
	}
	if policy.ParamCount() == 0 {
		t.Fatal("trained policy has no parameters")
	}
	var buf bytes.Buffer
	if err := policy.Save(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := TrainDQN(cfg, 1) // fresh agent, minimal training
	if err != nil {
		t.Fatal(err)
	}
	if err := restored.Load(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	m, err := Evaluate(cfg, SchemeRL, restored, 5000)
	if err != nil {
		t.Fatal(err)
	}
	passive, err := Evaluate(cfg, SchemePassive, nil, 5000)
	if err != nil {
		t.Fatal(err)
	}
	if m.ST <= passive.ST {
		t.Fatalf("restored DQN ST %.3f should beat passive %.3f", m.ST, passive.ST)
	}
}

func TestFieldCompare(t *testing.T) {
	cfg := DefaultConfig()
	policy, err := SolveMDP(cfg)
	if err != nil {
		t.Fatal(err)
	}
	results, err := FieldCompare(cfg,
		[]Scheme{SchemePassive, SchemeRandom, SchemeMDP}, policy,
		FieldOptions{Slots: 200}, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 4 {
		t.Fatalf("got %d results, want 4", len(results))
	}
	// Ordering: passive < random < mdp < no-jammer.
	for i := 1; i < len(results); i++ {
		if results[i].GoodputPktsPerSlot <= results[i-1].GoodputPktsPerSlot {
			t.Fatalf("ordering violated at %d: %+v", i, results)
		}
	}
	if results[3].Scheme != "no-jammer" {
		t.Fatalf("last result = %+v", results[3])
	}
}

func TestEmulateZigBee(t *testing.T) {
	symbols := []uint8{0, 5, 10, 15, 7, 8}
	opt, err := EmulateZigBee(symbols, true)
	if err != nil {
		t.Fatal(err)
	}
	naive, err := EmulateZigBee(symbols, false)
	if err != nil {
		t.Fatal(err)
	}
	if opt.Alpha <= 0 || naive.Alpha != 1 {
		t.Fatalf("alphas: opt=%v naive=%v", opt.Alpha, naive.Alpha)
	}
	if opt.QuantError > naive.QuantError {
		t.Fatalf("optimized quantization error %v worse than naive %v", opt.QuantError, naive.QuantError)
	}
	if frac := float64(opt.SymbolErrors) / float64(opt.Symbols); frac > 0.34 {
		t.Fatalf("emulated waveform symbol error rate %.2f too high", frac)
	}
	if len(opt.Wave) == 0 || len(opt.WiFiPayloadBits) == 0 {
		t.Fatal("emulation missing waveform or bits")
	}
	if _, err := EmulateZigBee(nil, true); err == nil {
		t.Fatal("empty symbols: expected error")
	}
}

func TestExperimentRegistry(t *testing.T) {
	ids := ExperimentIDs()
	if len(ids) < 25 {
		t.Fatalf("only %d experiments registered", len(ids))
	}
	desc, err := DescribeExperiment("fig11a")
	if err != nil || desc == "" {
		t.Fatalf("DescribeExperiment: %q, %v", desc, err)
	}
}

func TestRunExperimentQuick(t *testing.T) {
	var buf bytes.Buffer
	if err := RunExperiment(&buf, "fig10b", ScaleQuick); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "fig10b") || !strings.Contains(out, "utilization") {
		t.Fatalf("unexpected output:\n%s", out)
	}
	if err := RunExperiment(&buf, "not-a-figure", ScaleQuick); err == nil {
		t.Fatal("unknown experiment: expected error")
	}
}

func TestRunExperimentsSharedCache(t *testing.T) {
	// The batch facade shares one sweep-point cache: fig6a and fig7a sweep
	// the same points, so the pair must cost barely more than one panel and
	// produce exactly the per-id outputs, separated by a blank line.
	var a, b, two bytes.Buffer
	if err := RunExperiment(&a, "fig6a", ScaleQuick); err != nil {
		t.Fatal(err)
	}
	if err := RunExperiment(&b, "fig7a", ScaleQuick); err != nil {
		t.Fatal(err)
	}
	if err := RunExperiments(&two, []string{"fig6a", "fig7a"}, ScaleQuick); err != nil {
		t.Fatal(err)
	}
	want := a.String() + "\n" + b.String()
	if two.String() != want {
		t.Fatalf("batched output differs from per-id runs:\ngot:\n%s\nwant:\n%s", two.String(), want)
	}
	if err := RunExperiments(&two, []string{"fig6a", "nope"}, ScaleQuick); err == nil {
		t.Fatal("unknown experiment in batch: expected error")
	}
}

func TestTrainQLearningAndEvaluate(t *testing.T) {
	cfg := DefaultConfig()
	policy, err := TrainQLearning(cfg, 15000)
	if err != nil {
		t.Fatal(err)
	}
	m, err := Evaluate(cfg, SchemeQLearning, policy, 8000)
	if err != nil {
		t.Fatal(err)
	}
	passive, err := Evaluate(cfg, SchemePassive, nil, 8000)
	if err != nil {
		t.Fatal(err)
	}
	if m.ST <= passive.ST {
		t.Fatalf("Q-learning ST %.3f should beat passive %.3f", m.ST, passive.ST)
	}
	if _, err := Evaluate(cfg, SchemeQLearning, nil, 100); err == nil {
		t.Fatal("missing policy: expected error")
	}
}

func TestFieldCompareCSMA(t *testing.T) {
	cfg := DefaultConfig()
	policy, err := SolveMDP(cfg)
	if err != nil {
		t.Fatal(err)
	}
	results, err := FieldCompare(cfg, []Scheme{SchemeMDP}, policy,
		FieldOptions{Slots: 80, UseCSMA: true}, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 {
		t.Fatalf("got %d results", len(results))
	}
	if results[0].GoodputPktsPerSlot <= 0 {
		t.Fatal("CSMA field run delivered nothing")
	}
}
