package policy_test

import (
	"fmt"
	"reflect"
	"testing"

	"ctjam/internal/core"
	"ctjam/internal/env"
	"ctjam/internal/policy"
)

// schemesUnderTest builds one scheme per decision-rule family, including a
// briefly trained DQN so the batched GEMM path is covered with real weights.
func schemesUnderTest(t *testing.T, cfg env.Config) map[string]*policy.Scheme {
	t.Helper()
	out := make(map[string]*policy.Scheme)

	out["static"] = policy.StaticScheme()

	passive, err := policy.PassiveFHScheme(cfg.Channels, cfg.SweepWidth, 4)
	if err != nil {
		t.Fatal(err)
	}
	out["passive"] = passive

	random, err := policy.RandomFHScheme(cfg.Channels, cfg.SweepWidth, len(cfg.TxPowers))
	if err != nil {
		t.Fatal(err)
	}
	out["random"] = random

	model, err := core.NewModel(core.ParamsFromEnv(cfg))
	if err != nil {
		t.Fatal(err)
	}
	mdpAgent, err := core.NewMDPAgent(model, nil, cfg.Channels, cfg.SweepWidth)
	if err != nil {
		t.Fatal(err)
	}
	out["mdp"] = mdpAgent.Scheme()

	qAgent, err := core.NewQAgent(model, cfg.Channels, cfg.SweepWidth, 1)
	if err != nil {
		t.Fatal(err)
	}
	trainEnv, err := env.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := qAgent.Train(trainEnv, 500); err != nil {
		t.Fatal(err)
	}
	qScheme, err := qAgent.Scheme()
	if err != nil {
		t.Fatal(err)
	}
	out["qtable"] = qScheme

	acfg := core.DefaultDQNAgentConfig(cfg.Channels, len(cfg.TxPowers), cfg.SweepWidth)
	acfg.Hidden = []int{16}
	acfg.WarmupSize = 32
	dqnAgent, err := core.NewDQNAgent(acfg)
	if err != nil {
		t.Fatal(err)
	}
	dqnEnv, err := env.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dqnAgent.Train(dqnEnv, 600); err != nil {
		t.Fatal(err)
	}
	dqnScheme, err := dqnAgent.Scheme()
	if err != nil {
		t.Fatal(err)
	}
	out["dqn"] = dqnScheme

	return out
}

// TestBatchSerialEquivalence is the refactor's determinism gate: for every
// scheme and batch size, BatchRunTrace over K environments must be
// bit-identical — counters and full per-slot action traces — to K serial
// RunTrace evaluations with the same seeds.
func TestBatchSerialEquivalence(t *testing.T) {
	cfg := env.DefaultConfig()
	const (
		baseSeed = 42
		slots    = 400
	)
	for name, scheme := range schemesUnderTest(t, cfg) {
		for _, k := range []int{1, 7, 64} {
			t.Run(fmt.Sprintf("%s/k=%d", name, k), func(t *testing.T) {
				// Serial reference: one fresh env + single-link agent per seed.
				serialCounters := make([]interface{}, k)
				serialRecords := make([][]env.SlotRecord, k)
				for i := 0; i < k; i++ {
					c := cfg
					c.Seed = baseSeed + int64(i)
					e, err := env.New(c)
					if err != nil {
						t.Fatal(err)
					}
					counters, records, err := env.RunTrace(e, scheme.NewAgent(), slots)
					if err != nil {
						t.Fatal(err)
					}
					serialCounters[i] = counters
					serialRecords[i] = records
				}

				envs := make([]*env.Environment, k)
				for i := range envs {
					c := cfg
					c.Seed = baseSeed + int64(i)
					e, err := env.New(c)
					if err != nil {
						t.Fatal(err)
					}
					envs[i] = e
				}
				batch, err := scheme.NewBatch(k)
				if err != nil {
					t.Fatal(err)
				}
				batchCounters, batchRecords, err := env.BatchRunTrace(envs, batch, slots)
				if err != nil {
					t.Fatal(err)
				}

				for i := 0; i < k; i++ {
					if !reflect.DeepEqual(serialCounters[i], batchCounters[i]) {
						t.Fatalf("env %d: counters diverge\nserial: %+v\nbatch:  %+v",
							i, serialCounters[i], batchCounters[i])
					}
					if !reflect.DeepEqual(serialRecords[i], batchRecords[i]) {
						for s := range serialRecords[i] {
							if serialRecords[i][s] != batchRecords[i][s] {
								t.Fatalf("env %d slot %d: serial %+v vs batch %+v",
									i, s, serialRecords[i][s], batchRecords[i][s])
							}
						}
						t.Fatalf("env %d: traces diverge", i)
					}
				}
			})
		}
	}
}

// TestBatchValidation covers the batch adapters' size checks.
func TestBatchValidation(t *testing.T) {
	if _, err := policy.StaticScheme().NewBatch(0); err == nil {
		t.Fatal("batch size 0: expected error")
	}
	cfg := env.DefaultConfig()
	batch, err := policy.StaticScheme().NewBatch(2)
	if err != nil {
		t.Fatal(err)
	}
	e, err := env.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := env.BatchRun([]*env.Environment{e}, batch, 10); err == nil {
		t.Fatal("agent/env size mismatch: expected error")
	}
	if _, err := env.BatchRun(nil, batch, 10); err == nil {
		t.Fatal("no envs: expected error")
	}
}
