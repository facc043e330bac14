// Benchmarks regenerating every table and figure of the paper's evaluation,
// plus ablations of the design choices called out in DESIGN.md. Each
// Benchmark runs the corresponding experiment at a reduced (quick) budget;
// run `go run ./cmd/ctjam-experiments` for the full paper-scale sweeps.
package ctjam_test

import (
	"fmt"
	"io"
	"runtime"
	"testing"

	"ctjam"
	"ctjam/internal/core"
	"ctjam/internal/env"
	"ctjam/internal/experiments"
	"ctjam/internal/jammer"
	"ctjam/internal/rng"
)

// benchExperiment runs one registered experiment per iteration.
func benchExperiment(b *testing.B, id string) {
	b.Helper()
	opts := experiments.QuickOptions()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Run(id, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// Fig. 2(b): jamming effect of EmuBee / ZigBee / Wi-Fi signals vs distance.
func BenchmarkFig2b(b *testing.B)     { benchExperiment(b, "fig2b") }
func BenchmarkFig2bWave(b *testing.B) { benchExperiment(b, "fig2b-wave") }

// Fig. 6: success rate of transmission sweeps.
func BenchmarkFig6a(b *testing.B) { benchExperiment(b, "fig6a") }
func BenchmarkFig6b(b *testing.B) { benchExperiment(b, "fig6b") }
func BenchmarkFig6c(b *testing.B) { benchExperiment(b, "fig6c") }
func BenchmarkFig6d(b *testing.B) { benchExperiment(b, "fig6d") }

// Fig. 7: adoption rates of FH and PC.
func BenchmarkFig7a(b *testing.B) { benchExperiment(b, "fig7a") }
func BenchmarkFig7b(b *testing.B) { benchExperiment(b, "fig7b") }
func BenchmarkFig7c(b *testing.B) { benchExperiment(b, "fig7c") }
func BenchmarkFig7d(b *testing.B) { benchExperiment(b, "fig7d") }
func BenchmarkFig7e(b *testing.B) { benchExperiment(b, "fig7e") }
func BenchmarkFig7f(b *testing.B) { benchExperiment(b, "fig7f") }
func BenchmarkFig7g(b *testing.B) { benchExperiment(b, "fig7g") }
func BenchmarkFig7h(b *testing.B) { benchExperiment(b, "fig7h") }

// Fig. 8: success rates of FH and PC.
func BenchmarkFig8a(b *testing.B) { benchExperiment(b, "fig8a") }
func BenchmarkFig8b(b *testing.B) { benchExperiment(b, "fig8b") }
func BenchmarkFig8c(b *testing.B) { benchExperiment(b, "fig8c") }
func BenchmarkFig8d(b *testing.B) { benchExperiment(b, "fig8d") }
func BenchmarkFig8e(b *testing.B) { benchExperiment(b, "fig8e") }
func BenchmarkFig8f(b *testing.B) { benchExperiment(b, "fig8f") }
func BenchmarkFig8g(b *testing.B) { benchExperiment(b, "fig8g") }
func BenchmarkFig8h(b *testing.B) { benchExperiment(b, "fig8h") }

// Fig. 9: testbed timing.
func BenchmarkFig9a(b *testing.B) { benchExperiment(b, "fig9a") }
func BenchmarkFig9b(b *testing.B) { benchExperiment(b, "fig9b") }

// Fig. 10: goodput and utilization vs slot duration.
func BenchmarkFig10a(b *testing.B) { benchExperiment(b, "fig10a") }
func BenchmarkFig10b(b *testing.B) { benchExperiment(b, "fig10b") }

// Fig. 11: scheme comparison and jammer-slot sensitivity.
func BenchmarkFig11a(b *testing.B) { benchExperiment(b, "fig11a") }
func BenchmarkFig11b(b *testing.B) { benchExperiment(b, "fig11b") }

// Table I metrics at the default parameters.
func BenchmarkTable1(b *testing.B) { benchExperiment(b, "table1") }

// sweepPanelIDs are the 20 metric panels of Figs. 6-8 plus Table I — every
// experiment whose points flow through the sweep-point cache.
var sweepPanelIDs = []string{
	"fig6a", "fig6b", "fig6c", "fig6d",
	"fig7a", "fig7b", "fig7c", "fig7d", "fig7e", "fig7f", "fig7g", "fig7h",
	"fig8a", "fig8b", "fig8c", "fig8d", "fig8e", "fig8f", "fig8g", "fig8h",
	"table1",
}

// BenchmarkAllSweeps is the headline benchmark of the sweep-point cache: one
// iteration regenerates all 20 metric panels of Figs. 6-8 plus Table I, the
// workload of `ctjam-experiments -id all`. The uncached variant gives every
// panel a private cache (no cross-panel reuse, the pre-cache behavior); the
// cached variant shares one cache across the panels, so each unique (config,
// engine, budget, seed) point is trained and evaluated exactly once and the
// other panels read memoized counters. Workers is pinned to 1 so the ratio
// measures compute reuse, not parallelism.
func BenchmarkAllSweeps(b *testing.B) {
	run := func(b *testing.B, shared bool) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			opts := experiments.QuickOptions()
			opts.Workers = 1
			if shared {
				opts.Cache = experiments.NewCache()
			}
			for _, id := range sweepPanelIDs {
				if _, err := experiments.Run(id, opts); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	b.Run("uncached", func(b *testing.B) { run(b, false) })
	b.Run("cached", func(b *testing.B) { run(b, true) })
}

// BenchmarkSweepsRegeneration is one operation of the benchmark's sweeps
// workload: the 20 metric panels, Table I's seed replication and the
// jammer-zoo matchup at paper budgets (EngineMDP, 20000 slots) through one
// fresh cache with Workers = GOMAXPROCS, formatted as ctjam-experiments
// prints them. Its allocs/op and B/op are the workload's allocation counts.
func BenchmarkSweepsRegeneration(b *testing.B) {
	ids := append(append([]string(nil), sweepPanelIDs...), "table1-seeds", "matchup")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		opts := experiments.DefaultOptions()
		opts.Slots = 20000
		opts.Workers = runtime.GOMAXPROCS(0)
		opts.Cache = experiments.NewCache()
		for _, id := range ids {
			res, err := experiments.Run(id, opts)
			if err != nil {
				b.Fatal(err)
			}
			if err := experiments.Format(io.Discard, res); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkParallelSweep measures the parallel execution engine: one
// representative experiment per family at worker counts 1 (serial path), 4,
// and all cores. On a multi-core runner the wall-clock time should shrink
// roughly linearly until the worker count reaches the (mode, x) point count;
// results are bit-identical across the variants (see
// experiments.TestSerialParallelEquivalence).
func BenchmarkParallelSweep(b *testing.B) {
	for _, id := range []string{"fig6a", "fig11b", "table1"} {
		for _, workers := range []int{1, 4, runtime.GOMAXPROCS(0)} {
			b.Run(fmt.Sprintf("%s/workers=%d", id, workers), func(b *testing.B) {
				opts := experiments.QuickOptions()
				opts.Workers = workers
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := experiments.Run(id, opts); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// §IV-B training statistics (trains a DQN per iteration).
func BenchmarkTraining(b *testing.B) { benchExperiment(b, "train") }

// --- Ablations -----------------------------------------------------------

// stayMaxPower is the PC-only ablation agent: it never hops and always
// transmits at the highest power level.
type stayMaxPower struct{ powers int }

func (a stayMaxPower) Name() string      { return "PC-only" }
func (a stayMaxPower) Reset(*rng.Source) {}
func (a stayMaxPower) Decide(prev env.SlotInfo) env.Decision {
	return env.Decision{Channel: prev.Channel, Power: a.powers - 1}
}

func evalScheme(b *testing.B, cfg env.Config, agent env.Agent, slots int) float64 {
	b.Helper()
	e, err := env.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	c, err := env.Run(e, agent, slots)
	if err != nil {
		b.Fatal(err)
	}
	return c.ST()
}

// BenchmarkAblationHybridVsSingle compares the hybrid FH+PC policy against
// FH-only (a single power level) and PC-only (never hop), reporting their
// success rates as custom metrics. The hybrid design is the paper's core
// claim.
func BenchmarkAblationHybridVsSingle(b *testing.B) {
	cfg := env.DefaultConfig()
	cfg.JammerMode = jammer.ModeRandom // duels are winnable
	var hybrid, fhOnly, pcOnly float64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Hybrid.
		model, err := core.NewModel(core.ParamsFromEnv(cfg))
		if err != nil {
			b.Fatal(err)
		}
		agent, err := core.NewMDPAgent(model, nil, cfg.Channels, cfg.SweepWidth)
		if err != nil {
			b.Fatal(err)
		}
		hybrid = evalScheme(b, cfg, agent, 4000)

		// FH-only: a single (minimum) power level.
		fhCfg := cfg
		fhCfg.TxPowers = cfg.TxPowers[:1]
		fhModel, err := core.NewModel(core.ParamsFromEnv(fhCfg))
		if err != nil {
			b.Fatal(err)
		}
		fhAgent, err := core.NewMDPAgent(fhModel, nil, fhCfg.Channels, fhCfg.SweepWidth)
		if err != nil {
			b.Fatal(err)
		}
		fhOnly = evalScheme(b, fhCfg, fhAgent, 4000)

		// PC-only: stay put at maximum power.
		pcOnly = evalScheme(b, cfg, stayMaxPower{powers: len(cfg.TxPowers)}, 4000)
	}
	b.ReportMetric(100*hybrid, "hybrid-ST%")
	b.ReportMetric(100*fhOnly, "fhonly-ST%")
	b.ReportMetric(100*pcOnly, "pconly-ST%")
}

// BenchmarkAblationAlphaOptimization measures the emulation quantization
// error with and without the Eq. (2) scale optimization.
func BenchmarkAblationAlphaOptimization(b *testing.B) {
	symbols := []uint8{3, 9, 14, 0, 5, 11, 7, 2}
	var optErr, naiveErr float64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		opt, err := ctjam.EmulateZigBee(symbols, true)
		if err != nil {
			b.Fatal(err)
		}
		naive, err := ctjam.EmulateZigBee(symbols, false)
		if err != nil {
			b.Fatal(err)
		}
		optErr = opt.QuantError
		naiveErr = naive.QuantError
	}
	b.ReportMetric(optErr, "optimized-E")
	b.ReportMetric(naiveErr, "naive-E")
}

// BenchmarkAblationEngines compares the exact-MDP engine with the trained
// DQN on the default scenario (the DQN should approximate the exact
// policy's ST).
func BenchmarkAblationEngines(b *testing.B) {
	var mdpST, dqnST float64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg := ctjam.DefaultConfig()
		exact, err := ctjam.SolveMDP(cfg)
		if err != nil {
			b.Fatal(err)
		}
		m, err := ctjam.Evaluate(cfg, ctjam.SchemeMDP, exact, 4000)
		if err != nil {
			b.Fatal(err)
		}
		mdpST = m.ST

		trained, err := ctjam.TrainDQN(cfg, 10000)
		if err != nil {
			b.Fatal(err)
		}
		m, err = ctjam.Evaluate(cfg, ctjam.SchemeRL, trained, 4000)
		if err != nil {
			b.Fatal(err)
		}
		dqnST = m.ST
	}
	b.ReportMetric(100*mdpST, "mdp-ST%")
	b.ReportMetric(100*dqnST, "dqn-ST%")
}

// BenchmarkAblationTabularQ compares tabular Q-learning (over the compact
// belief-state space) with the exact policy, the comparison the paper's
// §III-C makes when motivating the DQN.
func BenchmarkAblationTabularQ(b *testing.B) {
	var qST, mdpST float64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg := ctjam.DefaultConfig()
		qPolicy, err := ctjam.TrainQLearning(cfg, 12000)
		if err != nil {
			b.Fatal(err)
		}
		m, err := ctjam.Evaluate(cfg, ctjam.SchemeQLearning, qPolicy, 4000)
		if err != nil {
			b.Fatal(err)
		}
		qST = m.ST

		exact, err := ctjam.SolveMDP(cfg)
		if err != nil {
			b.Fatal(err)
		}
		m, err = ctjam.Evaluate(cfg, ctjam.SchemeMDP, exact, 4000)
		if err != nil {
			b.Fatal(err)
		}
		mdpST = m.ST
	}
	b.ReportMetric(100*qST, "qtable-ST%")
	b.ReportMetric(100*mdpST, "mdp-ST%")
}

// BenchmarkAblationCSMA measures the goodput cost of modelling the full
// CSMA/CA contention instead of the calibrated fixed LBT constant.
func BenchmarkAblationCSMA(b *testing.B) {
	var fixed, csma float64
	policyCfg := ctjam.DefaultConfig()
	policy, err := ctjam.SolveMDP(policyCfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := ctjam.FieldCompare(policyCfg, []ctjam.Scheme{ctjam.SchemeMDP}, policy,
			ctjam.FieldOptions{Slots: 120}, false)
		if err != nil {
			b.Fatal(err)
		}
		fixed = res[0].GoodputPktsPerSlot
		res, err = ctjam.FieldCompare(policyCfg, []ctjam.Scheme{ctjam.SchemeMDP}, policy,
			ctjam.FieldOptions{Slots: 120, UseCSMA: true}, false)
		if err != nil {
			b.Fatal(err)
		}
		csma = res[0].GoodputPktsPerSlot
	}
	b.ReportMetric(fixed, "fixed-lbt-pkts/slot")
	b.ReportMetric(csma, "csma-pkts/slot")
}

// BenchmarkStealth runs the §II-B stealthiness experiment.
func BenchmarkStealth(b *testing.B) { benchExperiment(b, "stealth") }

// BenchmarkDetect runs the defender-side IDS experiment.
func BenchmarkDetect(b *testing.B) { benchExperiment(b, "detect") }
