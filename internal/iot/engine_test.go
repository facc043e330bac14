package iot

import (
	"reflect"
	"runtime"
	"testing"
	"time"

	"ctjam/internal/core"
	"ctjam/internal/env"
	"ctjam/internal/fault"
	"ctjam/internal/policy"
)

func engineTemplate() Config {
	cfg := DefaultConfig()
	cfg.SlotDuration = 500 * time.Millisecond
	cfg.JammerSlot = 500 * time.Millisecond
	return cfg
}

func randomAgent(t testing.TB, cfg Config) env.Agent {
	t.Helper()
	a, err := core.NewRandomFH(cfg.Channels, cfg.SweepWidth, len(cfg.TxPowers))
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func runEngine(t testing.TB, clusters, workers, slots int, cfg Config) EngineStats {
	t.Helper()
	eng, err := NewEngine(EngineConfig{Clusters: clusters, Template: cfg, Workers: workers})
	if err != nil {
		t.Fatal(err)
	}
	st, err := eng.Run(func(int) (env.Agent, error) {
		return core.NewRandomFH(cfg.Channels, cfg.SweepWidth, len(cfg.TxPowers))
	}, slots)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// TestFieldShardEquivalence pins the engine's tentpole guarantee: the same
// field produces bit-identical EngineStats at every worker count, for both a
// single cluster and a sharded multi-cluster field.
func TestFieldShardEquivalence(t *testing.T) {
	cfg := engineTemplate()
	workerCounts := []int{1, 4, runtime.GOMAXPROCS(0)}
	for _, clusters := range []int{1, 8} {
		ref := runEngine(t, clusters, workerCounts[0], 40, cfg)
		if ref.Clusters != clusters || ref.Nodes != clusters*cfg.Nodes {
			t.Fatalf("clusters=%d: field sized %d clusters / %d nodes", clusters, ref.Clusters, ref.Nodes)
		}
		if ref.SlotDeliveries != clusters*40 {
			t.Fatalf("clusters=%d: SlotDeliveries = %d, want %d", clusters, ref.SlotDeliveries, clusters*40)
		}
		for _, w := range workerCounts[1:] {
			got := runEngine(t, clusters, w, 40, cfg)
			if !reflect.DeepEqual(got, ref) {
				t.Errorf("clusters=%d: EngineStats at workers=%d differ from workers=%d", clusters, w, workerCounts[0])
			}
		}
	}
}

// TestEngineSingleClusterMatchesSimulator pins the compatibility identity: a
// 1-cluster engine projects to RunStats bit-identical to the single-network
// Simulator over the same Config.
func TestEngineSingleClusterMatchesSimulator(t *testing.T) {
	cfg := engineTemplate()
	sim, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, err := sim.Run(randomAgent(t, cfg), 40)
	if err != nil {
		t.Fatal(err)
	}
	got := runEngine(t, 1, 1, 40, cfg).RunStats()
	if !reflect.DeepEqual(got, want) {
		t.Errorf("1-cluster engine RunStats = %+v, want Simulator %+v", got, want)
	}
}

// TestEngineClustersDecorrelated checks distinct clusters see distinct
// randomness: with everything else equal, the runs of the clusters an
// engine plays should not be copies of cluster 0's.
func TestEngineClustersDecorrelated(t *testing.T) {
	cfg := engineTemplate()
	eng, err := NewEngine(EngineConfig{Clusters: 8, Template: cfg, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	runs := make([]RunStats, eng.Clusters())
	for i := range runs {
		sim, err := New(eng.clusterConfig(i))
		if err != nil {
			t.Fatal(err)
		}
		if runs[i], err = sim.Run(randomAgent(t, cfg), 40); err != nil {
			t.Fatal(err)
		}
	}
	distinct := false
	for _, r := range runs[1:] {
		if !reflect.DeepEqual(r, runs[0]) {
			distinct = true
			break
		}
	}
	if !distinct {
		t.Error("all 8 clusters produced identical RunStats; per-cluster seeds look correlated")
	}
	newAgent := func() (env.Agent, error) { return randomAgent(t, cfg), nil }
	got, err := eng.Run(func(int) (env.Agent, error) { return newAgent() }, 40)
	if err != nil {
		t.Fatal(err)
	}
	if got != simulatorSum(t, eng, newAgent, 40) {
		t.Error("the engine's field differs from the sum of its clusters' Simulator runs")
	}
}

// TestEngineFaultStreamsScoped checks that configured fault injection runs
// per cluster with decorrelated streams (cluster 0 keeps the base stream).
func TestEngineFaultStreamsScoped(t *testing.T) {
	cfg := engineTemplate()
	cfg.Faults = fault.BurstNoise{Seed: 7, Prob: 0.3, Len: 2, Power: 100}
	st := runEngine(t, 2, 1, 40, cfg)
	if st.Counters.JammedSlots == 0 {
		t.Error("burst noise injected but no slots classified as jammed")
	}

	// Cluster 0 must match a plain Simulator under the same injector: the
	// scoped stream applies only to clusters > 0. So the field is a plain
	// Simulator run plus cluster 1's run on its scoped stream, and a
	// one-cluster field is that plain run, every statistic included.
	eng, err := NewEngine(EngineConfig{Clusters: 2, Template: cfg})
	if err != nil {
		t.Fatal(err)
	}
	if c0 := eng.clusterConfig(0); !reflect.DeepEqual(c0, cfg) {
		t.Errorf("cluster 0 runs under %#v, want the template itself", c0)
	}
	if c1 := eng.clusterConfig(1); c1.Faults != (fault.Scoped{Inner: cfg.Faults, Stream: 1}) {
		t.Errorf("cluster 1 runs under %#v, want the injector scoped to stream 1", c1.Faults)
	}
	newAgent := func() (env.Agent, error) { return randomAgent(t, cfg), nil }
	if st != simulatorSum(t, eng, newAgent, 40) {
		t.Error("the faulted field differs from a plain Simulator run of cluster 0 plus cluster 1's scoped run")
	}
	sim, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, err := sim.Run(randomAgent(t, cfg), 40)
	if err != nil {
		t.Fatal(err)
	}
	if got := runEngine(t, 1, 1, 40, cfg).RunStats(); !reflect.DeepEqual(got, want) {
		t.Errorf("cluster 0 under faults differs from the equivalent Simulator run:\n got %+v\nwant %+v", got, want)
	}
}

func TestClusterSeedIdentity(t *testing.T) {
	if got := clusterSeed(42, 0); got != 42 {
		t.Fatalf("clusterSeed(42, 0) = %d, want 42 (cluster 0 keeps the base seed)", got)
	}
	seen := map[int64]int{42: 0}
	for c := 1; c <= 64; c++ {
		s := clusterSeed(42, c)
		if prev, dup := seen[s]; dup {
			t.Fatalf("clusterSeed collision: clusters %d and %d both map to %d", prev, c, s)
		}
		seen[s] = c
	}
}

func TestEngineValidation(t *testing.T) {
	cfg := engineTemplate()
	if _, err := NewEngine(EngineConfig{Clusters: 0, Template: cfg}); err == nil {
		t.Error("0 clusters: expected error")
	}
	bad := cfg
	bad.Nodes = 0
	if _, err := NewEngine(EngineConfig{Clusters: 2, Template: bad}); err == nil {
		t.Error("invalid template: expected error")
	}

	eng, err := NewEngine(EngineConfig{Clusters: 2, Template: cfg})
	if err != nil {
		t.Fatal(err)
	}
	if eng.Clusters() != 2 || eng.Nodes() != 2*cfg.Nodes {
		t.Errorf("engine sized %d clusters / %d nodes", eng.Clusters(), eng.Nodes())
	}
	newAgent := func(int) (env.Agent, error) { return policy.StaticScheme().NewAgent(), nil }
	if _, err := eng.Run(newAgent, 0); err == nil {
		t.Error("Run with 0 slots: expected error")
	}
}

// BenchmarkFieldEngine measures engine throughput in slot-deliveries per
// second (one delivery = one cluster resolving one Tx slot) at field sizes
// from 10^3 to 10^5 nodes. The nodes-1e5 case keeps the curve reaching
// 10^5 simulated nodes. Each cluster runs 40 slots, as a ctjam-field
// comparison does, so per-run seeding weighs what it weighs there.
func BenchmarkFieldEngine(b *testing.B) {
	cfg := engineTemplate()
	for _, bc := range []struct {
		name     string
		clusters int
		nodes    int
	}{
		{"nodes-1e3", 200, 5},
		{"nodes-1e4", 2000, 5},
		{"nodes-1e5", 20000, 5},
	} {
		b.Run(bc.name, func(b *testing.B) {
			tmpl := cfg
			tmpl.Nodes = bc.nodes
			eng, err := NewEngine(EngineConfig{Clusters: bc.clusters, Template: tmpl})
			if err != nil {
				b.Fatal(err)
			}
			const slots = 40
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				st, err := eng.Run(func(int) (env.Agent, error) {
					return core.NewRandomFH(tmpl.Channels, tmpl.SweepWidth, len(tmpl.TxPowers))
				}, slots)
				if err != nil {
					b.Fatal(err)
				}
				if st.SlotDeliveries != bc.clusters*slots {
					b.Fatalf("SlotDeliveries = %d", st.SlotDeliveries)
				}
			}
			b.ReportMetric(float64(bc.clusters*slots*b.N)/b.Elapsed().Seconds(), "slotdeliveries/s")
			b.ReportMetric(float64(bc.clusters*bc.nodes), "nodes")
		})
	}
}
