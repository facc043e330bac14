package iot

import (
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"ctjam/internal/core"
	"ctjam/internal/env"
	"ctjam/internal/fault"
	"ctjam/internal/jammer"
)

// TestTinyServiceRejected: a packet service the slowest clock drift (0.5×)
// stretches to 0 ns would never advance the slot, so every entry point
// rejects it; the smallest valid service resolves a slot at once.
func TestTinyServiceRejected(t *testing.T) {
	tiny := DefaultConfig()
	tiny.Timing = Timing{PacketAirtime: 1}
	if err := tiny.Timing.Validate(); err == nil {
		t.Error("Validate accepted a 1 ns packet service")
	}
	if _, err := New(tiny); err == nil {
		t.Error("New accepted a 1 ns packet service")
	}
	if _, err := NewEngine(EngineConfig{Clusters: 3, Template: tiny}); err == nil {
		t.Error("NewEngine accepted a 1 ns packet service")
	}

	cfg := DefaultConfig()
	cfg.Timing = Timing{PacketAirtime: 1, Processing: 1}
	cfg.SlotDuration = 50 * time.Millisecond
	cfg.JammerSlot = 7 * time.Millisecond
	cfg.Faults = fixedDrift{-0.9} // clamped to a 0.5× stretch: 1 ns per packet
	sim, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	st, err := sim.RunSlot(0, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	if st.Attempted != int(st.DataTime) {
		t.Errorf("1 ns packets: Attempted = %d over %v of data time", st.Attempted, st.DataTime)
	}
}

// TestJammerModeRejected: an unknown jammer power mode fails validation
// whenever the jammer is on, so NewEngine still refuses a field it could
// not run.
func TestJammerModeRejected(t *testing.T) {
	cfg := DefaultConfig()
	cfg.JammerMode = jammer.PowerMode(7)
	if _, err := NewEngine(EngineConfig{Clusters: 2, Template: cfg}); err == nil {
		t.Error("NewEngine accepted an unknown jammer power mode")
	}
	cfg.JammerEnabled = false
	if err := cfg.Validate(); err != nil {
		t.Errorf("jammer off: the power mode is unused, got %v", err)
	}
}

// TestSimulatorRunSlotPinned pins RunSlot straight after New and straight
// after Run to the values of the per-packet engine seeded through
// rand.NewSource: New seeds the cluster stream, and Run reseeds it and
// leaves it where its last slot stopped.
func TestSimulatorRunSlotPinned(t *testing.T) {
	type slot struct {
		overhead, data                    time.Duration
		attempted, delivered, frameLosses int
		outcome                           int
	}
	for _, tc := range []struct {
		name   string
		faults fault.Injector
		before []slot
		run    [4]int // Attempted, Delivered, FrameLosses, MeanOverhead (ns)
		after  []slot
	}{
		{
			name: "plain",
			before: []slot{
				{48859330, 451140670, 70, 0, 0, 3},
				{49568068, 450431932, 70, 70, 0, 1},
				{50130394, 449869606, 70, 70, 0, 1},
			},
			run: [4]int{1697, 920, 0, 66280501},
			after: []slot{
				{49189683, 450810317, 70, 70, 0, 1},
				{50598624, 449401376, 70, 70, 0, 1},
				{49333855, 450666145, 70, 70, 0, 1},
			},
		},
		{
			name: "symbol faults and drift",
			faults: fault.Chain{
				fault.SymbolFaults{Seed: 3, TruncProb: 0.2, MaxDrop: 40, FlipProb: 0.002},
				fault.ClockDrift{Seed: 5, Max: 0.3, Period: 3},
			},
			before: []slot{
				{36320699, 463679301, 98, 0, 0, 3},
				{41135673, 458864327, 86, 56, 30, 1},
				{45939101, 454060899, 77, 48, 29, 1},
			},
			run: [4]int{1734, 432, 498, 65900605},
			after: []slot{
				{61380195, 438619805, 55, 36, 19, 1},
				{62415801, 437584199, 55, 29, 26, 1},
				{60151201, 439848799, 56, 26, 30, 1},
			},
		},
	} {
		cfg := DefaultConfig()
		cfg.SlotDuration = 500 * time.Millisecond
		cfg.JammerSlot = 300 * time.Millisecond
		cfg.Faults = tc.faults
		sim, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		check := func(phase string, want []slot) {
			for i, ch := range []int{0, 5, 9} {
				st, err := sim.RunSlot(ch, i%len(cfg.TxPowers), i > 0)
				if err != nil {
					t.Fatal(err)
				}
				got := slot{st.Overhead, st.DataTime, st.Attempted, st.Delivered, st.FrameLosses, int(st.Outcome)}
				if got != want[i] {
					t.Errorf("%s: RunSlot %d %s Run = %+v, want %+v", tc.name, i, phase, got, want[i])
				}
			}
		}
		check("before", tc.before)
		a, err := core.NewRandomFH(cfg.Channels, cfg.SweepWidth, len(cfg.TxPowers))
		if err != nil {
			t.Fatal(err)
		}
		run, err := sim.Run(a, 25)
		if err != nil {
			t.Fatal(err)
		}
		if got := [4]int{run.Attempted, run.Delivered, run.FrameLosses, int(run.MeanOverhead)}; got != tc.run {
			t.Errorf("%s: Run = %v, want %v", tc.name, got, tc.run)
		}
		check("after", tc.after)
	}
}

// TestEngineBuildMemory: an engine holds its configuration only, whatever
// its size. A 20,000-cluster field used to retain ~5.8 KB per cluster
// (three generators per cluster, built up front).
func TestEngineBuildMemory(t *testing.T) {
	const clusters = 20000
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	eng, err := NewEngine(EngineConfig{Clusters: clusters, Template: engineTemplate()})
	if err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(eng)
	if per := (int64(after.HeapAlloc) - int64(before.HeapAlloc)) / clusters; per > 1024 {
		t.Errorf("building a %d-cluster engine retains %d B per cluster, want ≤ 1 KB", clusters, per)
	}
}

// freshEngineRun runs eng's field with every cluster built afresh by
// newCluster, bypassing the pool: the reference a pooled run must match.
func freshEngineRun(t *testing.T, eng *Engine, slots int) EngineStats {
	t.Helper()
	per := make([]RunStats, eng.Clusters())
	for i := range per {
		c, err := newCluster(eng.clusterConfig(i))
		if err != nil {
			t.Fatal(err)
		}
		if per[i], err = c.run(randomAgent(t, c.cfg), slots); err != nil {
			t.Fatal(err)
		}
	}
	return eng.merge(per)
}

// TestEnginePooledClustersCarryNothing runs fields of different shapes —
// plain, faulted, CSMA, another jammer — concurrently and repeatedly
// through the shared cluster pool; each must equal its own first run, so
// no state leaks between the runs that reuse one cluster value. Then three
// engines whose jammers differ in spec alone or in powers alone take turns
// on the pool, so a pooled cluster rewinds its jammer within a run and
// rebuilds it between runs; each run must equal a build with no pooled
// cluster at all.
func TestEnginePooledClustersCarryNothing(t *testing.T) {
	plain := engineTemplate()
	faulted := engineTemplate()
	faulted.Faults = fault.Chain{
		fault.SymbolFaults{Seed: 4, TruncProb: 0.3, MaxDrop: 30, FlipProb: 0.001},
		fault.BurstNoise{Seed: 2, Prob: 0.2, Len: 2, Power: 100},
		fault.ClockDrift{Seed: 6, Max: 0.2, Period: 4},
	}
	csma := engineTemplate()
	csma.UseCSMA = true
	csma.Nodes = 6
	reactive := engineTemplate()
	reactive.Jammer = "reactive:delay=1,miss=0.1"
	reactive.Seed = 99
	cfgs := []Config{plain, faulted, csma, reactive}

	want := make([]EngineStats, len(cfgs))
	for i, cfg := range cfgs {
		want[i] = runEngine(t, 6, 1, 12, cfg)
	}
	var wg sync.WaitGroup
	errs := make(chan string, 3*len(cfgs))
	for round := 0; round < 3; round++ {
		for i, cfg := range cfgs {
			wg.Add(1)
			go func(i int, cfg Config) {
				defer wg.Done()
				eng, err := NewEngine(EngineConfig{Clusters: 6, Template: cfg, Workers: 3})
				if err != nil {
					errs <- err.Error()
					return
				}
				got, err := eng.Run(func(int) (env.Agent, error) {
					return core.NewRandomFH(cfg.Channels, cfg.SweepWidth, len(cfg.TxPowers))
				}, 12)
				if err != nil {
					errs <- err.Error()
				} else if !reflect.DeepEqual(got, want[i]) {
					errs <- fmt.Sprintf("config %d: a concurrent rerun differs from its first run", i)
				}
			}(i, cfg)
		}
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}

	adaptive := engineTemplate()
	adaptive.Jammer = "adaptive:alpha=0.3,explore=0.2"
	adaptive.JammerMode = jammer.ModeRandom
	budget := adaptive
	budget.Jammer = "budget:duty=0.5,burst=2"
	quieter := adaptive
	quieter.JamPowers = []float64{20, 35}
	jamCfgs := []Config{adaptive, budget, quieter}
	engines := make([]*Engine, len(jamCfgs))
	fresh := make([]EngineStats, len(jamCfgs))
	for i, cfg := range jamCfgs {
		eng, err := NewEngine(EngineConfig{Clusters: 5, Template: cfg, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		engines[i], fresh[i] = eng, freshEngineRun(t, eng, 12)
	}
	for round := 0; round < 2*len(jamCfgs); round++ {
		i := round % len(jamCfgs)
		got, err := engines[i].Run(func(int) (env.Agent, error) {
			return core.NewRandomFH(adaptive.Channels, adaptive.SweepWidth, len(adaptive.TxPowers))
		}, 12)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, fresh[i]) {
			t.Errorf("round %d: engine %d's pooled run differs from its fresh build", round, i)
		}
	}
}
