package iot

import (
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ctjam/internal/core"
	"ctjam/internal/env"
	"ctjam/internal/fault"
	"ctjam/internal/jammer"
	"ctjam/internal/policy"
	"ctjam/internal/rng"
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
		newAgent := func() (env.Agent, error) { return randomAgent(t, cfg), nil }
		engines[i], fresh[i] = eng, simulatorSum(t, eng, newAgent, 12)
	}
	for round := 0; round < 2*len(jamCfgs); round++ {
		i := round % len(jamCfgs)
		got, err := engines[i].Run(func(int) (env.Agent, error) {
			return core.NewRandomFH(adaptive.Channels, adaptive.SweepWidth, len(adaptive.TxPowers))
		}, 12)
		if err != nil {
			t.Fatal(err)
		}
		if got != fresh[i] {
			t.Errorf("round %d: engine %d's pooled run differs from its fresh build", round, i)
		}
	}
}

// simulatorSum runs every cluster of eng through its own Simulator over
// clusterConfig(i), each with a fresh agent from newAgent, and folds the runs
// into field totals: integer counts in any order, utilizations summed in
// cluster order. It is the reference an engine run must equal, however the
// engine shares agents and clusters between its workers.
func simulatorSum(t *testing.T, eng *Engine, newAgent func() (env.Agent, error), slots int) EngineStats {
	t.Helper()
	out := EngineStats{
		Clusters:       eng.Clusters(),
		Nodes:          eng.Nodes(),
		Slots:          slots,
		SlotDeliveries: eng.Clusters() * slots,
	}
	var util float64
	var ovh time.Duration
	for i := 0; i < eng.Clusters(); i++ {
		sim, err := New(eng.clusterConfig(i))
		if err != nil {
			t.Fatal(err)
		}
		a, err := newAgent()
		if err != nil {
			t.Fatal(err)
		}
		r, err := sim.Run(a, slots)
		if err != nil {
			t.Fatal(err)
		}
		out.Attempted += r.Attempted
		out.Delivered += r.Delivered
		out.FrameLosses += r.FrameLosses
		out.Counters.Add(r.Counters)
		util += r.MeanUtilization
		ovh += r.MeanOverhead
	}
	out.GoodputPktsPerSlot = float64(out.Delivered) / float64(slots)
	out.MeanUtilization = util / float64(out.Clusters)
	out.MeanOverhead = ovh / time.Duration(out.Clusters)
	return out
}

// TestEngineAgentReuseCarriesNothing runs one field per encoder kind — the
// MDP's belief, the passive streak, the random walk, the static stay, and a
// DQN's history window — at one and at three workers. Each run must equal
// the sum of Simulator runs over the same clusters with a fresh agent each,
// so an agent the engine hands from one cluster to the next carries nothing
// across.
func TestEngineAgentReuseCarriesNothing(t *testing.T) {
	cfg := engineTemplate()
	cfg.JammerMode = jammer.ModeRandom
	model, err := core.NewModel(core.ParamsFromEnv(env.DefaultConfig()))
	if err != nil {
		t.Fatal(err)
	}
	mdp, err := core.NewMDPAgent(model, nil, cfg.Channels, cfg.SweepWidth)
	if err != nil {
		t.Fatal(err)
	}
	passive, err := policy.PassiveFHScheme(cfg.Channels, cfg.SweepWidth, core.DefaultJamThreshold)
	if err != nil {
		t.Fatal(err)
	}
	random, err := policy.RandomFHScheme(cfg.Channels, cfg.SweepWidth, len(cfg.TxPowers))
	if err != nil {
		t.Fatal(err)
	}
	acfg := core.DefaultDQNAgentConfig(cfg.Channels, len(cfg.TxPowers), cfg.SweepWidth)
	acfg.Hidden = []int{16}
	dqn, err := core.NewDQNAgent(acfg)
	if err != nil {
		t.Fatal(err)
	}
	dqnScheme, err := dqn.Scheme()
	if err != nil {
		t.Fatal(err)
	}
	const clusters, slots = 7, 30
	for _, sch := range []*policy.Scheme{mdp.Scheme(), passive, random, policy.StaticScheme(), dqnScheme} {
		newAgent := func() (env.Agent, error) { return sch.NewAgent(), nil }
		for _, workers := range []int{1, 3} {
			eng, err := NewEngine(EngineConfig{Clusters: clusters, Template: cfg, Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			got, err := eng.Run(func(int) (env.Agent, error) { return newAgent() }, slots)
			if err != nil {
				t.Fatal(err)
			}
			if want := simulatorSum(t, eng, newAgent, slots); got != want {
				t.Errorf("%s at %d workers: engine %+v, want the Simulator sum %+v", sch.Name(), workers, got, want)
			}
		}
	}
}

// TestEngineAgentPerWorker: Run builds at most one agent per worker, and the
// index newAgent gets is the first cluster that agent plays, so a serial run
// builds one agent, for cluster 0.
func TestEngineAgentPerWorker(t *testing.T) {
	cfg := engineTemplate()
	for _, workers := range []int{1, 3} {
		eng, err := NewEngine(EngineConfig{Clusters: 40, Template: cfg, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		var mu sync.Mutex
		var built []int
		_, err = eng.Run(func(i int) (env.Agent, error) {
			mu.Lock()
			built = append(built, i)
			mu.Unlock()
			return randomAgent(t, cfg), nil
		}, 3)
		if err != nil {
			t.Fatal(err)
		}
		if len(built) < 1 || len(built) > workers {
			t.Errorf("%d workers built %d agents, want 1 to %d", workers, len(built), workers)
		}
		if workers == 1 && (len(built) != 1 || built[0] != 0) {
			t.Errorf("a serial run built agents for clusters %v, want only cluster 0's", built)
		}

		// A cluster that fails hands its agent on like one that succeeds.
		var failed atomic.Int64
		_, err = eng.Run(func(int) (env.Agent, error) {
			failed.Add(1)
			return offChannelAgent{}, nil
		}, 3)
		if err == nil || !strings.HasPrefix(err.Error(), "iot: cluster 0: ") {
			t.Errorf("every cluster failing: Run returned %v, want cluster 0's error", err)
		}
		if n := failed.Load(); n < 1 || n > int64(workers) {
			t.Errorf("%d workers built %d agents for failing clusters, want 1 to %d", workers, n, workers)
		}
	}
}

// offChannelAgent always picks a channel no field has, so every cluster it
// plays fails on its first slot.
type offChannelAgent struct{}

func (offChannelAgent) Name() string                     { return "off-channel" }
func (offChannelAgent) Reset(*rng.Source)                {}
func (offChannelAgent) Decide(env.SlotInfo) env.Decision { return env.Decision{Channel: -1} }

// TestEngineRunMemory: what Run allocates grows by at most 16 B per cluster
// between a 2,000- and a 20,000-cluster field, so a run's memory is set by
// its workers and not by its field size. Building an agent per cluster
// and keeping a RunStats per cluster cost about 330 B per cluster with
// this agent; a run now keeps one float64 per cluster.
func TestEngineRunMemory(t *testing.T) {
	cfg := engineTemplate()
	newAgent := func(int) (env.Agent, error) { return randomAgent(t, cfg), nil }
	alloc := func(clusters int) int64 {
		eng, err := NewEngine(EngineConfig{Clusters: clusters, Template: cfg, Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		if _, err := eng.Run(newAgent, 2); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return int64(after.TotalAlloc - before.TotalAlloc)
	}
	alloc(2) // fill the cluster pool
	small, large := alloc(2000), alloc(20000)
	if per := (large - small) / 18000; per > 16 {
		t.Errorf("Run allocates %d B more per cluster from 2,000 to 20,000 clusters (%d B, then %d B), want ≤ 16", per, small, large)
	}
}
