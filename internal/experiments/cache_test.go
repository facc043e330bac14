package experiments

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"ctjam/internal/env"
	"ctjam/internal/jammer"
	"ctjam/internal/metrics"
)

// sweepPanelIDs are the 20 metric panels of Figs. 6-8 plus Table I — every
// experiment that evaluates sweep points through the shared cache.
var sweepPanelIDs = []string{
	"fig6a", "fig6b", "fig6c", "fig6d",
	"fig7a", "fig7b", "fig7c", "fig7d", "fig7e", "fig7f", "fig7g", "fig7h",
	"fig8a", "fig8b", "fig8c", "fig8d", "fig8e", "fig8f", "fig8g", "fig8h",
	"table1",
}

// cacheTestOptions keeps the equivalence runs cheap: MDP engine, short
// evaluations. All fields are set explicitly so withFloor leaves them alone.
func cacheTestOptions() Options {
	return Options{
		Slots:      600,
		Engine:     EngineMDP,
		TrainSlots: 1500,
		FieldSlots: 50,
		Trials:     60,
		Seed:       5,
		Workers:    1,
	}
}

// TestSweepCacheEquivalence is the headline determinism guarantee of the
// sweep-point cache: running all 20 metric panels plus Table I against one
// shared cache — serially and with a parallel worker pool — produces Results
// bit-identical to fresh uncached runs.
func TestSweepCacheEquivalence(t *testing.T) {
	base := cacheTestOptions()
	baseline := make(map[string]*Result, len(sweepPanelIDs))
	for _, id := range sweepPanelIDs {
		o := base // fresh private cache per run: no cross-run reuse
		res, err := Run(id, o)
		if err != nil {
			t.Fatalf("%s baseline: %v", id, err)
		}
		baseline[id] = res
	}

	for _, workers := range []int{1, 8} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			o := base
			o.Workers = workers
			o.Cache = NewCache()
			for _, id := range sweepPanelIDs {
				res, err := Run(id, o)
				if err != nil {
					t.Fatalf("%s shared-cache: %v", id, err)
				}
				if !reflect.DeepEqual(res, baseline[id]) {
					t.Errorf("%s: shared-cache result differs from uncached baseline:\ngot:  %+v\nwant: %+v",
						id, res, baseline[id])
				}
			}
			st := o.Cache.Stats()
			if st.PointHits == 0 {
				t.Error("shared cache recorded no point reuse across the panels")
			}
		})
	}
}

// TestSweepCacheStats pins the exact reuse arithmetic: the five metric panels
// of the L_J sweep share 28 points (2 jammer modes x 14 x-values), and the
// Table I defaults coincide with the L_J=100 points, so a cache shared across
// all six runs computes 28 points once and serves every other lookup from
// memory.
func TestSweepCacheStats(t *testing.T) {
	o := cacheTestOptions()
	o.Cache = NewCache()
	ids := []string{"fig6a", "fig7a", "fig7b", "fig8a", "fig8b", "table1"}
	for _, id := range ids {
		if _, err := Run(id, o); err != nil {
			t.Fatalf("%s: %v", id, err)
		}
	}
	st := o.Cache.Stats()
	if st.PointMisses != 28 {
		t.Errorf("point misses = %d, want 28 (2 modes x 14 L_J values)", st.PointMisses)
	}
	// Four follow-up panels re-read all 28 points; table1 reads its 2.
	if want := int64(4*28 + 2); st.PointHits != want {
		t.Errorf("point hits = %d, want %d", st.PointHits, want)
	}
	if st.Schemes != 28 {
		t.Errorf("schemes = %d, want 28 (x and mode both enter the MDP model)", st.Schemes)
	}
}

// TestSweepCacheConcurrent hammers one cache from concurrent experiment runs
// (every panel twice, each with its own worker pool) and checks the results
// still match fresh uncached runs. Run under -race this exercises the
// claim/wait protocol: duplicate claims, lockstep groups, and readers
// blocking on points another run is computing.
func TestSweepCacheConcurrent(t *testing.T) {
	base := cacheTestOptions()
	base.Slots = 300
	ids := []string{"fig6a", "fig7a", "fig7b", "fig8a", "fig8b", "table1"}

	baseline := make(map[string]*Result, len(ids))
	for _, id := range ids {
		res, err := Run(id, base)
		if err != nil {
			t.Fatalf("%s baseline: %v", id, err)
		}
		baseline[id] = res
	}

	o := base
	o.Workers = 4
	o.Cache = NewCache()
	var wg sync.WaitGroup
	errs := make(chan error, 2*len(ids))
	for round := 0; round < 2; round++ {
		for _, id := range ids {
			wg.Add(1)
			go func(id string) {
				defer wg.Done()
				res, err := Run(id, o)
				if err != nil {
					errs <- fmt.Errorf("%s: %w", id, err)
					return
				}
				if !reflect.DeepEqual(res, baseline[id]) {
					errs <- fmt.Errorf("%s: concurrent shared-cache result differs from baseline", id)
				}
			}(id)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestBatchedSerialEvalCounters is the batched-evaluation acceptance check:
// for both engines, the Counters produced by runPoints (snapshot scheme +
// env.BatchRun, siblings evaluated in lockstep) are identical to a serial
// reference that trains a fresh agent per point and steps it through env.Run.
// Three configs differ only in evaluation seed, so under runPoints they share
// one trained scheme and one batch; the fourth (other jammer mode) is its own
// group.
func TestBatchedSerialEvalCounters(t *testing.T) {
	mkCfg := func(mode jammer.PowerMode, seed int64) env.Config {
		cfg := env.DefaultConfig()
		cfg.LossJam = 40
		cfg.JammerMode = mode
		cfg.Seed = seed
		return cfg
	}
	cfgs := []env.Config{
		mkCfg(jammer.ModeMax, 3),
		mkCfg(jammer.ModeMax, 4),
		mkCfg(jammer.ModeMax, 5),
		mkCfg(jammer.ModeRandom, 3),
	}
	for _, engine := range []Engine{EngineMDP, EngineDQN} {
		t.Run(engine.String(), func(t *testing.T) {
			o := Options{
				Slots:      400,
				Engine:     engine,
				TrainSlots: 700,
				Seed:       3,
				Workers:    2,
				Cache:      NewCache(),
			}
			batched, err := runPoints(o, asPoints(cfgs), func(i int) string { return fmt.Sprintf("cfg %d", i) })
			if err != nil {
				t.Fatal(err)
			}
			for i, cfg := range cfgs {
				_, agent, err := schemeCheckpoint(o, cfg)
				if err != nil {
					t.Fatal(err)
				}
				e, err := env.New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				serial, err := env.Run(e, agent, o.Slots)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(batched[i], serial) {
					t.Errorf("cfg %d (mode=%v seed=%d): batched counters %+v != serial %+v",
						i, cfg.JammerMode, cfg.Seed, batched[i], serial)
				}
			}
			st := o.Cache.Stats()
			if st.Schemes != 2 {
				t.Errorf("schemes trained = %d, want 2 (eval seed must not enter the scheme key)", st.Schemes)
			}
			var zero metrics.Counters
			for i, c := range batched {
				if c == zero {
					t.Errorf("cfg %d produced zero counters", i)
				}
			}
		})
	}
}
