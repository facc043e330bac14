package main

import (
	"fmt"
	"path/filepath"
	"runtime"
	"time"

	"ctjam"
	"ctjam/internal/core"
	"ctjam/internal/env"
	"ctjam/internal/iot"
)

// fieldSchemes is the `ctjam-field -clusters` comparison, in the order the
// goodput check expects to increase.
var fieldSchemes = []ctjam.Scheme{ctjam.SchemePassive, ctjam.SchemeRandom, ctjam.SchemeMDP}

func fieldOptions(r *run) ctjam.FieldScaleOptions {
	return ctjam.FieldScaleOptions{
		Clusters:        r.sz.fieldClusters,
		NodesPerCluster: r.sz.fieldNodes,
		Slots:           r.sz.fieldSlots,
		// SlotDuration 0 keeps ctjam-field's 3 s slot; Workers 0 is GOMAXPROCS.
	}
}

// checkGoodput checks Fig. 11(a)'s ordering, mdp > random > passive.
func checkGoodput(g []float64) error {
	if !(g[2] > g[1] && g[1] > g[0]) {
		return fmt.Errorf("field goodput passive %.1f, random %.1f, mdp %.1f: want mdp > random > passive", g[0], g[1], g[2])
	}
	return nil
}

func runField(r *run) error {
	cfg := ctjam.DefaultConfig()
	cfg.Seed = r.seed
	// Set-up is what the comparison needs before its first field run: the
	// solved MDP policy.
	var pol *ctjam.Policy
	st, err := newSetupTimer(r.sz.setupReps, func() (func() error, error) {
		var err error
		pol, err = ctjam.SolveMDP(cfg)
		return nil, err
	})
	if err != nil {
		return err
	}

	compare := func() ([]float64, error) {
		g := make([]float64, len(fieldSchemes))
		for i, s := range fieldSchemes {
			r.attempted++
			res, err := ctjam.FieldScale(cfg, s, pol, fieldOptions(r))
			if err != nil {
				r.failed++
				return nil, err
			}
			g[i] = res.GoodputPktsPerSlot
		}
		return g, nil
	}
	want, err := compare() // warm-up, and the reference goodputs
	if err != nil {
		return err
	}
	if err := checkGoodput(want); err != nil {
		r.fail("field: %v", err)
	}
	same := func(g []float64) {
		for i := range g {
			if g[i] != want[i] {
				r.failed++
				r.fail("field: %s goodput %v differs from the first comparison's %v", fieldSchemes[i], g[i], want[i])
			}
		}
	}
	budget := r.halfIfTraced()
	ss, err := repeat(budget, func() error {
		g, err := compare()
		if err != nil {
			return err
		}
		same(g)
		return nil
	}, st.between)
	if err != nil {
		return err
	}
	r.e2e["setup_s"] = st.median()
	deliveries := float64(len(fieldSchemes) * r.sz.fieldClusters * r.sz.fieldSlots)
	r.report(ss, deliveries)
	if !r.trace {
		return nil
	}
	return traceField(r, want, ss)
}

// traceField repeats the comparison through iot.NewEngine and Engine.Run
// with FieldScale's configuration, so spans can close around the engine
// build, the run, and every agent decision.
func traceField(r *run, want []float64, untraced samples) error {
	ecfg := env.DefaultConfig()
	ecfg.Seed = r.seed
	icfg := iot.DefaultConfig()
	icfg.Seed = r.seed
	icfg.Nodes = r.sz.fieldNodes
	model, err := core.NewModel(core.ParamsFromEnv(ecfg))
	if err != nil {
		return err
	}
	mdpAgent, err := core.NewMDPAgent(model, nil, ecfg.Channels, ecfg.SweepWidth)
	if err != nil {
		return err
	}
	mdpScheme := mdpAgent.Scheme()
	factories := []func() (env.Agent, error){
		func() (env.Agent, error) { return core.NewPassiveFH(ecfg.Channels, ecfg.SweepWidth) },
		func() (env.Agent, error) { return core.NewRandomFH(ecfg.Channels, ecfg.SweepWidth, len(ecfg.TxPowers)) },
		func() (env.Agent, error) { return mdpScheme.NewAgent(), nil },
	}

	var build, runs, decide []float64
	var deliveries int
	prof := filepath.Join(r.work, "field.pprof")
	ph, err := startPhase(prof)
	if err != nil {
		return err
	}
	budget := r.halfIfTraced()
	tss, err := repeat(budget, func() error {
		for i, newAgent := range factories {
			r.attempted++
			t := time.Now()
			eng, err := iot.NewEngine(iot.EngineConfig{Clusters: r.sz.fieldClusters, Template: icfg})
			if err != nil {
				return err
			}
			build = append(build, time.Since(t).Seconds())
			decideNs := make([]time.Duration, r.sz.fieldClusters)
			t = time.Now()
			st, err := eng.Run(func(c int) (env.Agent, error) {
				a, err := newAgent()
				return &timedAgent{Agent: a, spent: &decideNs[c]}, err
			}, r.sz.fieldSlots)
			if err != nil {
				r.failed++
				return err
			}
			runs = append(runs, time.Since(t).Seconds())
			var sum time.Duration
			for _, d := range decideNs {
				sum += d
			}
			decide = append(decide, sum.Seconds())
			deliveries = st.SlotDeliveries
			if st.GoodputPktsPerSlot != want[i] {
				r.failed++
				r.fail("field: engine-level %s goodput %v differs from FieldScale's %v",
					fieldSchemes[i], st.GoodputPktsPerSlot, want[i])
			}
		}
		return nil
	}, nil)
	if err != nil {
		return err
	}
	st, err := ph.stop()
	if err != nil {
		return err
	}
	if err := attribute(r, prof); err != nil {
		return err
	}
	r.layer["iot.build_s"] = median(build)
	r.layer["iot.run_s"] = median(runs)
	r.layer["policy.decide_s"] = median(decide)
	r.layer["iot.slot_deliveries"] = float64(deliveries)
	// The live heap with one built engine, after a collection, outside the
	// timed phase.
	runtime.GC()
	eng, err := iot.NewEngine(iot.EngineConfig{Clusters: r.sz.fieldClusters, Template: icfg})
	if err != nil {
		return err
	}
	runtime.GC()
	r.layer["runtime.heap_after_build_mb"] = readRuntime()[mHeapObj] / (1 << 20)
	runtime.KeepAlive(eng)
	r.layer["runtime.alloc_b_per_delivery"] = st.allocBytes / float64(len(runs)*deliveries)
	r.layer["parallel.cpu_util"] = st.cpuUtil
	r.layer["runtime.gc_cpu_share"] = st.gcShare
	r.layer["trace.overhead"] = overhead(untraced, tss)
	return nil
}

// timedAgent adds the time spent in Decide to *spent. Each cluster gets its
// own agent and counter, so no two goroutines share one.
type timedAgent struct {
	env.Agent
	spent *time.Duration
}

func (a *timedAgent) Decide(prev env.SlotInfo) env.Decision {
	t := time.Now()
	d := a.Agent.Decide(prev)
	*a.spent += time.Since(t)
	return d
}
