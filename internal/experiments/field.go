package experiments

import (
	"fmt"
	"time"

	"ctjam/internal/env"
	"ctjam/internal/iot"
	"ctjam/internal/metrics"
	"ctjam/internal/parallel"
	"ctjam/internal/policy"
)

// FieldSpec describes one field-simulator run: the network layout, jammer
// setting, defense scheme and run length. Together with the Options budget
// (which shapes the RL FH scheme) it fully determines an iot.RunStats.
type FieldSpec struct {
	// Defense is the Point.Defense tag of the scheme every cluster plays:
	// DefenseRL ("") for the engine-selected RL FH, or a baseline tag.
	Defense string
	// Jammer enables the cross-technology jammer.
	Jammer bool
	// Clusters is the number of independent hopping clusters of the field
	// engine (1 = the paper's single star network).
	Clusters int
	// Nodes is the peripheral-node count per cluster.
	Nodes int
	// SlotDuration / JammerSlot follow iot.Config.
	SlotDuration time.Duration
	JammerSlot   time.Duration
	// Seed is the base simulation seed (cluster streams derive from it).
	Seed int64
	// Slots is the run length in Tx slots per cluster.
	Slots int
}

// fieldConfig materializes the per-cluster iot.Config of a spec.
func fieldConfig(s FieldSpec) iot.Config {
	cfg := iot.DefaultConfig()
	cfg.Nodes = s.Nodes
	cfg.SlotDuration = s.SlotDuration
	cfg.JammerSlot = s.JammerSlot
	cfg.JammerEnabled = s.Jammer
	cfg.Seed = s.Seed
	return cfg
}

// Point returns the sweep point whose scheme the field run plays: the
// paper's default environment (the field simulator's channel and power
// layout) with the spec's defense. The RL FH field runs thereby share the
// Table I scheme of the scheme memo instead of training their own.
func (s FieldSpec) Point() Point {
	cfg := env.DefaultConfig()
	cfg.Seed = s.Seed
	return Point{Config: cfg, Defense: s.Defense}
}

// runFieldSpecs executes one run per spec on the field engine, every cluster
// playing the spec's scheme (a 1-cluster engine is the paper's single star
// network), fanning the specs out across o.Workers goroutines. Field
// runs are cheap and not memoized; only their schemes come from the scheme
// memo. Results are collected into a slice indexed by spec and o.Workers
// only shards the engine, so the output is bit-identical at any worker
// count.
func runFieldSpecs(o Options, specs []FieldSpec) ([]iot.RunStats, error) {
	return parallel.Map(o.Workers, len(specs), func(i int) (iot.RunStats, error) {
		s := specs[i]
		p := s.Point()
		sch, err := o.Cache.scheme(o.Context, schemeKey(o, p), func() (*policy.Scheme, []byte, error) {
			return buildSchemeFor(o, p)
		})
		if err != nil {
			return iot.RunStats{}, err
		}
		eng, err := iot.NewEngine(iot.EngineConfig{Clusters: s.Clusters, Template: fieldConfig(s), Workers: o.Workers})
		if err != nil {
			return iot.RunStats{}, err
		}
		st, err := eng.Run(func(int) (env.Agent, error) { return sch.NewAgent(), nil }, s.Slots)
		if err != nil {
			return iot.RunStats{}, err
		}
		return st.RunStats(), nil
	})
}

// runFig9a samples the per-function time consumption (Fig. 9a).
func runFig9a(o Options) (*Result, error) {
	sim, err := iot.New(iot.DefaultConfig())
	if err != nil {
		return nil, err
	}
	samples := sim.FunctionTimings(100)
	res := &Result{
		Title:  "time consumption of typical functions (ms)",
		XLabel: "function",
		YLabel: "time (ms)",
		PaperNote: "Fig. 9(a): DQN 9 ms, ACK round trip 0.9 ms, " +
			"processing 0.6 ms, polling 13.1 ms per node",
	}
	order := []string{"DQN", "ACK", "Proc", "Polling"}
	mean := Series{Name: "mean"}
	p95 := Series{Name: "p95"}
	for i, name := range order {
		xs, ok := samples[name]
		if !ok {
			return nil, fmt.Errorf("missing timing samples for %s", name)
		}
		res.XTicks = append(res.XTicks, name)
		mean.X = append(mean.X, float64(i))
		mean.Y = append(mean.Y, 1000*metrics.Mean(xs))
		p95.X = append(p95.X, float64(i))
		p95.Y = append(p95.Y, 1000*metrics.Percentile(xs, 0.95))
	}
	res.Series = append(res.Series, mean, p95)
	return res, nil
}

// runFig9b measures FH negotiation time versus network size (Fig. 9b).
func runFig9b(o Options) (*Result, error) {
	cfg := iot.DefaultConfig()
	cfg.Seed = o.Seed
	sim, err := iot.New(cfg)
	if err != nil {
		return nil, err
	}
	res := &Result{
		Title:  "FH negotiation time vs network size",
		XLabel: "# of nodes",
		YLabel: "negotiation time (s)",
		PaperNote: "Fig. 9(b): negotiation time grows with node count and can reach " +
			"several seconds when off-channel nodes must be recovered",
	}
	// The paper's measurement includes nodes stranded on stale channels;
	// 0.25 reflects that cold-start condition (see DESIGN.md). Each node
	// count seeds its own trial RNG, so the points fan out independently.
	const coldStartOffProb = 0.25
	const maxNodes = 10
	trials, err := parallel.Map(o.Workers, maxNodes, func(p int) ([]float64, error) {
		return sim.NegotiationTimes(p+1, o.Trials, coldStartOffProb)
	})
	if err != nil {
		return nil, err
	}
	mean := Series{Name: "mean"}
	p95 := Series{Name: "p95"}
	maxS := Series{Name: "max"}
	for p, xs := range trials {
		nodes := float64(p + 1)
		mean.X = append(mean.X, nodes)
		mean.Y = append(mean.Y, metrics.Mean(xs))
		p95.X = append(p95.X, nodes)
		p95.Y = append(p95.Y, metrics.Percentile(xs, 0.95))
		maxS.X = append(maxS.X, nodes)
		maxS.Y = append(maxS.Y, metrics.Percentile(xs, 1))
	}
	res.Series = append(res.Series, mean, p95, maxS)
	return res, nil
}

// slotDurations for Fig. 10.
var fig10Slots = []time.Duration{
	1 * time.Second, 2 * time.Second, 3 * time.Second, 4 * time.Second, 5 * time.Second,
}

// runFig10a measures goodput versus Tx-slot duration (Fig. 10a).
func runFig10a(o Options) (*Result, error) {
	res := &Result{
		Title:     "goodput vs Tx timeslot duration",
		XLabel:    "duration of Tx timeslot (s)",
		YLabel:    "goodput (pkts/timeslot)",
		PaperNote: "Fig. 10(a): packets per slot grow from ~148 at 1 s to ~806 at 5 s",
	}
	runs, err := fig10Runs(o)
	if err != nil {
		return nil, err
	}
	s := Series{Name: "goodput"}
	for i, d := range fig10Slots {
		s.X = append(s.X, d.Seconds())
		s.Y = append(s.Y, runs[i].GoodputPktsPerSlot)
	}
	res.Series = append(res.Series, s)
	return res, nil
}

// fig10Specs enumerates the per-slot-duration field runs of Fig. 10: an
// unjammed static network per duration. Both fig10 panels read the same
// runs.
func fig10Specs(o Options) []FieldSpec {
	base := iot.DefaultConfig()
	specs := make([]FieldSpec, len(fig10Slots))
	for i, d := range fig10Slots {
		specs[i] = FieldSpec{
			Defense:      DefenseStatic,
			Jammer:       false,
			Clusters:     1,
			Nodes:        base.Nodes,
			SlotDuration: d,
			JammerSlot:   base.JammerSlot,
			Seed:         o.Seed,
			Slots:        o.FieldSlots,
		}
	}
	return specs
}

// fig10Runs evaluates the Fig. 10 field runs.
func fig10Runs(o Options) ([]iot.RunStats, error) {
	return runFieldSpecs(o, fig10Specs(o))
}

// runFig10b measures slot utilization versus Tx-slot duration (Fig. 10b).
func runFig10b(o Options) (*Result, error) {
	res := &Result{
		Title:     "timeslot utilization vs Tx timeslot duration",
		XLabel:    "duration of Tx timeslot (s)",
		YLabel:    "utilization (%) / effective Tx time (s)",
		PaperNote: "Fig. 10(b): utilization grows from 91.75% at 1 s to 98.58% at 5 s",
	}
	runs, err := fig10Runs(o)
	if err != nil {
		return nil, err
	}
	util := Series{Name: "utilization %"}
	eff := Series{Name: "effective Tx time (s)"}
	for i, d := range fig10Slots {
		util.X = append(util.X, d.Seconds())
		util.Y = append(util.Y, 100*runs[i].MeanUtilization)
		eff.X = append(eff.X, d.Seconds())
		eff.Y = append(eff.Y, runs[i].MeanUtilization*d.Seconds())
	}
	res.Series = append(res.Series, util, eff)
	return res, nil
}

// fig11aSpecs enumerates the four scheme-comparison runs of Fig. 11a: the
// three FH schemes under the jammer plus the static no-jammer reference.
func fig11aSpecs(o Options) []FieldSpec {
	base := iot.DefaultConfig()
	mk := func(defense string, jam bool) FieldSpec {
		return FieldSpec{
			Defense:      defense,
			Jammer:       jam,
			Clusters:     1,
			Nodes:        base.Nodes,
			SlotDuration: base.SlotDuration,
			JammerSlot:   base.JammerSlot,
			Seed:         o.Seed,
			Slots:        o.FieldSlots,
		}
	}
	return []FieldSpec{
		mk(DefensePassive, true),
		mk(DefenseRandom, true),
		mk(DefenseRL, true),
		mk(DefenseStatic, false),
	}
}

// runFig11a compares the anti-jamming schemes' goodput (Fig. 11a). Each run
// plays a fresh agent of its scheme on its own 1-cluster engine (see
// runFieldSpecs), so the four runs are independent and fan out across
// o.Workers goroutines.
func runFig11a(o Options) (*Result, error) {
	res := &Result{
		Title:  "goodput by anti-jamming scheme (3 s slots, CTJ jammer)",
		XLabel: "scheme",
		YLabel: "goodput (pkts/timeslot)",
		XTicks: []string{"PSV FH", "Rand FH", "RL FH", "w/o Jx"},
		PaperNote: "Fig. 11(a): PSV 216, Rand 311, RL 431, w/o Jx 575 pkts/slot " +
			"(RL = 2x PSV, 1.39x Rand, 78.5% of no-jammer)",
	}
	runs, err := runFieldSpecs(o, fig11aSpecs(o))
	if err != nil {
		return nil, err
	}
	measured := Series{Name: "goodput"}
	for i, run := range runs {
		measured.X = append(measured.X, float64(i))
		measured.Y = append(measured.Y, run.GoodputPktsPerSlot)
	}
	paper := Series{
		Name: "paper",
		X:    []float64{0, 1, 2, 3},
		Y:    []float64{216, 311, 431, 575},
	}
	res.Series = append(res.Series, measured, paper)
	return res, nil
}

// fig11bJamSecs are the jammer slot durations of Fig. 11b.
var fig11bJamSecs = []float64{0.5, 1, 1.5, 2, 2.5, 3, 3.5, 4, 4.5, 5}

// fig11bSpecs enumerates the per-jammer-slot RL runs of Fig. 11b. Every run
// plays the one RL FH scheme of the default config (trained once, shared
// with fig11a and Table I through the scheme memo); each run gets a fresh
// per-link agent of it, so results are identical at any worker count.
func fig11bSpecs(o Options) []FieldSpec {
	base := iot.DefaultConfig()
	specs := make([]FieldSpec, len(fig11bJamSecs))
	for i, sec := range fig11bJamSecs {
		specs[i] = FieldSpec{
			Defense:      DefenseRL,
			Jammer:       true,
			Clusters:     1,
			Nodes:        base.Nodes,
			SlotDuration: base.SlotDuration,
			JammerSlot:   time.Duration(sec * float64(time.Second)),
			Seed:         o.Seed,
			Slots:        o.FieldSlots,
		}
	}
	return specs
}

// runFig11b measures goodput versus the jammer's slot duration (Fig. 11b).
func runFig11b(o Options) (*Result, error) {
	res := &Result{
		Title:  "goodput vs jammer timeslot duration (Tx slot fixed at 3 s)",
		XLabel: "duration of Jx timeslot (s)",
		YLabel: "goodput (pkts/timeslot)",
		PaperNote: "Fig. 11(b): best goodput (~421 pkts/slot) when Jx slot matches the " +
			"3 s Tx slot; shorter Jx slots find the victim faster and hurt goodput",
	}
	runs, err := runFieldSpecs(o, fig11bSpecs(o))
	if err != nil {
		return nil, err
	}
	goodputs := make([]float64, len(runs))
	for i, run := range runs {
		goodputs[i] = run.GoodputPktsPerSlot
	}
	s := Series{Name: "goodput", X: fig11bJamSecs, Y: goodputs}
	res.Series = append(res.Series, s)
	return res, nil
}

// scaleClusterCounts are the field sizes of the scale experiment, in
// clusters of DefaultConfig().Nodes peripherals each.
var scaleClusterCounts = []int{1, 4, 16, 64}

// scaleSpecs enumerates the goodput-vs-scale runs: the random-FH scheme
// under one CTJ jammer per cluster, scaling the cluster count. Random FH
// needs no training, so the runs measure engine scaling rather than scheme
// construction.
func scaleSpecs(o Options) []FieldSpec {
	base := iot.DefaultConfig()
	specs := make([]FieldSpec, len(scaleClusterCounts))
	for i, cl := range scaleClusterCounts {
		specs[i] = FieldSpec{
			Defense:      DefenseRandom,
			Jammer:       true,
			Clusters:     cl,
			Nodes:        base.Nodes,
			SlotDuration: base.SlotDuration,
			JammerSlot:   base.JammerSlot,
			Seed:         o.Seed,
			Slots:        o.FieldSlots,
		}
	}
	return specs
}

// runScale measures field-wide goodput versus network scale on the sharded
// engine — the scale-out study beyond the paper's 4-node testbed. Field
// goodput sums across clusters (each cluster delivers on its own channel),
// so ideal scaling is linear in the cluster count; the per-cluster series
// exposes any deviation.
func runScale(o Options) (*Result, error) {
	res := &Result{
		Title:  "field goodput vs network scale (sharded engine, Rand FH)",
		XLabel: "total peripheral nodes",
		YLabel: "goodput (pkts/timeslot)",
		PaperNote: "scale-out study: independent hopping clusters, each with its own " +
			"CTJ jammer stream; field goodput grows linearly with cluster count while " +
			"per-cluster goodput stays at the single-network level",
	}
	specs := scaleSpecs(o)
	runs, err := runFieldSpecs(o, specs)
	if err != nil {
		return nil, err
	}
	total := Series{Name: "field goodput"}
	per := Series{Name: "per-cluster goodput"}
	for i, s := range specs {
		nodes := float64(s.Clusters * s.Nodes)
		total.X = append(total.X, nodes)
		total.Y = append(total.Y, runs[i].GoodputPktsPerSlot)
		per.X = append(per.X, nodes)
		per.Y = append(per.Y, runs[i].GoodputPktsPerSlot/float64(s.Clusters))
	}
	res.Series = append(res.Series, total, per)
	return res, nil
}
