// Package ctjam reproduces "Defending against Cross-Technology Jamming in
// Heterogeneous IoT Systems" (ICDCS 2022): a hybrid anti-jamming scheme for
// ZigBee networks under attack by a Wi-Fi cross-technology jammer, combining
// frequency hopping and power control, modeled as an MDP and solved both
// exactly (value iteration) and with a Deep Q-Network.
//
// The package is a facade over the internal implementation:
//
//   - Evaluate runs an anti-jamming scheme in the slot-level jamming
//     environment and reports the paper's Table I metrics.
//   - TrainDQN trains the paper's DQN scheme and returns a persistable
//     policy.
//   - FieldCompare runs the discrete-event testbed simulator (goodput per
//     scheme, Fig. 11a); FieldScale runs the sharded multi-cluster engine
//     for large fields.
//   - EmulateZigBee builds an "EmuBee" waveform: a Wi-Fi-transmittable
//     emulation of a ZigBee signal (Fig. 1-2).
//   - RunExperiment / RunExperiments regenerate the paper's figures/tables
//     by id, sharing one sweep-point cache across a batch.
package ctjam

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"time"

	"ctjam/internal/atomicfile"
	"ctjam/internal/ckpt"
	"ctjam/internal/core"
	"ctjam/internal/env"
	"ctjam/internal/experiments"
	"ctjam/internal/fault"
	"ctjam/internal/iot"
	"ctjam/internal/jammer"
	"ctjam/internal/phy/emulate"
	"ctjam/internal/phy/zigbee"
	pol "ctjam/internal/policy"
)

// JammerMode selects the attacker's power strategy.
type JammerMode string

// Jammer modes (§II-C1).
const (
	// JammerMax is the high-performance mode: always maximum power.
	JammerMax JammerMode = "max"
	// JammerRandom is the hidden mode: uniformly random power.
	JammerRandom JammerMode = "random"
)

func (m JammerMode) internal() (jammer.PowerMode, error) {
	switch m {
	case JammerMax, "":
		return jammer.ModeMax, nil
	case JammerRandom:
		return jammer.ModeRandom, nil
	default:
		return 0, fmt.Errorf("ctjam: unknown jammer mode %q", m)
	}
}

// Scheme names an anti-jamming scheme.
type Scheme string

// Schemes compared in §IV-D3.
const (
	// SchemeRL is the paper's DQN-learned policy (requires TrainDQN) —
	// "RL FH".
	SchemeRL Scheme = "rl"
	// SchemeMDP is the exact optimal policy from value iteration; the
	// DQN approximates it.
	SchemeMDP Scheme = "mdp"
	// SchemePassive hops only after the error rate trips — "PSV FH".
	SchemePassive Scheme = "passive"
	// SchemeRandom picks FH or PC at random each slot — "Rand FH".
	SchemeRandom Scheme = "random"
	// SchemeStatic never defends (reference victim).
	SchemeStatic Scheme = "static"
	// SchemeQLearning is the tabular Q-learning baseline (requires
	// TrainQLearning) the paper's DQN is motivated against.
	SchemeQLearning Scheme = "qlearning"
)

// Config describes the jamming scenario (paper defaults via DefaultConfig).
type Config struct {
	// Channels is K, the ZigBee channel count (16).
	Channels int
	// SweepWidth is m, channels jammed per slot (4).
	SweepWidth int
	// PowerLevels is the number of victim/jammer power levels (10).
	PowerLevels int
	// TxPowerLow is the victim's lowest power loss L^T (6); levels run
	// [TxPowerLow, TxPowerLow+PowerLevels-1]. The jammer's levels run
	// [JamPowerLow, ...] analogously (11).
	TxPowerLow  float64
	JamPowerLow float64
	// LossHop is L_H (50) and LossJam is L_J (100) from Eq. (5).
	LossHop float64
	LossJam float64
	// Jammer selects the attacker's power mode.
	Jammer JammerMode
	// JammerSpec selects the attacker's hopping strategy from the jammer
	// zoo, in the internal/jammer spec grammar — e.g. "sweep",
	// "reactive:delay=2,miss=0.1", "adaptive:alpha=0.2",
	// "budget:duty=0.5,over=(reactive)". Empty means the paper's §II-C
	// sweeping jammer.
	JammerSpec string
	// Seed makes runs reproducible.
	Seed int64
	// FaultSpec optionally layers deterministic fault injection on top of
	// the jammer, in the internal/fault grammar — e.g.
	// "burst:p=0.1,power=30;ack:p=0.02". Empty disables injection. Faults
	// are pure functions of (seed, slot), so they preserve reproducibility
	// and compose with checkpoint/resume.
	FaultSpec string
}

// DefaultConfig returns the paper's simulation parameters (§IV-A1).
func DefaultConfig() Config {
	return Config{
		Channels:    16,
		SweepWidth:  4,
		PowerLevels: 10,
		TxPowerLow:  6,
		JamPowerLow: 11,
		LossHop:     50,
		LossJam:     100,
		Jammer:      JammerMax,
		Seed:        1,
	}
}

func (c Config) internal() (env.Config, error) {
	mode, err := c.Jammer.internal()
	if err != nil {
		return env.Config{}, err
	}
	if c.PowerLevels <= 0 {
		return env.Config{}, fmt.Errorf("ctjam: power levels %d must be positive", c.PowerLevels)
	}
	tx := make([]float64, c.PowerLevels)
	jam := make([]float64, c.PowerLevels)
	for i := 0; i < c.PowerLevels; i++ {
		tx[i] = c.TxPowerLow + float64(i)
		jam[i] = c.JamPowerLow + float64(i)
	}
	cfg := env.Config{
		Channels:   c.Channels,
		SweepWidth: c.SweepWidth,
		TxPowers:   tx,
		JamPowers:  jam,
		JammerMode: mode,
		Jammer:     c.JammerSpec,
		LossHop:    c.LossHop,
		LossJam:    c.LossJam,
		Seed:       c.Seed,
	}
	if err := cfg.Validate(); err != nil {
		return env.Config{}, err
	}
	inj, err := fault.Parse(c.FaultSpec, c.Seed)
	if err != nil {
		return env.Config{}, err
	}
	cfg.Faults = inj
	return cfg, nil
}

// Metrics are the paper's Table I evaluation metrics, as fractions in
// [0, 1].
type Metrics struct {
	// ST is the success rate of transmission.
	ST float64
	// AH / SH are the adoption and success rates of frequency hopping.
	AH, SH float64
	// AP / SP are the adoption and success rates of power control.
	AP, SP float64
	// JamRate is the fraction of slots spent co-channel with the jammer.
	JamRate float64
	// Slots is the evaluation length.
	Slots int
}

// Policy is a trained (or solved) anti-jamming policy. It records the
// scheme it plays and how to snapshot that scheme's current parameters for
// a run.
type Policy struct {
	scheme   Scheme
	snapshot func() (*pol.Scheme, error)
	dqn      *core.DQNAgent // non-nil when the policy is a trained DQN
}

// TrainDQN trains the paper's DQN scheme online in the configured
// environment for trainSlots slots (§IV-B uses >120k transitions; 30k
// reaches the reported performance in this simulator).
func TrainDQN(cfg Config, trainSlots int) (*Policy, error) {
	return TrainDQNWithOptions(cfg, trainSlots, TrainOptions{})
}

// TrainOptions adds crash-safe checkpointing to DQN training. All fields are
// optional; the zero value trains straight through without checkpoints.
type TrainOptions struct {
	// Checkpoint is the snapshot file path; empty disables checkpointing.
	// Snapshots are written atomically (temp file + rename), so a crash
	// mid-write leaves the previous snapshot intact.
	Checkpoint string
	// CheckpointEvery is the slot interval between snapshot writes
	// (default 1000 when Checkpoint is set).
	CheckpointEvery int
	// Resume restores the snapshot at Checkpoint before training; a
	// missing file starts from scratch. The training target (trainSlots)
	// must match the original run's, since the exploration schedule is
	// derived from it.
	Resume bool
	// StopAfter, when positive, halts training after that many total
	// slots even though the schedule targets trainSlots — simulating a
	// crash for resume testing. The returned policy reflects the partial
	// run.
	StopAfter int
	// Keep, when positive, switches Checkpoint from a single snapshot file
	// to a rotating generational store: Checkpoint then names a DIRECTORY
	// into which each snapshot is written as ckpt-NNNNNN.ctdq (named by
	// training slot), retaining only the newest Keep generations. Resume
	// scans the directory newest-to-oldest and falls back to an older
	// generation when the newest is corrupt, so a crash mid-write (or a
	// truncated file) costs at most one checkpoint interval.
	Keep int
}

// TrainDQNWithOptions is TrainDQN with checkpoint/resume support. A run that
// is killed and resumed from its latest snapshot produces a policy (and
// downstream metrics) bit-identical to an uninterrupted run with the same
// configuration and training target.
func TrainDQNWithOptions(cfg Config, trainSlots int, opts TrainOptions) (*Policy, error) {
	ecfg, err := cfg.internal()
	if err != nil {
		return nil, err
	}
	build := func() (*core.DQNAgent, *env.Environment, error) {
		agent, err := core.NewTrainingDQNAgent(ecfg, cfg.Seed, trainSlots)
		if err != nil {
			return nil, nil, err
		}
		e, err := env.New(ecfg)
		if err != nil {
			return nil, nil, err
		}
		return agent, e, nil
	}
	agent, e, err := build()
	if err != nil {
		return nil, err
	}
	rotating := opts.Checkpoint != "" && opts.Keep > 0
	start := 0
	var base float64
	switch {
	case opts.Resume && rotating:
		entries, err := ckpt.List(opts.Checkpoint)
		if err != nil {
			return nil, err
		}
		loaded := false
		var lastErr error
		for i := len(entries) - 1; i >= 0 && !loaded; i-- {
			f, err := os.Open(entries[i].Path)
			if err != nil {
				lastErr = err
				continue
			}
			cur, lerr := agent.LoadTraining(bufio.NewReader(f), e)
			f.Close()
			if lerr != nil {
				// Corrupt generation: rebuild the agent/env pair in case
				// the partial decode touched them, and fall back.
				lastErr = lerr
				if agent, e, err = build(); err != nil {
					return nil, err
				}
				continue
			}
			start, base = cur.Slot, cur.TotalReward
			loaded = true
		}
		if !loaded && len(entries) > 0 {
			return nil, fmt.Errorf("ctjam: no usable checkpoint in %s: %w", opts.Checkpoint, lastErr)
		}
	case opts.Resume && opts.Checkpoint != "":
		f, err := os.Open(opts.Checkpoint)
		switch {
		case err == nil:
			cur, lerr := agent.LoadTraining(bufio.NewReader(f), e)
			f.Close()
			if lerr != nil {
				return nil, lerr
			}
			start, base = cur.Slot, cur.TotalReward
		case !os.IsNotExist(err):
			return nil, err
		}
	}
	end := trainSlots
	if opts.StopAfter > 0 && opts.StopAfter < end {
		end = opts.StopAfter
	}
	if end < start {
		// The checkpoint is already past the requested stop slot; nothing
		// to train this invocation.
		end = start
	}
	var hook func(done int, total float64) error
	if opts.Checkpoint != "" {
		every := opts.CheckpointEvery
		if every <= 0 {
			every = 1000
		}
		save := func(path string, done int, total float64) error {
			return atomicfile.WriteFile(path, 0o644, func(w io.Writer) error {
				return agent.SaveTraining(w, e, core.TrainingCursor{Slot: done, TotalReward: base + total})
			})
		}
		if rotating {
			if err := os.MkdirAll(opts.Checkpoint, 0o755); err != nil {
				return nil, err
			}
			hook = func(done int, total float64) error {
				if done%every != 0 && done != end {
					return nil
				}
				if err := save(ckpt.Path(opts.Checkpoint, done), done, total); err != nil {
					return err
				}
				_, err := ckpt.GC(opts.Checkpoint, opts.Keep)
				return err
			}
		} else {
			hook = func(done int, total float64) error {
				if done%every != 0 && done != end {
					return nil
				}
				return save(opts.Checkpoint, done, total)
			}
		}
	}
	if _, err := agent.TrainRange(e, start, end, hook); err != nil {
		return nil, err
	}
	return &Policy{scheme: SchemeRL, snapshot: agent.Scheme, dqn: agent}, nil
}

// TrainQLearning trains the tabular Q-learning baseline over the MDP's
// belief-state space for trainSlots online slots.
func TrainQLearning(cfg Config, trainSlots int) (*Policy, error) {
	ecfg, err := cfg.internal()
	if err != nil {
		return nil, err
	}
	model, err := core.NewModel(core.ParamsFromEnv(ecfg))
	if err != nil {
		return nil, err
	}
	agent, err := core.NewQAgent(model, ecfg.Channels, ecfg.SweepWidth, cfg.Seed)
	if err != nil {
		return nil, err
	}
	e, err := env.New(ecfg)
	if err != nil {
		return nil, err
	}
	if _, err := agent.Train(e, trainSlots); err != nil {
		return nil, err
	}
	return &Policy{scheme: SchemeQLearning, snapshot: agent.Scheme}, nil
}

// SolveMDP computes the exact optimal policy by value iteration on the
// paper's MDP (Eq. 3-14).
func SolveMDP(cfg Config) (*Policy, error) {
	ecfg, err := cfg.internal()
	if err != nil {
		return nil, err
	}
	model, err := core.NewModel(core.ParamsFromEnv(ecfg))
	if err != nil {
		return nil, err
	}
	agent, err := core.NewMDPAgent(model, nil, ecfg.Channels, ecfg.SweepWidth)
	if err != nil {
		return nil, err
	}
	s := agent.Scheme()
	return &Policy{scheme: SchemeMDP, snapshot: func() (*pol.Scheme, error) { return s, nil }}, nil
}

// Save writes a trained DQN policy's network to w. Only DQN policies are
// persistable.
func (p *Policy) Save(w io.Writer) error {
	if p.dqn == nil {
		return fmt.Errorf("ctjam: only DQN policies can be saved")
	}
	return p.dqn.SaveModel(w)
}

// Load replaces a DQN policy's network with one previously saved.
func (p *Policy) Load(r io.Reader) error {
	if p.dqn == nil {
		return fmt.Errorf("ctjam: only DQN policies can be loaded")
	}
	return p.dqn.LoadModel(r)
}

// ParamCount returns the number of network parameters of a DQN policy
// (0 for exact policies).
func (p *Policy) ParamCount() int {
	if p.dqn == nil {
		return 0
	}
	return p.dqn.Network().ParamCount()
}

// Evaluate runs a scheme for the given number of slots and reports the
// Table I metrics. For SchemeRL / SchemeMDP / SchemeQLearning pass the
// policy from TrainDQN / SolveMDP / TrainQLearning; for the baselines policy
// may be nil.
func Evaluate(cfg Config, scheme Scheme, policy *Policy, slots int) (Metrics, error) {
	ms, err := EvaluateBatch(cfg, scheme, policy, 1, slots)
	if err != nil {
		return Metrics{}, err
	}
	return ms[0], nil
}

// trainers names the constructor of each policy-backed scheme.
var trainers = map[Scheme]string{SchemeRL: "TrainDQN", SchemeMDP: "SolveMDP", SchemeQLearning: "TrainQLearning"}

// schemeFor builds the shared batched inference scheme for a Scheme name —
// the one place every facade run (Evaluate, EvaluateBatch, FieldCompare,
// FieldScale) gets its scheme from. Trained schemes snapshot their current
// parameters: further training of the source policy does not affect the
// returned scheme. A policy of another kind is rejected rather than played
// under the wrong label.
func schemeFor(scheme Scheme, policy *Policy, ecfg env.Config) (*pol.Scheme, error) {
	switch scheme {
	case SchemeRL, SchemeMDP, SchemeQLearning:
		if policy == nil || policy.scheme != scheme {
			return nil, fmt.Errorf("ctjam: scheme %q needs a policy from %s", scheme, trainers[scheme])
		}
		return policy.snapshot()
	case SchemePassive:
		return pol.PassiveFHScheme(ecfg.Channels, ecfg.SweepWidth, core.DefaultJamThreshold)
	case SchemeRandom:
		return pol.RandomFHScheme(ecfg.Channels, ecfg.SweepWidth, len(ecfg.TxPowers))
	case SchemeStatic:
		return pol.StaticScheme(), nil
	default:
		return nil, fmt.Errorf("ctjam: unknown scheme %q", scheme)
	}
}

// EvaluateBatch evaluates one scheme across k independent environments in
// lockstep: environment i runs the configuration with Seed = cfg.Seed + i,
// and each slot gathers all k encoded states into a single batched policy
// inference. The results are bit-identical to k serial Evaluate calls with
// those seeds, at any k — only the wall-clock cost changes.
func EvaluateBatch(cfg Config, scheme Scheme, policy *Policy, k, slots int) ([]Metrics, error) {
	if k <= 0 {
		return nil, fmt.Errorf("ctjam: batch size %d must be positive", k)
	}
	ecfg, err := cfg.internal()
	if err != nil {
		return nil, err
	}
	s, err := schemeFor(scheme, policy, ecfg)
	if err != nil {
		return nil, err
	}
	envs := make([]*env.Environment, k)
	for i := range envs {
		ci := cfg
		ci.Seed = cfg.Seed + int64(i)
		ecfgI, err := ci.internal()
		if err != nil {
			return nil, err
		}
		if envs[i], err = env.New(ecfgI); err != nil {
			return nil, err
		}
	}
	counters, err := s.Run(envs, slots)
	if err != nil {
		return nil, err
	}
	out := make([]Metrics, k)
	for i, c := range counters {
		out[i] = Metrics{
			ST: c.ST(), AH: c.AH(), SH: c.SH(), AP: c.AP(), SP: c.SP(),
			JamRate: c.JamRate(), Slots: c.Slots,
		}
	}
	return out, nil
}

// MDPAnalysis exposes the §III-B structural analysis of the solved
// anti-jamming MDP.
type MDPAnalysis struct {
	// Threshold is n*: stay for n < n*, hop for n >= n* (Theorem III.4).
	// A value of SweepCycle means "never hop".
	Threshold int
	// IsThreshold reports whether the optimal policy has the proven
	// single-crossing structure.
	IsThreshold bool
	// QStay and QHop are the per-n best action values (n = 1.. cycle-1):
	// QStay decreasing (Lemma III.2) and QHop increasing (Lemma III.3).
	QStay []float64
	QHop  []float64
}

// AnalyzeMDP solves the anti-jamming MDP for the configuration and returns
// its threshold-policy structure.
func AnalyzeMDP(cfg Config) (*MDPAnalysis, error) {
	ecfg, err := cfg.internal()
	if err != nil {
		return nil, err
	}
	_, _, a, err := core.SolveAndAnalyze(core.ParamsFromEnv(ecfg), 0.9)
	if err != nil {
		return nil, err
	}
	return &MDPAnalysis{
		Threshold:   a.Threshold,
		IsThreshold: a.IsThreshold,
		QStay:       append([]float64(nil), a.QStay...),
		QHop:        append([]float64(nil), a.QHop...),
	}, nil
}

// FieldResult reports one scheme's outcome in the testbed simulator.
type FieldResult struct {
	Scheme Scheme
	// GoodputPktsPerSlot is delivered payload packets per Tx slot.
	GoodputPktsPerSlot float64
	// Utilization is the mean fraction of the slot spent on data.
	Utilization float64
	// ST is the slot-level success rate.
	ST float64
}

// FieldOptions tune the field simulator.
type FieldOptions struct {
	// Nodes is the number of peripheral nodes (default 3).
	Nodes int
	// SlotDuration is the Tx slot length (default 3 s).
	SlotDuration time.Duration
	// JammerSlot is the jammer's slot length (default = SlotDuration).
	JammerSlot time.Duration
	// Slots is the number of Tx slots to simulate (default 400).
	Slots int
	// UseCSMA enables the full CSMA/CA contention model instead of the
	// calibrated fixed LBT cost.
	UseCSMA bool
}

// FieldCompare runs the named schemes (plus a no-jammer reference when
// includeNoJammer is set) through the discrete-event field simulator,
// reproducing the Fig. 11(a) comparison. Each run is a 1-cluster FieldScale;
// the no-jammer reference is SchemeStatic with the jammer switched off.
func FieldCompare(cfg Config, schemes []Scheme, policy *Policy, opts FieldOptions, includeNoJammer bool) ([]FieldResult, error) {
	sopts := FieldScaleOptions{
		NodesPerCluster: opts.Nodes,
		SlotDuration:    opts.SlotDuration,
		JammerSlot:      opts.JammerSlot,
		Slots:           opts.Slots,
		UseCSMA:         opts.UseCSMA,
	}
	var out []FieldResult
	add := func(name, scheme Scheme, jammer bool) error {
		st, err := fieldRun(cfg, scheme, policy, sopts, jammer)
		if err != nil {
			return err
		}
		out = append(out, FieldResult{
			Scheme:             name,
			GoodputPktsPerSlot: st.GoodputPktsPerSlot,
			Utilization:        st.MeanUtilization,
			ST:                 st.Counters.ST(),
		})
		return nil
	}
	for _, scheme := range schemes {
		if err := add(scheme, scheme, true); err != nil {
			return nil, err
		}
	}
	if includeNoJammer {
		if err := add("no-jammer", SchemeStatic, false); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// FieldScaleOptions tune a sharded multi-cluster field run.
type FieldScaleOptions struct {
	// Clusters is the number of independent hopping clusters (default 1).
	// Each cluster is a full star network with its own channel, hopping
	// agent and decorrelated jammer stream.
	Clusters int
	// NodesPerCluster is each cluster's peripheral count (default 3).
	NodesPerCluster int
	// SlotDuration is the Tx slot length (default 3 s).
	SlotDuration time.Duration
	// JammerSlot is the jammer's slot length (default = SlotDuration).
	JammerSlot time.Duration
	// Slots is the number of Tx slots to simulate (default 400).
	Slots int
	// Workers bounds the goroutines sharding the clusters (0 means
	// GOMAXPROCS). Results are bit-identical at any worker count.
	Workers int
	// UseCSMA enables the full CSMA/CA contention model instead of the
	// calibrated fixed LBT cost.
	UseCSMA bool
}

// FieldScaleResult reports one sharded-engine field run.
type FieldScaleResult struct {
	Scheme Scheme
	// Clusters and Nodes describe the simulated field (Nodes is the total
	// peripheral count across all clusters).
	Clusters int
	Nodes    int
	// Slots is the Tx slot count each cluster executed.
	Slots int
	// GoodputPktsPerSlot is the field-wide goodput: packets delivered per
	// Tx slot, summed over clusters.
	GoodputPktsPerSlot float64
	// PerClusterGoodput is GoodputPktsPerSlot / Clusters.
	PerClusterGoodput float64
	// Utilization is the cluster-averaged mean slot utilization.
	Utilization float64
	// ST is the field-wide slot-level success rate.
	ST float64
}

// FieldScale runs one scheme through the sharded field engine: Clusters
// independent hopping clusters, each a full star network with its own
// deterministic RNG and fault streams, executed across Workers goroutines.
// Results are a pure function of (cfg, scheme, opts) — bit-identical at any
// worker count — and a 1-cluster run is FieldCompare's run of the scheme.
func FieldScale(cfg Config, scheme Scheme, policy *Policy, opts FieldScaleOptions) (*FieldScaleResult, error) {
	st, err := fieldRun(cfg, scheme, policy, opts, true)
	if err != nil {
		return nil, err
	}
	return &FieldScaleResult{
		Scheme:             scheme,
		Clusters:           st.Clusters,
		Nodes:              st.Nodes,
		Slots:              st.Slots,
		GoodputPktsPerSlot: st.GoodputPktsPerSlot,
		PerClusterGoodput:  st.GoodputPktsPerSlot / float64(st.Clusters),
		Utilization:        st.MeanUtilization,
		ST:                 st.Counters.ST(),
	}, nil
}

// fieldRun is the one field run behind FieldCompare and FieldScale: it
// builds the per-cluster network from cfg and opts, and plays one agent of
// the scheme per cluster. The agents replicate one shared immutable scheme
// through per-cluster encoders, so clusters never share mutable state.
func fieldRun(cfg Config, scheme Scheme, policy *Policy, opts FieldScaleOptions, jammer bool) (iot.EngineStats, error) {
	ecfg, err := cfg.internal()
	if err != nil {
		return iot.EngineStats{}, err
	}
	sch, err := schemeFor(scheme, policy, ecfg)
	if err != nil {
		return iot.EngineStats{}, err
	}
	icfg := iot.DefaultConfig()
	icfg.Channels = ecfg.Channels
	icfg.SweepWidth = ecfg.SweepWidth
	icfg.TxPowers = ecfg.TxPowers
	icfg.JamPowers = ecfg.JamPowers
	icfg.JammerMode = ecfg.JammerMode
	icfg.Jammer = ecfg.Jammer
	icfg.JammerEnabled = jammer
	icfg.Seed = cfg.Seed
	icfg.Faults = ecfg.Faults
	if opts.NodesPerCluster > 0 {
		icfg.Nodes = opts.NodesPerCluster
	}
	if opts.SlotDuration > 0 {
		icfg.SlotDuration = opts.SlotDuration
		icfg.JammerSlot = opts.SlotDuration
	}
	if opts.JammerSlot > 0 {
		icfg.JammerSlot = opts.JammerSlot
	}
	icfg.UseCSMA = opts.UseCSMA
	clusters := opts.Clusters
	if clusters <= 0 {
		clusters = 1
	}
	slots := opts.Slots
	if slots <= 0 {
		slots = 400
	}
	eng, err := iot.NewEngine(iot.EngineConfig{Clusters: clusters, Template: icfg, Workers: opts.Workers})
	if err != nil {
		return iot.EngineStats{}, err
	}
	st, err := eng.Run(func(int) (env.Agent, error) { return sch.NewAgent(), nil }, slots)
	if err != nil {
		return iot.EngineStats{}, fmt.Errorf("ctjam: field run %q: %w", scheme, err)
	}
	return st, nil
}

// Emulation is the outcome of building an EmuBee waveform.
type Emulation struct {
	// Alpha is the optimized 64-QAM scale of Eq. (2).
	Alpha float64
	// QuantError is E(alpha) of Eq. (1).
	QuantError float64
	// EVM measures waveform fidelity against the designed signal.
	EVM float64
	// Wave is the emulated complex-baseband waveform (20 MHz sampling).
	Wave []complex128
	// WiFiPayloadBits is the bit sequence a stock Wi-Fi transmitter
	// sends to emit Wave.
	WiFiPayloadBits []uint8
	// SymbolErrors counts ZigBee demodulation errors of Wave against the
	// designed symbols, and Symbols the total.
	SymbolErrors int
	Symbols      int
}

// EmulateZigBee builds the cross-technology jamming waveform: a Wi-Fi
// 64-QAM OFDM transmission that a ZigBee receiver demodulates as the given
// symbols (values 0..15). optimizeAlpha selects the paper's quantization
// optimization; disabling it reproduces the prior designs' naive emulation.
func EmulateZigBee(symbols []uint8, optimizeAlpha bool) (*Emulation, error) {
	if len(symbols) == 0 {
		return nil, fmt.Errorf("ctjam: no symbols to emulate")
	}
	mod, err := zigbee.NewModulator(zigbee.DefaultSamplesPerChip)
	if err != nil {
		return nil, err
	}
	designed, err := mod.ModulateSymbols(symbols)
	if err != nil {
		return nil, err
	}
	em, err := emulate.New(emulate.WithAlphaOptimization(optimizeAlpha))
	if err != nil {
		return nil, err
	}
	res, err := em.Emulate(designed)
	if err != nil {
		return nil, err
	}
	got, err := mod.DemodulateSymbols(res.Wave, len(symbols))
	if err != nil {
		return nil, err
	}
	errs := 0
	for i := range symbols {
		if got[i] != symbols[i] {
			errs++
		}
	}
	return &Emulation{
		Alpha:           res.Alpha,
		QuantError:      res.QuantError,
		EVM:             res.EVM,
		Wave:            res.Wave,
		WiFiPayloadBits: res.Bits,
		SymbolErrors:    errs,
		Symbols:         len(symbols),
	}, nil
}

// ExperimentIDs lists the reproducible paper figures/tables.
func ExperimentIDs() []string { return experiments.IDs() }

// DescribeExperiment returns an experiment's one-line description.
func DescribeExperiment(id string) (string, error) { return experiments.Describe(id) }

// ExperimentScale selects the budget for RunExperiment.
type ExperimentScale int

// Experiment scales.
const (
	// ScalePaper uses the paper's evaluation budgets (20000 slots etc.).
	ScalePaper ExperimentScale = iota + 1
	// ScaleQuick uses reduced budgets for smoke runs.
	ScaleQuick
)

// RunExperiment regenerates one paper figure/table and writes the
// paper-vs-measured comparison to w.
func RunExperiment(w io.Writer, id string, scale ExperimentScale) error {
	return RunExperiments(w, []string{id}, scale)
}

// RunExperiments regenerates several paper figures/tables in order, writing
// each paper-vs-measured comparison to w separated by blank lines. The runs
// share one sweep-point cache, so panels that revisit the same sweep points
// (the 20 metric panels of Figs. 6-8, plus Table I) train and evaluate each
// unique point exactly once; results are bit-identical to separate
// RunExperiment calls.
func RunExperiments(w io.Writer, ids []string, scale ExperimentScale) error {
	opts := experiments.DefaultOptions()
	if scale == ScaleQuick {
		opts = experiments.QuickOptions()
	}
	opts.Cache = experiments.NewCache()
	for i, id := range ids {
		if i > 0 {
			if _, err := fmt.Fprintln(w); err != nil {
				return err
			}
		}
		res, err := experiments.Run(id, opts)
		if err != nil {
			return err
		}
		if err := experiments.Format(w, res); err != nil {
			return err
		}
	}
	return nil
}
