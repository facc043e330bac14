package iot

import (
	"fmt"
	"time"

	"ctjam/internal/env"
	"ctjam/internal/fault"
	"ctjam/internal/jammer"
	"ctjam/internal/metrics"
	"ctjam/internal/rng"
)

// Config parameterizes the field simulator. DefaultConfig mirrors the
// paper's testbed: a 4-node star network (1 hub + 3 peripherals), 3 s time
// slots, a jammer with an equal, independent slot clock, and the same
// channel/power layout as the simulations.
type Config struct {
	// Nodes is the number of peripheral nodes (the hub is implicit).
	Nodes int
	// Timing is the protocol timing model.
	Timing Timing
	// SlotDuration is the Tx (victim) time-slot length.
	SlotDuration time.Duration
	// JammerSlot is the jammer's own slot length (Fig. 11b varies it
	// independently of the Tx slot).
	JammerSlot time.Duration
	// JammerEnabled turns the jammer on; off gives the paper's "w/o Jx"
	// reference scenario.
	JammerEnabled bool
	// UseCSMA resolves per-packet medium access with the full 802.15.4
	// CSMA/CA arbiter (contention among the peripheral nodes) instead of
	// the fixed average LBT cost. The fixed cost reproduces the paper's
	// measured per-packet rate; CSMA mode exposes contention effects in
	// denser networks.
	UseCSMA bool
	// Channels / SweepWidth / TxPowers / JamPowers / JammerMode follow
	// the slot-level environment's conventions.
	Channels   int
	SweepWidth int
	TxPowers   []float64
	JamPowers  []float64
	JammerMode jammer.PowerMode
	// Jammer selects the attacker strategy by spec string (see
	// jammer.ParseSpec); empty means the paper's sweeper. Ignored when
	// JammerEnabled is false.
	Jammer string
	// Seed drives all randomness.
	Seed int64
	// Faults optionally injects impairments per Tx slot: burst noise on
	// the data channel, ACK loss, and receiver clock / CCA timing drift
	// that stretches overhead and per-packet service times. nil disables
	// fault injection.
	Faults fault.Injector
}

// DefaultConfig returns the paper's field-experiment setup.
func DefaultConfig() Config {
	ecfg := env.DefaultConfig()
	return Config{
		Nodes:         3,
		Timing:        DefaultTiming(),
		SlotDuration:  3 * time.Second,
		JammerSlot:    3 * time.Second,
		JammerEnabled: true,
		Channels:      ecfg.Channels,
		SweepWidth:    ecfg.SweepWidth,
		TxPowers:      ecfg.TxPowers,
		JamPowers:     ecfg.JamPowers,
		JammerMode:    ecfg.JammerMode,
		Seed:          1,
	}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.Nodes < 1 {
		return fmt.Errorf("iot: at least one peripheral node required")
	}
	if err := c.Timing.Validate(); err != nil {
		return err
	}
	if c.SlotDuration <= 0 {
		return fmt.Errorf("iot: slot duration must be positive")
	}
	if c.JammerEnabled && c.JammerSlot <= 0 {
		return fmt.Errorf("iot: jammer slot must be positive")
	}
	if c.Channels < 2 {
		return fmt.Errorf("iot: need at least 2 channels")
	}
	if c.SweepWidth <= 0 || c.SweepWidth > c.Channels {
		return fmt.Errorf("iot: sweep width %d out of range", c.SweepWidth)
	}
	if len(c.TxPowers) == 0 || len(c.JamPowers) == 0 {
		return fmt.Errorf("iot: power level lists must be non-empty")
	}
	if _, err := jammer.ParseSpec(c.Jammer); err != nil {
		return fmt.Errorf("iot: jammer spec: %w", err)
	}
	if c.JammerEnabled && c.JammerMode != jammer.ModeMax && c.JammerMode != jammer.ModeRandom {
		return fmt.Errorf("iot: unknown jammer power mode %d", c.JammerMode)
	}
	return nil
}

// SlotStats describes one simulated Tx slot.
type SlotStats struct {
	// Overhead is the time spent on DQN inference and polling.
	Overhead time.Duration
	// DataTime is the remaining time used for data exchange.
	DataTime time.Duration
	// Attempted and Delivered count data packets.
	Attempted int
	Delivered int
	// FrameLosses counts packets that survived the channel but died in the
	// ZigBee receive path under injected symbol faults (truncation or
	// corruption broke the frame's SFD scan, length, or FCS).
	FrameLosses int
	// Outcome classifies the slot like the slot-level environment.
	Outcome env.Outcome
	// Hopped reports a channel change at the slot boundary.
	Hopped bool
	// Utilization is DataTime / SlotDuration.
	Utilization float64
}

// RunStats aggregates a simulation run.
type RunStats struct {
	// Slots executed.
	Slots int
	// Attempted / Delivered packets over the whole run.
	Attempted int
	Delivered int
	// FrameLosses are packets lost to injected receiver-side symbol faults.
	FrameLosses int
	// GoodputPktsPerSlot is the paper's goodput metric (Fig. 10a, 11).
	GoodputPktsPerSlot float64
	// MeanUtilization is the paper's slot-utilization metric (Fig. 10b).
	MeanUtilization float64
	// MeanOverhead is the average per-slot overhead (FH negotiation
	// plus decision time).
	MeanOverhead time.Duration
	// Counters are the Table I metrics at slot granularity.
	Counters metrics.Counters
}

// Simulator runs one star network against the jammer. It is a compatibility
// facade over a single engine cluster: the per-slot mechanics live in
// cluster.go and are shared with the sharded field engine, and a Simulator
// behaves bit-identically to Engine{Clusters: 1} over the same Config. Not
// safe for concurrent use.
type Simulator struct {
	c *cluster
}

// New builds a Simulator.
func New(cfg Config) (*Simulator, error) {
	c, err := newCluster(cfg)
	if err != nil {
		return nil, err
	}
	return &Simulator{c: c}, nil
}

// RunSlot simulates one Tx slot on the given channel and power index,
// returning its statistics. hopped marks a channel change decided at the
// slot boundary.
func (s *Simulator) RunSlot(channel, power int, hopped bool) (SlotStats, error) {
	var st SlotStats
	err := s.c.runSlot(&st, channel, power, hopped)
	return st, err
}

// Run drives an anti-jamming agent through the simulator for the given
// number of Tx slots.
func (s *Simulator) Run(agent env.Agent, slots int) (RunStats, error) {
	return s.c.run(agent, slots)
}

// FunctionTimings samples the per-function time consumption of Fig. 9(a):
// DQN inference, data/ACK round trip, hub packet processing, and per-node
// polling. Each entry holds `trials` samples in seconds.
func (s *Simulator) FunctionTimings(trials int) map[string][]float64 {
	tm := &s.c.cfg.Timing
	src := rng.NewSource(s.c.cfg.Seed + 0x9a)
	out := map[string][]float64{
		"DQN":     make([]float64, trials),
		"ACK":     make([]float64, trials),
		"Proc":    make([]float64, trials),
		"Polling": make([]float64, trials),
	}
	for i := 0; i < trials; i++ {
		out["DQN"][i] = tm.sample(tm.DQNDecision, src).Seconds()
		out["ACK"][i] = tm.sample(tm.AckRTT, src).Seconds()
		out["Proc"][i] = tm.sample(tm.Processing, src).Seconds()
		out["Polling"][i] = tm.sample(tm.PollPerNode, src).Seconds()
	}
	return out
}

// NegotiationTimes reproduces the Fig. 9(b) experiment: the FH negotiation
// time for a network of n nodes, including waits for nodes that are not on
// the control channel when polled. offProb is the per-node off-channel
// probability; the paper's cold-start measurement corresponds to a high
// value (~0.25) since some nodes sit on stale channels after a jam. It
// returns one negotiation duration (seconds) per trial.
func (s *Simulator) NegotiationTimes(nodes, trials int, offProb float64) ([]float64, error) {
	if nodes < 1 {
		return nil, fmt.Errorf("iot: nodes %d must be >= 1", nodes)
	}
	if trials < 1 {
		return nil, fmt.Errorf("iot: trials %d must be >= 1", trials)
	}
	if offProb < 0 || offProb > 1 {
		return nil, fmt.Errorf("iot: off probability %v outside [0,1]", offProb)
	}
	tm := &s.c.cfg.Timing
	src := rng.NewSource(s.c.cfg.Seed + 0x9b)
	out := make([]float64, trials)
	for i := range out {
		var total time.Duration
		for n := 0; n < nodes; n++ {
			total += tm.sample(tm.PollPerNode, src)
			if src.Float64() < offProb {
				total += tm.sampleRecovery(src)
			}
		}
		out[i] = total.Seconds()
	}
	return out, nil
}
