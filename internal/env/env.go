// Package env implements the time-slotted jamming environment the paper's
// DQN is trained and evaluated in: a victim ZigBee link hopping among K
// channels with M transmit power levels, attacked by a cross-technology
// jammer. The default attacker is the paper's sweeper, which scans m
// consecutive channels per slot (sweep cycle ceil(K/m)) and locks on once it
// finds the victim; Config.Jammer selects any strategy from the jammer zoo
// (reactive, adaptive, energy-budgeted) by spec string.
//
// Each slot the victim (hub) chooses a channel and power level; the
// environment resolves the jammer's move and reports the outcome plus the
// paper's Eq. (5) reward: -L_p - L_H*[hopped] - L_J*[jammed successfully].
package env

import (
	"fmt"
	"math/rand"

	"ctjam/internal/fault"
	"ctjam/internal/jammer"
	"ctjam/internal/metrics"
	"ctjam/internal/rng"
)

// Outcome classifies a slot from the victim's perspective, mirroring the
// paper's MDP states: success (states n), jammed-but-survived (TJ, the
// jamming power lost the duel), and jammed (J).
type Outcome int

// Slot outcomes.
const (
	// OutcomeSuccess means the slot was not jammed.
	OutcomeSuccess Outcome = iota + 1
	// OutcomeJammedSurvived means the jammer hit the channel but the
	// victim's power out-dueled it (transmission still succeeded).
	OutcomeJammedSurvived
	// OutcomeJammed means the transmission was lost to jamming.
	OutcomeJammed
)

// String implements fmt.Stringer.
func (o Outcome) String() string {
	switch o {
	case OutcomeSuccess:
		return "success"
	case OutcomeJammedSurvived:
		return "jammed-survived"
	case OutcomeJammed:
		return "jammed"
	default:
		return fmt.Sprintf("Outcome(%d)", int(o))
	}
}

// Succeeded reports whether data got through this slot.
func (o Outcome) Succeeded() bool { return o == OutcomeSuccess || o == OutcomeJammedSurvived }

// Config parameterizes the environment. DefaultConfig reproduces the
// paper's simulation settings (§IV-A1).
type Config struct {
	// Channels is K, the number of ZigBee channels (16 on 2.4 GHz).
	Channels int
	// SweepWidth is m, the channels the jammer scans per slot (4).
	SweepWidth int
	// TxPowers are the victim's power levels; the values double as the
	// per-slot power loss L_p (paper: [6,15]).
	TxPowers []float64
	// JamPowers are the jammer's levels (paper: [11,20]).
	JamPowers []float64
	// JammerMode selects max or random jamming power.
	JammerMode jammer.PowerMode
	// Jammer selects the attacker strategy by spec string (see
	// jammer.ParseSpec); empty means the paper's sweeper. The canonical
	// form participates in Fingerprint, so it keys caches, scheme reuse
	// and the dist wire format.
	Jammer string
	// LossHop is L_H, the frequency-hopping loss (50).
	LossHop float64
	// LossJam is L_J, the successful-jamming loss (100).
	LossJam float64
	// Seed drives all environment randomness.
	Seed int64
	// Faults optionally injects channel impairments on top of the jammer
	// (burst noise, ACK loss); nil disables fault injection. Injectors
	// are pure functions of (seed, slot), so they preserve determinism
	// and compose with checkpoint/resume without extra state.
	Faults fault.Injector
}

// DefaultConfig returns the paper's simulation parameters: K=16, m=4 (sweep
// cycle 4), L^T in [6,15], L^J in [11,20], L_H=50, L_J=100, max-power
// jammer.
func DefaultConfig() Config {
	tx := make([]float64, 10)
	jam := make([]float64, 10)
	for i := 0; i < 10; i++ {
		tx[i] = float64(6 + i)
		jam[i] = float64(11 + i)
	}
	return Config{
		Channels:   16,
		SweepWidth: 4,
		TxPowers:   tx,
		JamPowers:  jam,
		JammerMode: jammer.ModeMax,
		LossHop:    50,
		LossJam:    100,
		Seed:       1,
	}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.Channels <= 1 {
		return fmt.Errorf("env: need at least 2 channels, got %d", c.Channels)
	}
	if c.SweepWidth <= 0 || c.SweepWidth > c.Channels {
		return fmt.Errorf("env: sweep width %d out of range [1,%d]", c.SweepWidth, c.Channels)
	}
	if len(c.TxPowers) == 0 || len(c.JamPowers) == 0 {
		return fmt.Errorf("env: power level lists must be non-empty")
	}
	for i := 1; i < len(c.TxPowers); i++ {
		if c.TxPowers[i] < c.TxPowers[i-1] {
			return fmt.Errorf("env: tx powers must be non-decreasing")
		}
	}
	if c.LossHop < 0 || c.LossJam < 0 {
		return fmt.Errorf("env: losses must be non-negative")
	}
	if c.JammerMode != jammer.ModeMax && c.JammerMode != jammer.ModeRandom {
		return fmt.Errorf("env: unknown jammer mode %v", c.JammerMode)
	}
	if _, err := jammer.ParseSpec(c.Jammer); err != nil {
		return fmt.Errorf("env: jammer spec: %w", err)
	}
	return nil
}

// JammerCanonical returns the canonical form of the jammer spec ("sweep" for
// the default). It panics on an invalid spec; call Validate first.
func (c Config) JammerCanonical() string {
	canon, err := jammer.Canonical(c.Jammer)
	if err != nil {
		panic(fmt.Sprintf("env: invalid jammer spec %q: %v", c.Jammer, err))
	}
	return canon
}

// SweepCycle returns ceil(K/m), the paper's sweep cycle length.
func (c Config) SweepCycle() int {
	return (c.Channels + c.SweepWidth - 1) / c.SweepWidth
}

// StepResult reports everything about one resolved slot.
type StepResult struct {
	// Outcome is the victim-visible result.
	Outcome Outcome
	// Reward is the Eq. (5) immediate reward.
	Reward float64
	// Hopped reports whether the victim changed channels this slot.
	Hopped bool
	// JamPower is the jammer's level this slot (0 when not co-channel).
	JamPower float64
	// UsefulHop marks a hop away from a block the jammer was actively
	// locked on, that ended in a successful slot (Table I's SH
	// numerator).
	UsefulHop bool
	// UsefulPC marks a slot where elevated power survived a jam that the
	// minimum power would have lost (Table I's SP numerator).
	UsefulPC bool
}

// Environment is the slot-level simulation. Not safe for concurrent use.
type Environment struct {
	cfg     Config
	jam     jammer.Strategy
	rng     *rand.Rand
	rngSrc  *rng.Source
	channel int
	slot    int
	started bool
	// flt is Step's scratch for injected faults: Faults.Apply takes a
	// pointer through an interface, so a local would escape every slot.
	flt fault.Slot
}

// New builds an Environment.
func New(cfg Config) (*Environment, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	e := &Environment{cfg: cfg}
	e.Reset()
	return e, nil
}

// Config returns the environment configuration.
func (e *Environment) Config() Config { return e.cfg }

// NumChannels returns K.
func (e *Environment) NumChannels() int { return e.cfg.Channels }

// NumPowers returns the number of victim power levels.
func (e *Environment) NumPowers() int { return len(e.cfg.TxPowers) }

// CurrentChannel returns the victim's channel as of the last step (or the
// random initial channel).
func (e *Environment) CurrentChannel() int { return e.channel }

// Slot returns the number of executed slots.
func (e *Environment) Slot() int { return e.slot }

// Reset reinitializes jammer and victim positions deterministically from
// the seed. Strategy construction draws nothing from the RNG (part of the
// Strategy contract), so the victim's initial channel draw is identical
// across attacker kinds.
func (e *Environment) Reset() {
	if e.rngSrc == nil {
		e.rng, e.rngSrc = rng.New(e.cfg.Seed)
	} else {
		e.rng.Seed(e.cfg.Seed) // in place: no new 5 KB source per reset
	}
	jam, err := jammer.New(e.cfg.Jammer, e.cfg.Channels, e.cfg.SweepWidth, e.cfg.JamPowers, e.cfg.JammerMode, e.rng)
	if err != nil {
		// Config was validated in New; a failure here is a programming
		// error.
		panic(fmt.Sprintf("env: jammer construction failed after validation: %v", err))
	}
	e.jam = jam
	e.channel = e.rng.Intn(e.cfg.Channels)
	e.slot = 0
	e.started = false
}

// Step resolves one slot in which the victim transmits on channel with
// power index power.
func (e *Environment) Step(channel, power int) (StepResult, error) {
	if channel < 0 || channel >= e.cfg.Channels {
		return StepResult{}, fmt.Errorf("env: channel %d out of range [0,%d)", channel, e.cfg.Channels)
	}
	if power < 0 || power >= len(e.cfg.TxPowers) {
		return StepResult{}, fmt.Errorf("env: power index %d out of range [0,%d)", power, len(e.cfg.TxPowers))
	}

	hopped := e.started && channel != e.channel
	oldChannel := e.channel

	// Capture whether the jammer was focused on the victim's previous
	// block before it reacts, to attribute useful hops. Focus generalizes
	// the sweeper's lock to the whole strategy zoo.
	lockedOnOld := false
	if block, ok := e.jam.Focus(); ok {
		if oldBlock, err := jammer.BlockIndex(e.cfg.Channels, e.cfg.SweepWidth, oldChannel); err == nil && block == oldBlock {
			lockedOnOld = true
		}
	}

	jammed, jamPower, err := e.jam.Step(channel)
	if err != nil {
		return StepResult{}, fmt.Errorf("env: jammer step: %w", err)
	}

	// Fold in injected faults. Burst noise acts as a second interferer:
	// the victim duels whichever of the jammer and the noise is stronger.
	// A lost ACK makes a delivered slot observationally identical to a
	// jammed one from the hub's side, so it degrades the outcome to J.
	var flt fault.Slot
	if e.cfg.Faults != nil {
		e.flt = fault.Slot{}
		e.cfg.Faults.Apply(int64(e.slot), &e.flt)
		flt = e.flt
	}
	interference := 0.0
	if jammed {
		interference = jamPower
	}
	if flt.NoisePower > interference {
		interference = flt.NoisePower
	}

	outcome := OutcomeSuccess
	if jammed || flt.NoisePower > 0 {
		if e.cfg.TxPowers[power] >= interference {
			outcome = OutcomeJammedSurvived
		} else {
			outcome = OutcomeJammed
		}
	}
	if flt.AckLoss && outcome != OutcomeJammed {
		outcome = OutcomeJammed
	}

	reward := -e.cfg.TxPowers[power]
	if hopped {
		reward -= e.cfg.LossHop
	}
	if outcome == OutcomeJammed {
		reward -= e.cfg.LossJam
	}

	res := StepResult{
		Outcome:   outcome,
		Reward:    reward,
		Hopped:    hopped,
		UsefulHop: hopped && lockedOnOld && outcome.Succeeded(),
		UsefulPC: power > 0 && jammed && outcome == OutcomeJammedSurvived &&
			e.cfg.TxPowers[0] < jamPower,
	}
	if jammed {
		res.JamPower = jamPower
	}

	e.channel = channel
	e.slot++
	e.started = true
	return res, nil
}

// State is a serializable snapshot of a running Environment, sufficient to
// resume stepping bit-identically. It captures the shared environment/jammer
// RNG, the victim position and the jammer strategy's state.
type State struct {
	RNG     uint64
	Channel int
	Slot    int
	Started bool
	Jammer  jammer.State
}

// State snapshots the environment for checkpointing.
func (e *Environment) State() State {
	return State{
		RNG:     e.rngSrc.State(),
		Channel: e.channel,
		Slot:    e.slot,
		Started: e.started,
		Jammer:  e.jam.State(),
	}
}

// SetState restores a snapshot taken with State. The environment must have
// been built with the same Config; kind and range validation of the jammer
// payload is delegated to the strategy.
func (e *Environment) SetState(st State) error {
	if st.Channel < 0 || st.Channel >= e.cfg.Channels {
		return fmt.Errorf("env: state channel %d out of range [0,%d)", st.Channel, e.cfg.Channels)
	}
	if st.Slot < 0 {
		return fmt.Errorf("env: state slot %d must be non-negative", st.Slot)
	}
	if err := e.jam.SetState(st.Jammer); err != nil {
		return err
	}
	e.rngSrc.SetState(st.RNG)
	e.channel = st.Channel
	e.slot = st.Slot
	e.started = st.Started
	return nil
}

// Decision is the hub's choice for the next slot.
type Decision struct {
	Channel int
	Power   int
}

// SlotInfo summarizes the previous slot for an agent's next decision.
type SlotInfo struct {
	// Slot is the index of the next slot to decide.
	Slot int
	// Channel and Power are the previous slot's decision.
	Channel int
	Power   int
	// Outcome is the previous slot's result (zero on the first call).
	Outcome Outcome
	// Hopped reports whether the previous slot hopped.
	Hopped bool
	// First is true for the first decision of a run.
	First bool
}

// Agent is an anti-jamming policy driving the victim hub.
type Agent interface {
	// Name identifies the scheme ("RL FH", "Rand FH", "PSV FH", ...).
	Name() string
	// Reset prepares the agent for a fresh run.
	Reset(rng *rand.Rand)
	// Decide returns the channel and power for the next slot.
	Decide(prev SlotInfo) Decision
}

// SlotRecord captures one executed slot for trace analysis (channel usage
// plots, policy debugging, hop-pattern inspection).
type SlotRecord struct {
	Slot    int
	Channel int
	Power   int
	Outcome Outcome
	Hopped  bool
	Reward  float64
	// JamPower is the jammer's level when co-channel (0 otherwise).
	JamPower float64
}

// Run drives the agent through the environment for the given number of
// slots, returning Table I counters. The agent receives its own RNG derived
// from the environment seed so runs are reproducible. It is the one-link
// case of BatchRun, so serial and lockstep runs share one slot loop.
func Run(e *Environment, a Agent, slots int) (metrics.Counters, error) {
	c, _, err := batchRun([]*Environment{e}, &agentBatch{agents: []Agent{a}}, slots, false)
	if err != nil {
		return metrics.Counters{}, err
	}
	return c[0], nil
}

// RunTrace is Run plus a per-slot trace.
func RunTrace(e *Environment, a Agent, slots int) (metrics.Counters, []SlotRecord, error) {
	c, records, err := batchRun([]*Environment{e}, &agentBatch{agents: []Agent{a}}, slots, true)
	if err != nil {
		return metrics.Counters{}, nil, err
	}
	return c[0], records[0], nil
}
