package core

import (
	"fmt"
	"io"

	"ctjam/internal/env"
	"ctjam/internal/nn"
	"ctjam/internal/policy"
	"ctjam/internal/rl"
	"ctjam/internal/rng"
)

// rewardScale normalizes Eq. (5) rewards (roughly [-165, -6]) into a range
// friendly to MSE-trained Q networks.
const rewardScale = 1.0 / 100.0

// DQNAgentConfig configures the DQN-based anti-jamming scheme ("RL FH").
type DQNAgentConfig struct {
	// Channels is C and Powers is PL; the output layer has C*PL neurons
	// as in the paper's Fig. 4.
	Channels int
	Powers   int
	// SweepWidth is the jammer block width (for topology checks only).
	SweepWidth int
	// HistoryLen is I: the input layer has 3*I neurons covering the
	// state, channel and power of the previous I slots.
	HistoryLen int
	// Hidden sizes the two fully connected hidden layers.
	Hidden []int
	// Gamma, LearningRate, BatchSize, BufferCapacity, WarmupSize,
	// TargetSyncEvery, Epsilon and DoubleDQN feed the underlying rl.DQN.
	Gamma           float64
	LearningRate    float64
	BatchSize       int
	BufferCapacity  int
	WarmupSize      int
	TargetSyncEvery int
	Epsilon         rl.EpsilonSchedule
	DoubleDQN       bool
	// Seed drives network init and exploration.
	Seed int64
}

// DefaultDQNAgentConfig mirrors the paper's architecture at simulation
// scale: I=8 history slots, two hidden layers, C*PL outputs.
func DefaultDQNAgentConfig(channels, powers, sweepWidth int) DQNAgentConfig {
	return DQNAgentConfig{
		Channels:        channels,
		Powers:          powers,
		SweepWidth:      sweepWidth,
		HistoryLen:      8,
		Hidden:          []int{48, 48},
		Gamma:           0.9,
		LearningRate:    1e-3,
		BatchSize:       16,
		BufferCapacity:  10000,
		WarmupSize:      256,
		TargetSyncEvery: 200,
		Epsilon:         rl.EpsilonSchedule{Start: 1, End: 0.05, DecaySteps: 12000},
		Seed:            1,
	}
}

// NewTrainingDQNAgent builds the agent of the one DQN training recipe: the
// default architecture for cfg's topology, seeded with seed, whose
// exploration decays over the first two thirds of trainSlots (the default
// schedule when trainSlots is not positive).
func NewTrainingDQNAgent(cfg env.Config, seed int64, trainSlots int) (*DQNAgent, error) {
	acfg := DefaultDQNAgentConfig(cfg.Channels, len(cfg.TxPowers), cfg.SweepWidth)
	acfg.Seed = seed
	if trainSlots > 0 {
		acfg.Epsilon.DecaySteps = trainSlots * 2 / 3
	}
	return NewDQNAgent(acfg)
}

// DQNAgent is the paper's deep-RL anti-jamming scheme. Train it online in a
// simulation environment, then run it greedily (it implements env.Agent for
// evaluation).
//
// The rolling feature window is a policy.History — the same encoder the
// batched inference engine uses — so the training path and inference path
// share one state encoding. Scheme snapshots the trained network as an
// immutable batched policy.
type DQNAgent struct {
	cfg DQNAgentConfig
	dqn *rl.DQN

	hist *policy.History // rolling 3*HistoryLen feature window
}

var _ env.Agent = (*DQNAgent)(nil)

// NewDQNAgent builds the agent.
func NewDQNAgent(cfg DQNAgentConfig) (*DQNAgent, error) {
	if err := checkTopology(cfg.Channels, cfg.SweepWidth); err != nil {
		return nil, err
	}
	if cfg.Powers <= 0 {
		return nil, fmt.Errorf("core: powers %d must be positive", cfg.Powers)
	}
	if cfg.HistoryLen <= 0 {
		return nil, fmt.Errorf("core: history length %d must be positive", cfg.HistoryLen)
	}
	dcfg := rl.DQNConfig{
		StateDim:        3 * cfg.HistoryLen,
		NumActions:      cfg.Channels * cfg.Powers,
		Hidden:          cfg.Hidden,
		Gamma:           cfg.Gamma,
		LearningRate:    cfg.LearningRate,
		BatchSize:       cfg.BatchSize,
		BufferCapacity:  cfg.BufferCapacity,
		WarmupSize:      cfg.WarmupSize,
		TargetSyncEvery: cfg.TargetSyncEvery,
		Epsilon:         cfg.Epsilon,
		DoubleDQN:       cfg.DoubleDQN,
		Seed:            cfg.Seed,
	}
	dqn, err := rl.NewDQN(dcfg)
	if err != nil {
		return nil, fmt.Errorf("core: build dqn: %w", err)
	}
	return &DQNAgent{
		cfg:  cfg,
		dqn:  dqn,
		hist: policy.NewHistory(cfg.Channels, cfg.Powers, cfg.HistoryLen),
	}, nil
}

// Name implements env.Agent.
func (a *DQNAgent) Name() string { return "RL FH" }

// Network exposes the trained Q network for persistence.
func (a *DQNAgent) Network() *nn.Network { return a.dqn.Network() }

// SaveModel writes the trained network to w.
func (a *DQNAgent) SaveModel(w io.Writer) error { return a.dqn.Network().Save(w) }

// LoadModel replaces the network with one read from r. The architecture
// must match the agent's configuration.
func (a *DQNAgent) LoadModel(r io.Reader) error {
	net, err := nn.Load(r)
	if err != nil {
		return err
	}
	return a.dqn.SetNetwork(net)
}

func (a *DQNAgent) clearHistory() { a.hist.Clear() }

// pushHistory appends one slot record (outcome, channel, power) to the
// rolling window.
func (a *DQNAgent) pushHistory(outcome env.Outcome, channel, power int) {
	a.hist.Push(outcome, channel, power)
}

// state snapshots the current feature window.
func (a *DQNAgent) state() []float64 { return a.hist.Snapshot() }

// Scheme snapshots the trained network as an immutable batched policy paired
// with fresh history encoders. The snapshot clones the weights, so further
// Train calls do not affect it and any number of goroutines may decide
// through it concurrently.
func (a *DQNAgent) Scheme() (*policy.Scheme, error) {
	snap, err := a.dqn.Snapshot()
	if err != nil {
		return nil, err
	}
	return policy.DQNScheme(a.Name(), snap, a.cfg.Channels, a.cfg.Powers, a.cfg.HistoryLen)
}

func (a *DQNAgent) decodeAction(action int) (channel, power int) {
	return action / a.cfg.Powers, action % a.cfg.Powers
}

// Train runs the agent with epsilon-greedy exploration in the environment
// for the given number of slots, learning online from every transition (the
// paper trains from ~120k historical data blocks). It returns the average
// reward per slot.
func (a *DQNAgent) Train(e *env.Environment, slots int) (float64, error) {
	if slots <= 0 {
		return 0, fmt.Errorf("core: training slots %d must be positive", slots)
	}
	a.clearHistory()
	total, err := a.TrainRange(e, 0, slots, nil)
	if err != nil {
		return 0, err
	}
	return total / float64(slots), nil
}

// TrainRange runs training slots [start, end) without clearing the history
// window, so a run resumed from a checkpoint continues exactly where it left
// off. It returns the summed reward over the range. hook, when non-nil, runs
// after each slot with the total slots completed (start-relative to slot 0)
// and the reward summed over this range so far, for periodic checkpoint
// writes; a hook error aborts the loop.
func (a *DQNAgent) TrainRange(e *env.Environment, start, end int, hook func(done int, total float64) error) (float64, error) {
	if start < 0 || end < start {
		return 0, fmt.Errorf("core: invalid training range [%d, %d)", start, end)
	}
	if e.NumChannels() != a.cfg.Channels || e.NumPowers() != a.cfg.Powers {
		return 0, fmt.Errorf("core: environment (%d ch, %d pw) does not match agent (%d ch, %d pw)",
			e.NumChannels(), e.NumPowers(), a.cfg.Channels, a.cfg.Powers)
	}
	var total float64
	for slot := start; slot < end; slot++ {
		s := a.state()
		action, err := a.dqn.SelectAction(s)
		if err != nil {
			return 0, err
		}
		ch, pw := a.decodeAction(action)
		res, err := e.Step(ch, pw)
		if err != nil {
			return 0, err
		}
		total += res.Reward
		a.pushHistory(res.Outcome, ch, pw)
		if _, err := a.dqn.Observe(rl.Transition{
			State:  s,
			Action: action,
			Reward: res.Reward * rewardScale,
			Next:   a.state(),
		}); err != nil {
			return 0, err
		}
		if hook != nil {
			if err := hook(slot+1, total); err != nil {
				return 0, err
			}
		}
	}
	return total, nil
}

// Reset implements env.Agent (evaluation mode: greedy, no learning).
func (a *DQNAgent) Reset(*rng.Source) { a.clearHistory() }

// Decide implements env.Agent: it folds the previous slot into the history
// window and plays the greedy action.
func (a *DQNAgent) Decide(prev env.SlotInfo) env.Decision {
	if !prev.First {
		a.pushHistory(prev.Outcome, prev.Channel, prev.Power)
	}
	// GreedyAction only reads the features, so pass the window directly
	// instead of snapshotting it with a.state(); Train still snapshots
	// because replay transitions retain their State/Next slices.
	action, err := a.dqn.GreedyAction(a.hist.Window())
	if err != nil {
		return env.Decision{Channel: prev.Channel, Power: 0}
	}
	ch, pw := a.decodeAction(action)
	return env.Decision{Channel: ch, Power: pw}
}
