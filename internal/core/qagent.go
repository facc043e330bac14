package core

import (
	"fmt"

	"ctjam/internal/env"
	"ctjam/internal/policy"
	"ctjam/internal/rl"
	"ctjam/internal/rng"
)

// QAgent is the tabular Q-learning comparison baseline the paper's §III-C
// argues against: it learns over the same belief-state space the exact MDP
// uses (n = 1..S-1, T_J, J) with the stay/hop x power action space. Unlike
// the DQN it cannot consume the raw observation history, so it depends on
// the belief-state abstraction being correct.
//
// Belief tracking is shared with the inference engine (policy.Belief); the
// online Q-learning loop stays here. Scheme exports the learned table as an
// immutable batched policy.
type QAgent struct {
	model      *Model
	table      *rl.QTable
	channels   int
	sweepWidth int

	src    *rng.Source
	belief *policy.Belief
}

var _ env.Agent = (*QAgent)(nil)

// NewQAgent builds the tabular learner for the given anti-jamming model.
func NewQAgent(m *Model, channels, sweepWidth int, seed int64) (*QAgent, error) {
	if err := checkTopology(channels, sweepWidth); err != nil {
		return nil, err
	}
	table, err := rl.NewQTable(
		m.NumStates(), m.NumActions(),
		0.1, 0.9,
		rl.EpsilonSchedule{Start: 1, End: 0.05, DecaySteps: 8000},
		seed,
	)
	if err != nil {
		return nil, err
	}
	belief, err := policy.NewBelief(m, channels, sweepWidth)
	if err != nil {
		return nil, err
	}
	return &QAgent{
		model:      m,
		table:      table,
		channels:   channels,
		sweepWidth: sweepWidth,
		belief:     belief,
	}, nil
}

// Name implements env.Agent.
func (a *QAgent) Name() string { return "Q-learning" }

// beliefState maps the tracked belief to a table state index.
func (a *QAgent) beliefState() int { return a.belief.State() }

// observe folds a slot outcome into the belief.
func (a *QAgent) observe(outcome env.Outcome, hopped bool) {
	a.belief.Observe(outcome, hopped)
}

// Scheme snapshots the learned table as an immutable batched policy paired
// with fresh belief encoders (further Train calls do not affect it).
func (a *QAgent) Scheme() (*policy.Scheme, error) {
	return policy.QTableScheme(a.Name(), a.model, a.table.Snapshot(), a.channels, a.sweepWidth)
}

// Train runs epsilon-greedy Q-learning online for the given number of
// slots, returning the average reward.
func (a *QAgent) Train(e *env.Environment, slots int) (float64, error) {
	if slots <= 0 {
		return 0, fmt.Errorf("core: training slots %d must be positive", slots)
	}
	a.belief.Reset(nil)
	src := rng.NewSource(42)
	channel := e.CurrentChannel()
	var total float64
	for slot := 0; slot < slots; slot++ {
		state := a.beliefState()
		action, err := a.table.SelectAction(state)
		if err != nil {
			return 0, err
		}
		hop, power, err := a.model.DecodeAction(action)
		if err != nil {
			return 0, err
		}
		if hop {
			channel = policy.HopTarget(src, channel, a.channels, a.sweepWidth)
		}
		res, err := e.Step(channel, power)
		if err != nil {
			return 0, err
		}
		total += res.Reward
		a.observe(res.Outcome, res.Hopped)
		if err := a.table.Update(state, action, res.Reward/100, a.beliefState(), false); err != nil {
			return 0, err
		}
	}
	return total / float64(slots), nil
}

// Reset implements env.Agent (evaluation mode).
func (a *QAgent) Reset(src *rng.Source) {
	a.src = src
	a.belief.Reset(src)
}

// Decide implements env.Agent: greedy play of the learned table.
func (a *QAgent) Decide(prev env.SlotInfo) env.Decision {
	if !prev.First {
		a.observe(prev.Outcome, prev.Hopped)
	}
	action, err := a.table.GreedyAction(a.beliefState())
	if err != nil {
		return env.Decision{Channel: prev.Channel, Power: 0}
	}
	hop, power, err := a.model.DecodeAction(action)
	if err != nil {
		return env.Decision{Channel: prev.Channel, Power: 0}
	}
	ch := prev.Channel
	if hop && !prev.First {
		ch = policy.HopTarget(a.src, prev.Channel, a.channels, a.sweepWidth)
	}
	return env.Decision{Channel: ch, Power: power}
}
