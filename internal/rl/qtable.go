package rl

import (
	"fmt"
	"math"
	"math/rand"
)

// QTable is a tabular Q-learning learner over discrete states. The paper
// motivates its DQN by noting that plain Q-learning's convergence suffers
// as the state/action space grows; this implementation serves as that
// comparison baseline (it works on the small belief-state space but cannot
// consume the raw 3*I observation history the DQN uses).
type QTable struct {
	states  int
	actions int
	q       [][]float64
	alpha   float64
	gamma   float64
	epsilon EpsilonSchedule
	rng     *rand.Rand
	steps   int
}

// NewQTable builds a zero-initialized tabular learner.
func NewQTable(states, actions int, alpha, gamma float64, eps EpsilonSchedule, seed int64) (*QTable, error) {
	if states <= 0 || actions <= 0 {
		return nil, fmt.Errorf("rl: qtable dimensions %dx%d invalid", states, actions)
	}
	if !(alpha > 0 && alpha <= 1) {
		return nil, fmt.Errorf("rl: learning rate %v outside (0,1]", alpha)
	}
	if !(gamma >= 0 && gamma < 1) {
		return nil, fmt.Errorf("rl: gamma %v outside [0,1)", gamma)
	}
	if err := eps.validate(); err != nil {
		return nil, err
	}
	q := make([][]float64, states)
	for s := range q {
		q[s] = make([]float64, actions)
	}
	return &QTable{
		states:  states,
		actions: actions,
		q:       q,
		alpha:   alpha,
		gamma:   gamma,
		epsilon: eps,
		rng:     rand.New(rand.NewSource(seed)),
	}, nil
}

// Q returns the current estimate Q(s, a).
func (t *QTable) Q(state, action int) (float64, error) {
	if err := t.check(state, action); err != nil {
		return 0, err
	}
	return t.q[state][action], nil
}

// Steps returns the number of updates applied.
func (t *QTable) Steps() int { return t.steps }

// Snapshot returns a deep copy of the Q matrix (states x actions), the
// tabular analogue of DQN.Snapshot: an immutable value table for the
// inference engine, decoupled from further Update calls.
func (t *QTable) Snapshot() [][]float64 {
	out := make([][]float64, len(t.q))
	for s, row := range t.q {
		out[s] = append([]float64(nil), row...)
	}
	return out
}

func (t *QTable) check(state, action int) error {
	if state < 0 || state >= t.states {
		return fmt.Errorf("rl: state %d out of range [0,%d)", state, t.states)
	}
	if action < 0 || action >= t.actions {
		return fmt.Errorf("rl: action %d out of range [0,%d)", action, t.actions)
	}
	return nil
}

// SelectAction picks epsilon-greedily for the given state.
func (t *QTable) SelectAction(state int) (int, error) {
	if err := t.check(state, 0); err != nil {
		return 0, err
	}
	if t.rng.Float64() < t.epsilon.Value(t.steps) {
		return t.rng.Intn(t.actions), nil
	}
	return t.greedy(state), nil
}

// GreedyAction returns argmax_a Q(state, a).
func (t *QTable) GreedyAction(state int) (int, error) {
	if err := t.check(state, 0); err != nil {
		return 0, err
	}
	return t.greedy(state), nil
}

func (t *QTable) greedy(state int) int {
	best, bestV := 0, math.Inf(-1)
	for a, v := range t.q[state] {
		if v > bestV {
			best, bestV = a, v
		}
	}
	return best
}

// Update applies one Q-learning backup:
// Q(s,a) += alpha * (r + gamma*max_a' Q(s',a') - Q(s,a)).
func (t *QTable) Update(state, action int, reward float64, next int, done bool) error {
	if err := t.check(state, action); err != nil {
		return err
	}
	if err := t.check(next, 0); err != nil {
		return err
	}
	target := reward
	if !done {
		target += float64(t.gamma * t.q[next][t.greedy(next)])
	}
	t.q[state][action] += float64(t.alpha * (target - t.q[state][action]))
	t.steps++
	return nil
}
