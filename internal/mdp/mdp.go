// Package mdp provides a generic finite Markov-decision-process solver:
// Bellman-optimality value iteration (the contraction-mapping construction
// used in the paper's Theorem III.1 proof), greedy policy extraction and
// policy evaluation.
package mdp

import (
	"errors"
	"fmt"
	"math"
)

// Transition is one outcome of taking an action: the next state and its
// probability.
type Transition struct {
	Next int
	Prob float64
}

// Model is a finite MDP. States and actions are dense integer indices.
// Implementations must return transition distributions that sum to 1 for
// every (state, action) pair.
type Model interface {
	// NumStates returns the number of states.
	NumStates() int
	// NumActions returns the number of actions (shared by all states).
	NumActions() int
	// Transitions returns the transition distribution of (state, action).
	Transitions(state, action int) []Transition
	// Reward returns the immediate reward U(x, a, x') of moving from
	// state to next under action.
	Reward(state, action, next int) float64
}

// Solution holds the result of value iteration.
type Solution struct {
	// V is the optimal state-value function.
	V []float64
	// Q is the optimal action-value function, Q[state][action].
	Q [][]float64
	// Policy is the greedy policy: Policy[state] is the argmax action.
	Policy []int
	// Iterations is the number of sweeps performed.
	Iterations int
	// Residual is the final max-norm Bellman residual.
	Residual float64
}

// Solver errors.
var (
	ErrBadDiscount   = errors.New("mdp: discount factor must be in [0, 1)")
	ErrEmptyModel    = errors.New("mdp: model has no states or actions")
	ErrNotConverged  = errors.New("mdp: value iteration did not converge")
	ErrBadTransition = errors.New("mdp: transition probabilities invalid")
)

// ValidateModel checks that every (state, action) transition distribution is
// a probability distribution over valid states. It compiles the model as
// Solve does, so it calls Reward for every outcome too.
func ValidateModel(m Model) error {
	_, err := compile(m)
	return err
}

// table is a Model compiled once: every (state, action) transition list
// with the reward of each outcome, flattened in the order the sweeps read
// it. Row (s, a) is entries[off[s*nA+a]:off[s*nA+a+1]].
type table struct {
	nS, nA  int
	off     []int
	entries []entry
}

// entry is one outcome of a compiled (state, action) row.
type entry struct {
	next   int
	prob   float64
	reward float64
}

// compile evaluates every Transitions and Reward call of m once and, in the
// same pass, makes ValidateModel's checks. It builds the whole table even
// for an invalid model and returns the first violation, so BellmanBackup,
// which does not validate, can still sweep it. Reward is asked only for an
// in-range next state; an out-of-range outcome gets reward 0.
func compile(m Model) (table, error) {
	nS, nA := m.NumStates(), m.NumActions()
	t := table{nS: nS, nA: nA, off: make([]int, 1, nS*nA+1)}
	var err error
	if nS == 0 || nA == 0 {
		err = ErrEmptyModel
	}
	for s := 0; s < nS; s++ {
		for a := 0; a < nA; a++ {
			var sum float64
			for _, tr := range m.Transitions(s, a) {
				switch {
				case err != nil:
				case tr.Next < 0 || tr.Next >= nS:
					err = fmt.Errorf("%w: state %d action %d -> next %d out of range",
						ErrBadTransition, s, a, tr.Next)
				case tr.Prob < -1e-12:
					err = fmt.Errorf("%w: state %d action %d has negative probability %v",
						ErrBadTransition, s, a, tr.Prob)
				}
				sum += tr.Prob
				e := entry{next: tr.Next, prob: tr.Prob}
				if tr.Next >= 0 && tr.Next < nS {
					e.reward = m.Reward(s, a, tr.Next)
				}
				t.entries = append(t.entries, e)
			}
			if err == nil && math.Abs(sum-1) > 1e-9 {
				err = fmt.Errorf("%w: state %d action %d probabilities sum to %v",
					ErrBadTransition, s, a, sum)
			}
			t.off = append(t.off, len(t.entries))
		}
	}
	return t, err
}

// q returns the expected return of (s, a) under v, summed in row order.
func (t *table) q(s, a int, gamma float64, v []float64) float64 {
	i := s*t.nA + a
	var q float64
	for _, e := range t.entries[t.off[i]:t.off[i+1]] {
		q += e.prob * (e.reward + gamma*v[e.next])
	}
	return q
}

// backup is one Bellman-optimality sweep over the table (see BellmanBackup).
func (t *table) backup(gamma float64, v, out []float64) float64 {
	var delta float64
	for s := 0; s < t.nS; s++ {
		best := math.Inf(-1)
		for a := 0; a < t.nA; a++ {
			if q := t.q(s, a, gamma, v); q > best {
				best = q
			}
		}
		if d := math.Abs(best - v[s]); d > delta {
			delta = d
		}
		out[s] = best
	}
	return delta
}

// BellmanBackup applies one Bellman-optimality backup to v, writing the
// result into out (which must have NumStates elements), and returns the
// max-norm change. This is the contraction mapping of Eq. (20). It does not
// validate the model.
func BellmanBackup(m Model, gamma float64, v, out []float64) float64 {
	t, _ := compile(m)
	return t.backup(gamma, v, out)
}

// checkIteration validates the arguments shared by Solve and EvaluatePolicy.
func checkIteration(gamma, tol float64, maxIter int) error {
	if gamma < 0 || gamma >= 1 {
		return fmt.Errorf("%w: got %v", ErrBadDiscount, gamma)
	}
	if !(tol >= 0) {
		return fmt.Errorf("mdp: tolerance must be a non-negative number, got %v", tol)
	}
	if maxIter < 1 {
		return fmt.Errorf("mdp: maxIter must be at least 1, got %d", maxIter)
	}
	return nil
}

// Solve runs value iteration to the given max-norm tolerance (or maxIter
// sweeps) and extracts the optimal Q function and greedy policy. The model
// is compiled once, so every sweep reads the same table.
func Solve(m Model, gamma, tol float64, maxIter int) (*Solution, error) {
	if err := checkIteration(gamma, tol, maxIter); err != nil {
		return nil, err
	}
	t, err := compile(m)
	if err != nil {
		return nil, err
	}
	nS, nA := t.nS, t.nA
	v := make([]float64, nS)
	next := make([]float64, nS)
	var (
		iter  int
		delta float64
	)
	for iter = 1; iter <= maxIter; iter++ {
		delta = t.backup(gamma, v, next)
		v, next = next, v
		if delta <= tol {
			break
		}
	}
	if delta > tol {
		return nil, fmt.Errorf("%w: residual %v after %d iterations", ErrNotConverged, delta, maxIter)
	}

	q := make([][]float64, nS)
	policy := make([]int, nS)
	for s := 0; s < nS; s++ {
		q[s] = make([]float64, nA)
		bestA, best := 0, math.Inf(-1)
		for a := 0; a < nA; a++ {
			qa := t.q(s, a, gamma, v)
			q[s][a] = qa
			if qa > best {
				best, bestA = qa, a
			}
		}
		policy[s] = bestA
		v[s] = best
	}
	return &Solution{V: v, Q: q, Policy: policy, Iterations: iter, Residual: delta}, nil
}

// EvaluatePolicy computes the value function of a fixed policy by iterative
// policy evaluation. Like Solve, it compiles and validates the model once.
func EvaluatePolicy(m Model, policy []int, gamma, tol float64, maxIter int) ([]float64, error) {
	if err := checkIteration(gamma, tol, maxIter); err != nil {
		return nil, err
	}
	nS := m.NumStates()
	if len(policy) != nS {
		return nil, fmt.Errorf("mdp: policy has %d entries, want %d", len(policy), nS)
	}
	for s, a := range policy {
		if a < 0 || a >= m.NumActions() {
			return nil, fmt.Errorf("mdp: policy action %d at state %d out of range", a, s)
		}
	}
	t, err := compile(m)
	if err != nil {
		return nil, err
	}
	v := make([]float64, nS)
	next := make([]float64, nS)
	for iter := 0; iter < maxIter; iter++ {
		var delta float64
		for s := 0; s < nS; s++ {
			val := t.q(s, policy[s], gamma, v)
			if d := math.Abs(val - v[s]); d > delta {
				delta = d
			}
			next[s] = val
		}
		v, next = next, v
		if delta <= tol {
			return v, nil
		}
	}
	return nil, fmt.Errorf("%w: policy evaluation", ErrNotConverged)
}

// GreedyPolicy extracts the argmax policy from an action-value table.
func GreedyPolicy(q [][]float64) []int {
	policy := make([]int, len(q))
	for s, row := range q {
		bestA, best := 0, math.Inf(-1)
		for a, v := range row {
			if v > best {
				best, bestA = v, a
			}
		}
		policy[s] = bestA
	}
	return policy
}
