// Package core implements the paper's primary contribution: the hybrid
// anti-jamming scheme that jointly uses frequency hopping (FH) and power
// control (PC) against a cross-technology jammer.
//
// It contains the anti-jamming MDP of §III-A (state space Eq. 3, action
// space Eq. 4, reward Eq. 5, transition probabilities Eq. 6-14), an exact
// value-iteration solution, the structural analysis of §III-B (threshold
// policies, Lemmas III.2/III.3, Theorems III.4/III.5), and the runnable
// agents evaluated in §IV: the DQN-based scheme (RL FH), the exact-MDP
// policy, and the Passive FH / Random FH baselines.
package core

import (
	"fmt"
	"math"

	"ctjam/internal/env"
	"ctjam/internal/jammer"
	"ctjam/internal/mdp"
)

// Params parameterizes the anti-jamming MDP.
type Params struct {
	// SweepCycle is S = ceil(K/m), the jammer's sweep cycle in slots.
	SweepCycle int
	// TxPowers are the victim's power levels; values double as the
	// power loss L_p.
	TxPowers []float64
	// WinProb[i] is P(L^T_i >= tau), the probability that power level i
	// survives a jamming duel.
	WinProb []float64
	// LossHop is L_H and LossJam is L_J from Eq. (5).
	LossHop float64
	LossJam float64
}

// Validate checks the parameters.
func (p Params) Validate() error {
	if p.SweepCycle < 2 {
		return fmt.Errorf("core: sweep cycle %d must be >= 2", p.SweepCycle)
	}
	if len(p.TxPowers) == 0 {
		return fmt.Errorf("core: at least one tx power required")
	}
	if len(p.WinProb) != len(p.TxPowers) {
		return fmt.Errorf("core: win probabilities (%d) must match tx powers (%d)",
			len(p.WinProb), len(p.TxPowers))
	}
	for i, w := range p.WinProb {
		if w < 0 || w > 1 {
			return fmt.Errorf("core: win probability %v at level %d outside [0,1]", w, i)
		}
	}
	if p.LossHop < 0 || p.LossJam < 0 {
		return fmt.Errorf("core: losses must be non-negative")
	}
	return nil
}

// WinProbabilities derives P(L^T_i >= tau) for each victim level against a
// jammer with the given levels and power mode: in max mode tau is always the
// largest level; in random mode tau is uniform over the levels.
func WinProbabilities(txPowers, jamPowers []float64, mode jammer.PowerMode) []float64 {
	out := make([]float64, len(txPowers))
	maxJam := math.Inf(-1)
	for _, j := range jamPowers {
		if j > maxJam {
			maxJam = j
		}
	}
	for i, p := range txPowers {
		switch mode {
		case jammer.ModeMax:
			if p >= maxJam {
				out[i] = 1
			}
		default: // random mode
			wins := 0
			for _, j := range jamPowers {
				if p >= j {
					wins++
				}
			}
			out[i] = float64(wins) / float64(len(jamPowers))
		}
	}
	return out
}

// ParamsFromEnv derives the MDP parameters matching an environment
// configuration.
func ParamsFromEnv(cfg env.Config) Params {
	return Params{
		SweepCycle: cfg.SweepCycle(),
		TxPowers:   append([]float64(nil), cfg.TxPowers...),
		WinProb:    WinProbabilities(cfg.TxPowers, cfg.JamPowers, cfg.JammerMode),
		LossHop:    cfg.LossHop,
		LossJam:    cfg.LossJam,
	}
}

// Model is the paper's anti-jamming MDP (Eq. 3-14) as an mdp.Model.
//
// State indexing: indices 0..S-2 are the counting states n = 1..S-1
// ("continuously successful for n slots on the current channel"), index S-1
// is T_J (jammed unsuccessfully) and index S is J (jammed successfully).
//
// Action indexing: 0..M-1 are (stay, p_i); M..2M-1 are (hop, p_i).
type Model struct {
	p Params
}

var _ mdp.Model = (*Model)(nil)

// NewModel validates params and builds the MDP.
func NewModel(p Params) (*Model, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return &Model{p: p}, nil
}

// Params returns the model parameters.
func (m *Model) Params() Params { return m.p }

// SweepCycle returns S, the jammer's sweep cycle in slots (part of the
// policy.BeliefModel interface).
func (m *Model) SweepCycle() int { return m.p.SweepCycle }

// NumStates returns S+1: the S-1 counting states plus T_J and J.
func (m *Model) NumStates() int { return m.p.SweepCycle + 1 }

// NumActions returns 2M: stay/hop with each power level.
func (m *Model) NumActions() int { return 2 * len(m.p.TxPowers) }

// StateTJ returns the index of the T_J state.
func (m *Model) StateTJ() int { return m.p.SweepCycle - 1 }

// StateJ returns the index of the J state.
func (m *Model) StateJ() int { return m.p.SweepCycle }

// StateOfN converts n (1..S-1) to a state index.
func (m *Model) StateOfN(n int) (int, error) {
	if n < 1 || n > m.p.SweepCycle-1 {
		return 0, fmt.Errorf("core: n=%d out of range [1,%d]", n, m.p.SweepCycle-1)
	}
	return n - 1, nil
}

// ActionOf builds an action index from the hop flag and power index.
func (m *Model) ActionOf(hop bool, power int) (int, error) {
	if power < 0 || power >= len(m.p.TxPowers) {
		return 0, fmt.Errorf("core: power index %d out of range", power)
	}
	if hop {
		return len(m.p.TxPowers) + power, nil
	}
	return power, nil
}

// DecodeAction splits an action index into (hop, power).
func (m *Model) DecodeAction(a int) (hop bool, power int, err error) {
	if a < 0 || a >= m.NumActions() {
		return false, 0, fmt.Errorf("core: action %d out of range", a)
	}
	mm := len(m.p.TxPowers)
	return a >= mm, a % mm, nil
}

// Transitions implements Eq. (6)-(14).
func (m *Model) Transitions(state, action int) []mdp.Transition {
	hop, power, err := m.DecodeAction(action)
	if err != nil {
		return nil
	}
	var (
		s    = float64(m.p.SweepCycle)
		win  = m.p.WinProb[power]
		lose = 1 - win
		tj   = m.StateTJ()
		j    = m.StateJ()
	)

	// Jammed states T_J and J (Eq. 12-14).
	if state == tj || state == j {
		if hop {
			return []mdp.Transition{{Next: 0, Prob: 1}} // Eq. (14): fresh channel, n=1
		}
		return compact([]mdp.Transition{ // Eq. (12)-(13)
			{Next: tj, Prob: win},
			{Next: j, Prob: lose},
		})
	}

	n := float64(state + 1) // counting state n = index + 1
	if !hop {
		// Eq. (6)-(8): staying, the discovery hazard is 1/(S-n).
		found := 1.0 / (s - n)
		trs := []mdp.Transition{
			{Next: tj, Prob: found * win},
			{Next: j, Prob: found * lose},
		}
		if state+1 <= m.p.SweepCycle-2 {
			trs = append(trs, mdp.Transition{Next: state + 1, Prob: 1 - found})
		}
		return compact(trs)
	}
	// Eq. (9)-(11): hopping to a new channel.
	risk := (s - n - 1) / ((s - 1) * (s - n))
	return compact([]mdp.Transition{
		{Next: 0, Prob: 1 - risk},
		{Next: tj, Prob: risk * win},
		{Next: j, Prob: risk * lose},
	})
}

// Reward implements Eq. (5).
func (m *Model) Reward(state, action, next int) float64 {
	hop, power, err := m.DecodeAction(action)
	if err != nil {
		return 0
	}
	r := -m.p.TxPowers[power]
	if hop {
		r -= m.p.LossHop
	}
	if next == m.StateJ() {
		r -= m.p.LossJam
	}
	return r
}

// compact drops zero-probability entries, orders the rest by ascending
// Next and merges duplicates, summing them in input order, so the
// transition list is a clean distribution. It works in place: a list holds
// at most 3 entries, so an insertion sort needs no map.
func compact(trs []mdp.Transition) []mdp.Transition {
	out := trs[:0]
	for _, tr := range trs {
		if tr.Prob > 0 {
			out = append(out, tr)
		}
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j-1].Next > out[j].Next; j-- {
			out[j-1], out[j] = out[j], out[j-1]
		}
	}
	n := 0
	for _, tr := range out {
		if n > 0 && out[n-1].Next == tr.Next {
			out[n-1].Prob += tr.Prob
			continue
		}
		out[n] = tr
		n++
	}
	return out[:n]
}

// Solve runs value iteration on the model with the given discount.
func (m *Model) Solve(gamma float64) (*mdp.Solution, error) {
	return mdp.Solve(m, gamma, 1e-9, 1_000_000)
}
