package core

import (
	"fmt"

	"ctjam/internal/mdp"
	"ctjam/internal/policy"
)

// DefaultJamThreshold is the number of consecutive jammed slots a passive
// victim tolerates before its windowed error rate trips and it hops.
const DefaultJamThreshold = 4

// NewPassiveFH builds a single-link agent of the "PSV FH" baseline of
// §IV-D3 (policy.PassiveFHScheme) for a K-channel system with the given
// jammer sweep width, using DefaultJamThreshold. Per §II-C2 the passive
// victim hops "once the error rate exceeds a certain threshold", i.e. after
// several consecutive jammed slots, always at the minimum power.
func NewPassiveFH(channels, sweepWidth int) (*policy.Agent, error) {
	s, err := policy.PassiveFHScheme(channels, sweepWidth, DefaultJamThreshold)
	if err != nil {
		return nil, err
	}
	return s.NewAgent(), nil
}

// NewRandomFH builds a single-link agent of the "Rand FH" baseline of
// §IV-D3 (policy.RandomFHScheme): every slot it randomly chooses between a
// block-oblivious hop at minimum power and staying at a random power level.
func NewRandomFH(channels, sweepWidth, powers int) (*policy.Agent, error) {
	s, err := policy.RandomFHScheme(channels, sweepWidth, powers)
	if err != nil {
		return nil, err
	}
	return s.NewAgent(), nil
}

// NewMDPAgent solves the model (if sol is nil) and returns a single-link
// agent playing its exact optimal policy over a K-channel system. The agent
// tracks its belief state (consecutive successful slots on the current
// channel, or the jammed states) from observed outcomes, as the idealized
// §III-B analysis assumes; its Scheme method exposes the shared policy for
// batched runs.
func NewMDPAgent(m *Model, sol *mdp.Solution, channels, sweepWidth int) (*policy.Agent, error) {
	if err := checkTopology(channels, sweepWidth); err != nil {
		return nil, err
	}
	if sol == nil {
		var err error
		sol, err = m.Solve(0.9)
		if err != nil {
			return nil, err
		}
	}
	if len(sol.Policy) != m.NumStates() {
		return nil, fmt.Errorf("core: policy has %d states, model needs %d", len(sol.Policy), m.NumStates())
	}
	s, err := policy.MDPScheme("MDP*", m, sol.Policy, channels, sweepWidth)
	if err != nil {
		return nil, err
	}
	return s.NewAgent(), nil
}

func checkTopology(channels, sweepWidth int) error {
	if channels < 2 {
		return fmt.Errorf("core: channels %d must be >= 2", channels)
	}
	if sweepWidth <= 0 || sweepWidth > channels {
		return fmt.Errorf("core: sweep width %d out of range [1,%d]", sweepWidth, channels)
	}
	if (channels+sweepWidth-1)/sweepWidth < 2 {
		return fmt.Errorf("core: need at least 2 sweep blocks (channels=%d width=%d)", channels, sweepWidth)
	}
	return nil
}
