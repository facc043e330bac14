package policy_test

import (
	"errors"
	"testing"

	"ctjam/internal/core"
	"ctjam/internal/env"
	"ctjam/internal/policy"
	"ctjam/internal/rng"
)

// TestAgentDecideAllocs pins that a serial decision allocates nothing for the
// belief, streak, random-walk and stay encoders. The field engine makes one
// Decide call per cluster slot, so an escaping SlotInfo would cost one
// allocation per decision.
func TestAgentDecideAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	cfg := env.DefaultConfig()
	model, err := core.NewModel(core.ParamsFromEnv(cfg))
	if err != nil {
		t.Fatal(err)
	}
	mdp, err := core.NewMDPAgent(model, nil, cfg.Channels, cfg.SweepWidth)
	if err != nil {
		t.Fatal(err)
	}
	psv, err := policy.PassiveFHScheme(cfg.Channels, cfg.SweepWidth, 2)
	if err != nil {
		t.Fatal(err)
	}
	rnd, err := policy.RandomFHScheme(cfg.Channels, cfg.SweepWidth, len(cfg.TxPowers))
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name   string
		scheme *policy.Scheme
	}{
		{"belief", mdp.Scheme()},
		{"streak", psv},
		{"random-walk", rnd},
		{"stay", policy.StaticScheme()},
	} {
		t.Run(c.name, func(t *testing.T) {
			a := c.scheme.NewAgent()
			a.Reset(rng.NewSource(7))
			outcomes := []env.Outcome{env.OutcomeJammed, env.OutcomeJammedSurvived, env.OutcomeSuccess}
			prev := env.SlotInfo{First: true, Channel: 5}
			allocs := testing.AllocsPerRun(1000, func() {
				d := a.Decide(prev)
				prev = env.SlotInfo{
					Slot:    prev.Slot + 1,
					Channel: d.Channel,
					Power:   d.Power,
					Outcome: outcomes[prev.Slot%len(outcomes)],
					Hopped:  !prev.First && d.Channel != prev.Channel,
				}
			})
			if allocs != 0 {
				t.Fatalf("Decide allocates %v objects per call, want 0", allocs)
			}
		})
	}
}

// stubModel is a BeliefModel whose lookups can be made to fail.
type stubModel struct {
	cycle        int
	badN, badAct int // StateOfN(badN) and DecodeAction(badAct) fail
}

func (m stubModel) SweepCycle() int { return m.cycle }
func (m stubModel) StateTJ() int    { return m.cycle - 1 }
func (m stubModel) StateJ() int     { return m.cycle }
func (m stubModel) NumStates() int  { return m.cycle + 1 }
func (m stubModel) NumActions() int { return 4 }
func (m stubModel) StateOfN(n int) (int, error) {
	if n == m.badN {
		return 0, errors.New("no such n")
	}
	return n - 1, nil
}
func (m stubModel) DecodeAction(a int) (bool, int, error) {
	if a == m.badAct {
		return false, 0, errors.New("no such action")
	}
	return a >= 2, a % 2, nil
}

// TestBeliefSchemeRejectsBadModel: a belief scheme reads its model into
// tables once, so a model that cannot index a belief state or an action
// fails the constructor instead of every later decision.
func TestBeliefSchemeRejectsBadModel(t *testing.T) {
	for _, m := range []stubModel{
		{cycle: 4, badN: -1, badAct: -1}, // valid
		{cycle: 1, badN: -1, badAct: -1},
		{cycle: 4, badN: 2, badAct: -1},
		{cycle: 4, badN: -1, badAct: 3},
	} {
		_, err := policy.MDPScheme("MDP", m, make([]int, m.NumStates()), 16, 4)
		if valid := m.cycle >= 2 && m.badN < 0 && m.badAct < 0; valid != (err == nil) {
			t.Errorf("model %+v: err %v", m, err)
		}
		if _, err2 := policy.NewBelief(m, 16, 4); (err == nil) != (err2 == nil) {
			t.Errorf("model %+v: MDPScheme err %v, NewBelief err %v", m, err, err2)
		}
	}
}
