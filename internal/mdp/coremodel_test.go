package mdp_test

import (
	"fmt"
	"math"
	"testing"

	"ctjam/internal/core"
	"ctjam/internal/env"
	"ctjam/internal/jammer"
	"ctjam/internal/mdp"
)

// coreParams builds the anti-jamming MDP's parameters for sweep cycle s and
// m power levels. The win probabilities run from 0 to 1, so compact drops
// zero-probability outcomes at both ends.
func coreParams(s, m int) core.Params {
	p := core.Params{SweepCycle: s, LossHop: 50, LossJam: 100}
	for i := 0; i < m; i++ {
		p.TxPowers = append(p.TxPowers, float64(6+3*i))
		w := 1.0
		if m > 1 {
			w = float64(i) / float64(m-1)
		}
		p.WinProb = append(p.WinProb, w)
	}
	return p
}

func TestCompiledTableSmallExact(t *testing.T) {
	// S = 2, one power level of 6 that wins half the duels: states n=1, T_J
	// and J; actions stay and hop. Staying at n=1 is always discovered
	// (hazard 1/(S-n) = 1), hopping from n=1 carries no risk
	// ((S-n-1)/((S-1)(S-n)) = 0), and each jammed state behaves alike.
	model, err := core.NewModel(core.Params{
		SweepCycle: 2, TxPowers: []float64{6}, WinProb: []float64{0.5}, LossHop: 50, LossJam: 100,
	})
	if err != nil {
		t.Fatal(err)
	}
	stay := []mdp.CompiledEntry{{Next: 1, Prob: 0.5, Reward: -6}, {Next: 2, Prob: 0.5, Reward: -106}}
	hop := []mdp.CompiledEntry{{Next: 0, Prob: 1, Reward: -56}}
	want := [][][]mdp.CompiledEntry{{stay, hop}, {stay, hop}, {stay, hop}}
	got, err := mdp.CompiledRows(model)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("%d states, want %d", len(got), len(want))
	}
	for s := range want {
		if len(got[s]) != len(want[s]) {
			t.Fatalf("state %d: %d actions, want %d", s, len(got[s]), len(want[s]))
		}
		for a := range want[s] {
			if fmt.Sprint(got[s][a]) != fmt.Sprint(want[s][a]) {
				t.Errorf("row (%d, %d) = %v, want %v", s, a, got[s][a], want[s][a])
			}
		}
	}
}

func TestCompiledTableMatchesCoreModel(t *testing.T) {
	for s := 2; s <= 12; s++ {
		for m := 1; m <= 4; m++ {
			t.Run(fmt.Sprintf("S=%d/M=%d", s, m), func(t *testing.T) {
				model, err := core.NewModel(coreParams(s, m))
				if err != nil {
					t.Fatal(err)
				}
				rows, err := mdp.CompiledRows(model)
				if err != nil {
					t.Fatal(err)
				}
				if len(rows) != model.NumStates() {
					t.Fatalf("%d rows, want %d states", len(rows), model.NumStates())
				}
				for st := range rows {
					if len(rows[st]) != model.NumActions() {
						t.Fatalf("state %d: %d rows, want %d actions", st, len(rows[st]), model.NumActions())
					}
					for a, row := range rows[st] {
						want := model.Transitions(st, a)
						if len(row) != len(want) {
							t.Fatalf("(%d, %d): %d entries, want %d", st, a, len(row), len(want))
						}
						for i, tr := range want {
							got := row[i]
							if got.Next != tr.Next {
								t.Errorf("(%d, %d) entry %d: next %d, want %d", st, a, i, got.Next, tr.Next)
							}
							if math.Float64bits(got.Prob) != math.Float64bits(tr.Prob) {
								t.Errorf("(%d, %d) entry %d: prob %v, want %v", st, a, i, got.Prob, tr.Prob)
							}
							r := model.Reward(st, a, tr.Next)
							if math.Float64bits(got.Reward) != math.Float64bits(r) {
								t.Errorf("(%d, %d) entry %d: reward %v, want %v", st, a, i, got.Reward, r)
							}
						}
					}
				}
			})
		}
	}
}

func TestSolveMatchesNaiveOnCoreModel(t *testing.T) {
	random := env.DefaultConfig()
	random.JammerMode = jammer.ModeRandom
	models := map[string]core.Params{
		"paper/max":    core.ParamsFromEnv(env.DefaultConfig()),
		"paper/random": core.ParamsFromEnv(random),
	}
	for _, s := range []int{2, 5, 12} {
		for _, m := range []int{1, 4} {
			models[fmt.Sprintf("S=%d/M=%d", s, m)] = coreParams(s, m)
		}
	}
	for name, p := range models {
		model, err := core.NewModel(p)
		if err != nil {
			t.Fatal(err)
		}
		for _, gamma := range []float64{0.5, 0.9, 0.99} {
			want, err := mdp.NaiveSolve(model, gamma, 1e-9, 1_000_000)
			if err != nil {
				t.Fatalf("%s gamma=%v: reference: %v", name, gamma, err)
			}
			got, err := mdp.Solve(model, gamma, 1e-9, 1_000_000)
			if err != nil {
				t.Fatalf("%s gamma=%v: %v", name, gamma, err)
			}
			if err := mdp.SameSolution(got, want); err != nil {
				t.Errorf("%s gamma=%v: %v", name, gamma, err)
			}
		}
	}
}
