package core

import (
	"math"
	"testing"
	"testing/quick"

	"ctjam/internal/env"
	"ctjam/internal/jammer"
	"ctjam/internal/mdp"
)

func paperParams(mode jammer.PowerMode) Params {
	cfg := env.DefaultConfig()
	cfg.JammerMode = mode
	return ParamsFromEnv(cfg)
}

func TestParamsValidate(t *testing.T) {
	good := paperParams(jammer.ModeMax)
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	tests := []struct {
		name   string
		mutate func(*Params)
	}{
		{"sweep cycle 1", func(p *Params) { p.SweepCycle = 1 }},
		{"no powers", func(p *Params) { p.TxPowers = nil; p.WinProb = nil }},
		{"win prob mismatch", func(p *Params) { p.WinProb = p.WinProb[:3] }},
		{"win prob > 1", func(p *Params) { p.WinProb[0] = 1.5 }},
		{"negative loss", func(p *Params) { p.LossJam = -1 }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			p := paperParams(jammer.ModeMax)
			tt.mutate(&p)
			if _, err := NewModel(p); err == nil {
				t.Fatal("expected error")
			}
		})
	}
}

func TestWinProbabilities(t *testing.T) {
	tx := []float64{6, 10, 15, 20}
	jam := []float64{11, 12, 13, 14, 15, 16, 17, 18, 19, 20}
	maxMode := WinProbabilities(tx, jam, jammer.ModeMax)
	// Only a level >= 20 wins in max mode.
	want := []float64{0, 0, 0, 1}
	for i := range want {
		if maxMode[i] != want[i] {
			t.Fatalf("max mode win prob = %v, want %v", maxMode, want)
		}
	}
	randMode := WinProbabilities(tx, jam, jammer.ModeRandom)
	// L=15 beats tau in {11..15}: 5/10; L=6 beats nothing; L=20 beats all.
	wantRand := []float64{0, 0, 0.5, 1}
	for i := range wantRand {
		if math.Abs(randMode[i]-wantRand[i]) > 1e-12 {
			t.Fatalf("random mode win prob = %v, want %v", randMode, wantRand)
		}
	}
}

func TestModelShape(t *testing.T) {
	m, err := NewModel(paperParams(jammer.ModeMax))
	if err != nil {
		t.Fatal(err)
	}
	if m.NumStates() != 5 { // n=1..3, TJ, J for S=4
		t.Fatalf("NumStates = %d, want 5", m.NumStates())
	}
	if m.NumActions() != 20 {
		t.Fatalf("NumActions = %d, want 20", m.NumActions())
	}
	if m.StateTJ() != 3 || m.StateJ() != 4 {
		t.Fatalf("TJ=%d J=%d", m.StateTJ(), m.StateJ())
	}
	if _, err := m.StateOfN(0); err == nil {
		t.Fatal("StateOfN(0): expected error")
	}
	if _, err := m.StateOfN(4); err == nil {
		t.Fatal("StateOfN(S): expected error")
	}
	if s, err := m.StateOfN(2); err != nil || s != 1 {
		t.Fatalf("StateOfN(2) = %d, %v", s, err)
	}
}

func TestActionCodec(t *testing.T) {
	m, err := NewModel(paperParams(jammer.ModeMax))
	if err != nil {
		t.Fatal(err)
	}
	for _, hop := range []bool{false, true} {
		for p := 0; p < 10; p++ {
			a, err := m.ActionOf(hop, p)
			if err != nil {
				t.Fatal(err)
			}
			gotHop, gotP, err := m.DecodeAction(a)
			if err != nil {
				t.Fatal(err)
			}
			if gotHop != hop || gotP != p {
				t.Fatalf("codec mismatch: (%v,%d) -> %d -> (%v,%d)", hop, p, a, gotHop, gotP)
			}
		}
	}
	if _, err := m.ActionOf(false, 11); err == nil {
		t.Fatal("expected error")
	}
	if _, _, err := m.DecodeAction(20); err == nil {
		t.Fatal("expected error")
	}
}

func TestTransitionsAreValidDistributions(t *testing.T) {
	for _, mode := range []jammer.PowerMode{jammer.ModeMax, jammer.ModeRandom} {
		m, err := NewModel(paperParams(mode))
		if err != nil {
			t.Fatal(err)
		}
		if err := mdp.ValidateModel(m); err != nil {
			t.Fatalf("mode %v: %v", mode, err)
		}
	}
}

func TestTransitionsValidForAllSweepCyclesProperty(t *testing.T) {
	f := func(cycleSel, winSel uint8) bool {
		p := Params{
			SweepCycle: 2 + int(cycleSel%15),
			TxPowers:   []float64{6, 10, 15},
			WinProb:    []float64{0, float64(winSel%101) / 100, 1},
			LossHop:    50,
			LossJam:    100,
		}
		m, err := NewModel(p)
		if err != nil {
			return false
		}
		return mdp.ValidateModel(m) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestTransitionsMatchPaperEquations(t *testing.T) {
	// Hand-check Eq. (6)-(8) at S=4, n=1 with win probability w.
	cfg := env.DefaultConfig()
	cfg.JammerMode = jammer.ModeRandom
	p := ParamsFromEnv(cfg)
	m, err := NewModel(p)
	if err != nil {
		t.Fatal(err)
	}
	// Power index 9 (L=15): w = 0.5 in random mode.
	stay, err := m.ActionOf(false, 9)
	if err != nil {
		t.Fatal(err)
	}
	state, err := m.StateOfN(1)
	if err != nil {
		t.Fatal(err)
	}
	got := map[int]float64{}
	for _, tr := range m.Transitions(state, stay) {
		got[tr.Next] = tr.Prob
	}
	// Eq. (6): P(2|1,s,p) = 1 - 1/(4-1) = 2/3.
	if math.Abs(got[1]-2.0/3) > 1e-12 {
		t.Fatalf("P(2|1,stay) = %v, want 2/3", got[1])
	}
	// Eq. (7): P(TJ|1,s,p) = 1/3 * 0.5.
	if math.Abs(got[m.StateTJ()]-1.0/6) > 1e-12 {
		t.Fatalf("P(TJ|1,stay) = %v, want 1/6", got[m.StateTJ()])
	}
	// Eq. (8): P(J|1,s,p) = 1/3 * 0.5.
	if math.Abs(got[m.StateJ()]-1.0/6) > 1e-12 {
		t.Fatalf("P(J|1,stay) = %v, want 1/6", got[m.StateJ()])
	}

	// Eq. (9)-(11) at n=1: risk = (4-1-1)/((4-1)(4-1)) = 2/9.
	hop, err := m.ActionOf(true, 9)
	if err != nil {
		t.Fatal(err)
	}
	got = map[int]float64{}
	for _, tr := range m.Transitions(state, hop) {
		got[tr.Next] = tr.Prob
	}
	if math.Abs(got[0]-(1-2.0/9)) > 1e-12 {
		t.Fatalf("P(1|1,hop) = %v, want 7/9", got[0])
	}
	if math.Abs(got[m.StateTJ()]-2.0/9*0.5) > 1e-12 {
		t.Fatalf("P(TJ|1,hop) = %v, want 1/9", got[m.StateTJ()])
	}

	// Eq. (12)-(14) from the jammed states.
	for _, s := range []int{m.StateTJ(), m.StateJ()} {
		got = map[int]float64{}
		for _, tr := range m.Transitions(s, stay) {
			got[tr.Next] = tr.Prob
		}
		if math.Abs(got[m.StateTJ()]-0.5) > 1e-12 || math.Abs(got[m.StateJ()]-0.5) > 1e-12 {
			t.Fatalf("stay from jammed state %d: %v", s, got)
		}
		trs := m.Transitions(s, hop)
		if len(trs) != 1 || trs[0].Next != 0 || trs[0].Prob != 1 {
			t.Fatalf("hop from jammed state %d: %v", s, trs)
		}
	}
}

func TestRewardMatchesEq5(t *testing.T) {
	m, err := NewModel(paperParams(jammer.ModeMax))
	if err != nil {
		t.Fatal(err)
	}
	stay2, _ := m.ActionOf(false, 2) // L_p = 8
	hop2, _ := m.ActionOf(true, 2)
	j := m.StateJ()
	tests := []struct {
		action int
		next   int
		want   float64
	}{
		{stay2, 0, -8},
		{stay2, j, -8 - 100},
		{hop2, 0, -8 - 50},
		{hop2, j, -8 - 50 - 100},
	}
	for _, tt := range tests {
		if got := m.Reward(0, tt.action, tt.next); math.Abs(got-tt.want) > 1e-12 {
			t.Fatalf("Reward(0,%d,%d) = %v, want %v", tt.action, tt.next, got, tt.want)
		}
	}
}

func TestExpectedStayRewardDecreasingInN(t *testing.T) {
	// Eq. (23): E[U(n, (s,p))] = -L_p - L_J * P(lose)/(S-n) decreases
	// with n. Verify directly from the model's transitions and rewards.
	m, err := NewModel(paperParams(jammer.ModeRandom))
	if err != nil {
		t.Fatal(err)
	}
	for p := 0; p < 10; p++ {
		action, err := m.ActionOf(false, p)
		if err != nil {
			t.Fatal(err)
		}
		prev := math.Inf(1)
		for n := 1; n <= m.p.SweepCycle-1; n++ {
			state, err := m.StateOfN(n)
			if err != nil {
				t.Fatal(err)
			}
			var eu float64
			for _, tr := range m.Transitions(state, action) {
				eu += tr.Prob * m.Reward(state, action, tr.Next)
			}
			if eu > prev+1e-12 {
				t.Fatalf("power %d: E[U] increased from n=%d to n=%d", p, n-1, n)
			}
			prev = eu
		}
	}
}

func TestCompact(t *testing.T) {
	p, q := 0.1, 0.7 // variables, so p+q is the float64 sum
	tests := []struct {
		name    string
		in, out []mdp.Transition
	}{
		{"ascending kept", []mdp.Transition{{Next: 0, Prob: 0.5}, {Next: 3, Prob: 0.5}},
			[]mdp.Transition{{Next: 0, Prob: 0.5}, {Next: 3, Prob: 0.5}}},
		{"sorted by next", []mdp.Transition{{Next: 3, Prob: 0.25}, {Next: 4, Prob: 0.25}, {Next: 1, Prob: 0.5}},
			[]mdp.Transition{{Next: 1, Prob: 0.5}, {Next: 3, Prob: 0.25}, {Next: 4, Prob: 0.25}}},
		{"zeros dropped", []mdp.Transition{{Next: 0, Prob: 1}, {Next: 3, Prob: 0}, {Next: 4, Prob: 0}},
			[]mdp.Transition{{Next: 0, Prob: 1}}},
		{"duplicates merged in input order", []mdp.Transition{{Next: 2, Prob: p}, {Next: 0, Prob: 0.2}, {Next: 2, Prob: q}},
			[]mdp.Transition{{Next: 0, Prob: 0.2}, {Next: 2, Prob: p + q}}},
		{"all zero", []mdp.Transition{{Next: 1, Prob: 0}}, []mdp.Transition{}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got := compact(tt.in)
			if len(got) != len(tt.out) {
				t.Fatalf("compact = %v, want %v", got, tt.out)
			}
			for i, want := range tt.out {
				if got[i].Next != want.Next || math.Float64bits(got[i].Prob) != math.Float64bits(want.Prob) {
					t.Fatalf("compact = %v, want %v", got, tt.out)
				}
			}
		})
	}
}

func TestModelSolveAllocsIndependentOfSweeps(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	m, err := NewModel(paperParams(jammer.ModeMax))
	if err != nil {
		t.Fatal(err)
	}
	allocs := func(tol float64) (float64, int) {
		var (
			sweeps   int
			solveErr error
		)
		n := testing.AllocsPerRun(20, func() {
			sol, err := mdp.Solve(m, 0.9, tol, 1_000_000)
			if err != nil {
				solveErr = err
				return
			}
			sweeps = sol.Iterations
		})
		if solveErr != nil {
			t.Fatal(solveErr)
		}
		return n, sweeps
	}
	coarse, coarseSweeps := allocs(1e-3)
	fine, fineSweeps := allocs(1e-9)
	if fineSweeps <= coarseSweeps {
		t.Fatalf("tol 1e-9 took %d sweeps, tol 1e-3 %d: the guard needs more sweeps at the finer tolerance", fineSweeps, coarseSweeps)
	}
	if coarse != fine {
		t.Fatalf("Solve allocates %v objects in %d sweeps but %v in %d: allocations depend on the sweep count",
			coarse, coarseSweeps, fine, fineSweeps)
	}
}

func BenchmarkModelSolve(b *testing.B) {
	m, err := NewModel(paperParams(jammer.ModeMax))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := m.Solve(0.9); err != nil {
			b.Fatal(err)
		}
	}
}
