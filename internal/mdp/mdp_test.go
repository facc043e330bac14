package mdp

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// chainModel is a deterministic 2-state model: action 0 stays (reward 0),
// action 1 moves to the other state (reward 1 when moving 0->1, -1 when
// moving 1->0).
type chainModel struct{}

func (chainModel) NumStates() int  { return 2 }
func (chainModel) NumActions() int { return 2 }

func (chainModel) Transitions(s, a int) []Transition {
	if a == 0 {
		return []Transition{{Next: s, Prob: 1}}
	}
	return []Transition{{Next: 1 - s, Prob: 1}}
}

func (chainModel) Reward(s, a, next int) float64 {
	if a == 0 {
		return 0
	}
	if s == 0 {
		return 1
	}
	return -1
}

// randomModel is a randomly generated dense MDP used for property tests.
type randomModel struct {
	nS, nA  int
	trans   [][][]Transition
	rewards [][]float64 // reward depends on (s, a) only
}

func newRandomModel(r *rand.Rand, nS, nA int) *randomModel {
	m := &randomModel{nS: nS, nA: nA}
	m.trans = make([][][]Transition, nS)
	m.rewards = make([][]float64, nS)
	for s := 0; s < nS; s++ {
		m.trans[s] = make([][]Transition, nA)
		m.rewards[s] = make([]float64, nA)
		for a := 0; a < nA; a++ {
			weights := make([]float64, nS)
			var sum float64
			for i := range weights {
				weights[i] = r.Float64()
				sum += weights[i]
			}
			trs := make([]Transition, 0, nS)
			for i, w := range weights {
				trs = append(trs, Transition{Next: i, Prob: w / sum})
			}
			m.trans[s][a] = trs
			m.rewards[s][a] = r.NormFloat64() * 5
		}
	}
	return m
}

func (m *randomModel) NumStates() int                    { return m.nS }
func (m *randomModel) NumActions() int                   { return m.nA }
func (m *randomModel) Transitions(s, a int) []Transition { return m.trans[s][a] }
func (m *randomModel) Reward(s, a, next int) float64     { return m.rewards[s][a] }

// badModel returns probabilities that do not sum to one.
type badModel struct{ chainModel }

func (badModel) Transitions(s, a int) []Transition {
	return []Transition{{Next: 0, Prob: 0.5}}
}

func TestSolveChainModel(t *testing.T) {
	// Optimal: in state 0 take action 1 (+1), in state 1 take action 0
	// (stay, 0). V(0) = 1 + g*V(1); V(1) = g*V(0)... staying in 1 forever
	// yields 0, so V(1) = max(0, -1+g*V(0)).
	const gamma = 0.9
	sol, err := Solve(chainModel{}, gamma, 1e-10, 10000)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Policy[0] != 1 {
		t.Fatalf("policy[0] = %d, want 1 (move)", sol.Policy[0])
	}
	if sol.Policy[1] != 0 {
		t.Fatalf("policy[1] = %d, want 0 (stay)", sol.Policy[1])
	}
	if math.Abs(sol.V[1]-0) > 1e-8 {
		t.Fatalf("V[1] = %v, want 0", sol.V[1])
	}
	if math.Abs(sol.V[0]-1) > 1e-8 {
		t.Fatalf("V[0] = %v, want 1", sol.V[0])
	}
}

func TestSolveValidation(t *testing.T) {
	if _, err := Solve(chainModel{}, 1.0, 1e-6, 100); !errors.Is(err, ErrBadDiscount) {
		t.Fatalf("gamma=1: err = %v", err)
	}
	if _, err := Solve(chainModel{}, -0.1, 1e-6, 100); !errors.Is(err, ErrBadDiscount) {
		t.Fatalf("gamma<0: err = %v", err)
	}
	if _, err := Solve(badModel{}, 0.9, 1e-6, 100); !errors.Is(err, ErrBadTransition) {
		t.Fatalf("bad transitions: err = %v", err)
	}
	// A model whose Reward indexes by next must get the error, not a panic.
	if _, err := Solve(outOfRangeModel{}, 0.9, 1e-6, 100); !errors.Is(err, ErrBadTransition) {
		t.Fatalf("out-of-range next (Solve): err = %v", err)
	}
	if _, err := EvaluatePolicy(outOfRangeModel{}, []int{0, 0}, 0.9, 1e-6, 100); !errors.Is(err, ErrBadTransition) {
		t.Fatalf("out-of-range next (EvaluatePolicy): err = %v", err)
	}
	if err := ValidateModel(outOfRangeModel{}); !errors.Is(err, ErrBadTransition) {
		t.Fatalf("out-of-range next (ValidateModel): err = %v", err)
	}
}

// outOfRangeModel sends state 1 to a next state that does not exist and
// reads its reward from a per-next-state slice.
type outOfRangeModel struct{ chainModel }

func (outOfRangeModel) Transitions(s, a int) []Transition {
	return []Transition{{Next: 2 * s, Prob: 1}}
}

func (outOfRangeModel) Reward(s, a, next int) float64 {
	return []float64{1, -1}[next]
}

func TestIterationArgumentValidation(t *testing.T) {
	tests := []struct {
		name    string
		tol     float64
		maxIter int
	}{
		{"zero sweeps", 1e-9, 0},
		{"negative sweeps", 1e-9, -1},
		{"negative tolerance", -1e-9, 100},
		{"NaN tolerance", math.NaN(), 100},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if sol, err := Solve(chainModel{}, 0.9, tt.tol, tt.maxIter); err == nil {
				t.Errorf("Solve = %+v, want an error", sol)
			}
			if v, err := EvaluatePolicy(chainModel{}, []int{1, 0}, 0.9, tt.tol, tt.maxIter); err == nil {
				t.Errorf("EvaluatePolicy = %v, want an error", v)
			}
		})
	}
}

func TestSolveNotConverged(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	m := newRandomModel(r, 10, 3)
	if _, err := Solve(m, 0.999, 1e-12, 2); !errors.Is(err, ErrNotConverged) {
		t.Fatalf("err = %v, want ErrNotConverged", err)
	}
}

func TestBellmanContractionProperty(t *testing.T) {
	// Banach fixed-point argument from the paper's appendix: one backup
	// contracts the max-norm distance between two value functions by at
	// least gamma.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		m := newRandomModel(r, 8, 3)
		const gamma = 0.9
		v1 := make([]float64, 8)
		v2 := make([]float64, 8)
		for i := range v1 {
			v1[i] = r.NormFloat64() * 10
			v2[i] = r.NormFloat64() * 10
		}
		o1 := make([]float64, 8)
		o2 := make([]float64, 8)
		BellmanBackup(m, gamma, v1, o1)
		BellmanBackup(m, gamma, v2, o2)
		var before, after float64
		for i := range v1 {
			before = math.Max(before, math.Abs(v1[i]-v2[i]))
			after = math.Max(after, math.Abs(o1[i]-o2[i]))
		}
		return after <= gamma*before+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestSolutionIsBellmanFixedPointProperty(t *testing.T) {
	// The returned V must satisfy V = max_a Q(s,a) and be (nearly) a
	// fixed point of the backup.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		m := newRandomModel(r, 6, 4)
		sol, err := Solve(m, 0.85, 1e-10, 100000)
		if err != nil {
			return false
		}
		out := make([]float64, 6)
		delta := BellmanBackup(m, 0.85, sol.V, out)
		if delta > 1e-7 {
			return false
		}
		for s := 0; s < 6; s++ {
			best := math.Inf(-1)
			for _, qv := range sol.Q[s] {
				best = math.Max(best, qv)
			}
			if math.Abs(best-sol.V[s]) > 1e-7 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestGreedyPolicyBeatsRandomPolicyProperty(t *testing.T) {
	// The value of the greedy policy must dominate any other policy's
	// value at every state (Theorem III.1: existence of an optimal
	// policy).
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		m := newRandomModel(r, 6, 3)
		const gamma = 0.8
		sol, err := Solve(m, gamma, 1e-10, 100000)
		if err != nil {
			return false
		}
		vStar, err := EvaluatePolicy(m, sol.Policy, gamma, 1e-10, 100000)
		if err != nil {
			return false
		}
		other := make([]int, 6)
		for i := range other {
			other[i] = r.Intn(3)
		}
		vOther, err := EvaluatePolicy(m, other, gamma, 1e-10, 100000)
		if err != nil {
			return false
		}
		for s := 0; s < 6; s++ {
			if vOther[s] > vStar[s]+1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestEvaluatePolicyMatchesSolveValue(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	m := newRandomModel(r, 12, 4)
	const gamma = 0.9
	sol, err := Solve(m, gamma, 1e-11, 200000)
	if err != nil {
		t.Fatal(err)
	}
	v, err := EvaluatePolicy(m, sol.Policy, gamma, 1e-11, 200000)
	if err != nil {
		t.Fatal(err)
	}
	for s := range v {
		if math.Abs(v[s]-sol.V[s]) > 1e-6 {
			t.Fatalf("state %d: policy value %v != optimal value %v", s, v[s], sol.V[s])
		}
	}
}

func TestEvaluatePolicyValidation(t *testing.T) {
	m := chainModel{}
	if _, err := EvaluatePolicy(m, []int{0}, 0.9, 1e-9, 100); err == nil {
		t.Fatal("short policy: expected error")
	}
	if _, err := EvaluatePolicy(m, []int{0, 5}, 0.9, 1e-9, 100); err == nil {
		t.Fatal("bad action: expected error")
	}
	if _, err := EvaluatePolicy(m, []int{0, 0}, 1.5, 1e-9, 100); !errors.Is(err, ErrBadDiscount) {
		t.Fatal("bad gamma: expected ErrBadDiscount")
	}
}

func TestGreedyPolicy(t *testing.T) {
	q := [][]float64{
		{1, 3, 2},
		{-5, -7, -6},
	}
	got := GreedyPolicy(q)
	if got[0] != 1 || got[1] != 0 {
		t.Fatalf("GreedyPolicy = %v", got)
	}
}

func TestValidateModelEmpty(t *testing.T) {
	m := &randomModel{nS: 0, nA: 0}
	if err := ValidateModel(m); !errors.Is(err, ErrEmptyModel) {
		t.Fatalf("err = %v, want ErrEmptyModel", err)
	}
}

func TestDiscountShrinksHorizonProperty(t *testing.T) {
	// With gamma = 0 the optimal value equals the best expected
	// immediate reward.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		m := newRandomModel(r, 5, 3)
		sol, err := Solve(m, 0, 1e-12, 1000)
		if err != nil {
			return false
		}
		for s := 0; s < 5; s++ {
			best := math.Inf(-1)
			for a := 0; a < 3; a++ {
				best = math.Max(best, m.rewards[s][a])
			}
			if math.Abs(sol.V[s]-best) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// naiveSolve is the value iteration Solve ran before it compiled its model:
// every sweep calls Transitions and Reward afresh. Solve must reproduce it
// bit for bit.
func naiveSolve(m Model, gamma, tol float64, maxIter int) (*Solution, error) {
	if gamma < 0 || gamma >= 1 {
		return nil, fmt.Errorf("%w: got %v", ErrBadDiscount, gamma)
	}
	if err := ValidateModel(m); err != nil {
		return nil, err
	}
	nS, nA := m.NumStates(), m.NumActions()
	v := make([]float64, nS)
	next := make([]float64, nS)
	var (
		iter  int
		delta float64
	)
	for iter = 1; iter <= maxIter; iter++ {
		delta = naiveBackup(m, gamma, v, next)
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
			var qa float64
			for _, tr := range m.Transitions(s, a) {
				qa += tr.Prob * (m.Reward(s, a, tr.Next) + gamma*v[tr.Next])
			}
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

// naiveBackup is BellmanBackup before compilation.
func naiveBackup(m Model, gamma float64, v, out []float64) float64 {
	nS, nA := m.NumStates(), m.NumActions()
	var delta float64
	for s := 0; s < nS; s++ {
		best := math.Inf(-1)
		for a := 0; a < nA; a++ {
			var q float64
			for _, tr := range m.Transitions(s, a) {
				q += tr.Prob * (m.Reward(s, a, tr.Next) + gamma*v[tr.Next])
			}
			if q > best {
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

// naiveEvaluate is EvaluatePolicy's sweep loop before compilation.
func naiveEvaluate(m Model, policy []int, gamma, tol float64, maxIter int) []float64 {
	nS := m.NumStates()
	v := make([]float64, nS)
	next := make([]float64, nS)
	for iter := 0; iter < maxIter; iter++ {
		var delta float64
		for s := 0; s < nS; s++ {
			var val float64
			for _, tr := range m.Transitions(s, policy[s]) {
				val += tr.Prob * (m.Reward(s, policy[s], tr.Next) + gamma*v[tr.Next])
			}
			if d := math.Abs(val - v[s]); d > delta {
				delta = d
			}
			next[s] = val
		}
		v, next = next, v
		if delta <= tol {
			return v
		}
	}
	return nil
}

// sameSolution reports the first difference between two solutions, comparing
// every float by its bits.
func sameSolution(got, want *Solution) error {
	if got.Iterations != want.Iterations {
		return fmt.Errorf("Iterations = %d, want %d", got.Iterations, want.Iterations)
	}
	if math.Float64bits(got.Residual) != math.Float64bits(want.Residual) {
		return fmt.Errorf("Residual = %v, want %v", got.Residual, want.Residual)
	}
	if err := sameBits("V", got.V, want.V); err != nil {
		return err
	}
	if len(got.Q) != len(want.Q) || len(got.Policy) != len(want.Policy) {
		return fmt.Errorf("shape: %d Q rows and %d policy entries, want %d and %d",
			len(got.Q), len(got.Policy), len(want.Q), len(want.Policy))
	}
	for s := range want.Q {
		if err := sameBits(fmt.Sprintf("Q[%d]", s), got.Q[s], want.Q[s]); err != nil {
			return err
		}
		if got.Policy[s] != want.Policy[s] {
			return fmt.Errorf("Policy[%d] = %d, want %d", s, got.Policy[s], want.Policy[s])
		}
	}
	return nil
}

// sameBits reports the first element where got and want differ in bits.
func sameBits(name string, got, want []float64) error {
	if len(got) != len(want) {
		return fmt.Errorf("len(%s) = %d, want %d", name, len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			return fmt.Errorf("%s[%d] = %v, want %v", name, i, got[i], want[i])
		}
	}
	return nil
}

func TestSolveMatchesNaiveBitForBit(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for _, size := range []struct{ nS, nA int }{{1, 1}, {2, 3}, {6, 4}, {12, 5}, {30, 2}} {
		for _, gamma := range []float64{0, 0.5, 0.9, 0.99} {
			for _, tol := range []float64{1e-3, 1e-9} {
				m := newRandomModel(r, size.nS, size.nA)
				name := fmt.Sprintf("%dx%d/gamma=%v/tol=%v", size.nS, size.nA, gamma, tol)
				want, err := naiveSolve(m, gamma, tol, 100000)
				if err != nil {
					t.Fatalf("%s: reference: %v", name, err)
				}
				got, err := Solve(m, gamma, tol, 100000)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if err := sameSolution(got, want); err != nil {
					t.Errorf("%s: %v", name, err)
				}
				v, err := EvaluatePolicy(m, want.Policy, gamma, tol, 100000)
				if err != nil {
					t.Fatalf("%s: EvaluatePolicy: %v", name, err)
				}
				if err := sameBits("EvaluatePolicy", v, naiveEvaluate(m, want.Policy, gamma, tol, 100000)); err != nil {
					t.Errorf("%s: %v", name, err)
				}
			}
		}
	}
}

func TestBellmanBackupMatchesNaive(t *testing.T) {
	r := rand.New(rand.NewSource(12))
	m := newRandomModel(r, 9, 4)
	v := make([]float64, 9)
	for i := range v {
		v[i] = r.NormFloat64() * 10
	}
	got, want := make([]float64, 9), make([]float64, 9)
	dGot, dWant := BellmanBackup(m, 0.9, v, got), naiveBackup(m, 0.9, v, want)
	if math.Float64bits(dGot) != math.Float64bits(dWant) {
		t.Fatalf("delta = %v, want %v", dGot, dWant)
	}
	if err := sameBits("out", got, want); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkSolve50x10(b *testing.B) {
	r := rand.New(rand.NewSource(8))
	m := newRandomModel(r, 50, 10)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Solve(m, 0.9, 1e-8, 100000); err != nil {
			b.Fatal(err)
		}
	}
}
