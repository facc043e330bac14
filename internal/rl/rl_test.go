package rl

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"ctjam/internal/nn"
)

func TestReplayBufferValidation(t *testing.T) {
	if _, err := NewReplayBuffer(0); err == nil {
		t.Fatal("capacity 0: expected error")
	}
	b, err := NewReplayBuffer(4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.Sample(nil, 1, rand.New(rand.NewSource(1))); err == nil {
		t.Fatal("empty sample: expected error")
	}
}

func TestReplayBufferWrapAround(t *testing.T) {
	b, err := NewReplayBuffer(3)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		b.Push(Transition{Action: i})
	}
	if b.Len() != 3 || b.Cap() != 3 {
		t.Fatalf("Len=%d Cap=%d", b.Len(), b.Cap())
	}
	// Only actions 2, 3, 4 survive.
	rng := rand.New(rand.NewSource(2))
	samples, err := b.Sample(nil, 100, rng)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range samples {
		if s.Action < 2 || s.Action > 4 {
			t.Fatalf("stale transition %d in buffer", s.Action)
		}
	}
}

func TestReplayBufferLenProperty(t *testing.T) {
	f := func(nPush uint8) bool {
		b, err := NewReplayBuffer(16)
		if err != nil {
			return false
		}
		for i := 0; i < int(nPush); i++ {
			b.Push(Transition{})
		}
		want := int(nPush)
		if want > 16 {
			want = 16
		}
		return b.Len() == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestEpsilonSchedule(t *testing.T) {
	s := EpsilonSchedule{Start: 1, End: 0.1, DecaySteps: 100}
	if got := s.Value(0); got != 1 {
		t.Fatalf("Value(0) = %v", got)
	}
	if got := s.Value(-5); got != 1 {
		t.Fatalf("Value(-5) = %v", got)
	}
	if got := s.Value(50); math.Abs(got-0.55) > 1e-12 {
		t.Fatalf("Value(50) = %v, want 0.55", got)
	}
	if got := s.Value(100); got != 0.1 {
		t.Fatalf("Value(100) = %v", got)
	}
	if got := s.Value(1000); got != 0.1 {
		t.Fatalf("Value(1000) = %v", got)
	}
	// Zero decay steps: always End.
	s0 := EpsilonSchedule{Start: 1, End: 0.2}
	if got := s0.Value(0); got != 0.2 {
		t.Fatalf("no-decay Value(0) = %v", got)
	}
}

func TestEpsilonMonotoneProperty(t *testing.T) {
	s := EpsilonSchedule{Start: 0.9, End: 0.05, DecaySteps: 1000}
	f := func(a, b uint16) bool {
		x, y := int(a), int(b)
		if x > y {
			x, y = y, x
		}
		return s.Value(x) >= s.Value(y)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestNewDQNValidation(t *testing.T) {
	if _, err := NewDQN(DQNConfig{StateDim: 0, NumActions: 4}); err == nil {
		t.Fatal("state dim 0: expected error")
	}
	cfg := DefaultDQNConfig(4, 3)
	cfg.Gamma = 1.0
	if _, err := NewDQN(cfg); err == nil {
		t.Fatal("gamma 1: expected error")
	}
	cfg = DefaultDQNConfig(4, 3)
	cfg.BatchSize = 0
	if _, err := NewDQN(cfg); err == nil {
		t.Fatal("batch 0: expected error")
	}
	cfg = DefaultDQNConfig(4, 3)
	cfg.Hidden = nil
	if _, err := NewDQN(cfg); err == nil {
		t.Fatal("no hidden layers: expected error")
	}
}

// TestBadRatesRejected covers inputs that used to slip through: a NaN gamma,
// a NaN, negative, zero or infinite learning rate (NaN trained every weight
// into NaN, a negative one failed only at the first TrainStep), a NaN rate
// handed straight to Adam or SGD, and a negative sample size (which panicked
// in makeslice).
func TestBadRatesRejected(t *testing.T) {
	withCfg := func(edit func(*DQNConfig)) func() error {
		return func() error {
			cfg := DefaultDQNConfig(4, 3)
			edit(&cfg)
			_, err := NewDQN(cfg)
			return err
		}
	}
	params := func() []*nn.Param {
		p := &nn.Param{Value: nn.FromSlice([]float64{1}), Grad: nn.FromSlice([]float64{1})}
		return []*nn.Param{p}
	}
	for _, tc := range []struct {
		name string
		run  func() error
	}{
		{"gamma NaN", withCfg(func(c *DQNConfig) { c.Gamma = math.NaN() })},
		{"lr NaN", withCfg(func(c *DQNConfig) { c.LearningRate = math.NaN() })},
		{"lr negative", withCfg(func(c *DQNConfig) { c.LearningRate = -1e-3 })},
		{"lr zero", withCfg(func(c *DQNConfig) { c.LearningRate = 0 })},
		{"lr +Inf", withCfg(func(c *DQNConfig) { c.LearningRate = math.Inf(1) })},
		// A batch larger than the buffer never fits, so training never
		// started; a NaN or infinite epsilon pinned exploration.
		{"batch > capacity", withCfg(func(c *DQNConfig) { c.BatchSize, c.BufferCapacity = 65, 64 })},
		{"epsilon start NaN", withCfg(func(c *DQNConfig) { c.Epsilon.Start = math.NaN() })},
		{"epsilon end NaN", withCfg(func(c *DQNConfig) { c.Epsilon.End = math.NaN() })},
		{"epsilon start +Inf", withCfg(func(c *DQNConfig) { c.Epsilon.Start = math.Inf(1) })},
		{"epsilon end -Inf", withCfg(func(c *DQNConfig) { c.Epsilon.End = math.Inf(-1) })},
		{"adam lr NaN", func() error { return nn.NewAdam(math.NaN()).Step(params()) }},
		{"sgd lr NaN", func() error { return (&nn.SGD{LR: math.NaN()}).Step(params()) }},
		{"sample -1", func() error {
			b, err := NewReplayBuffer(4)
			if err != nil {
				return err
			}
			b.Push(Transition{})
			_, err = b.Sample(nil, -1, rand.New(rand.NewSource(1)))
			return err
		}},
	} {
		if err := tc.run(); err == nil {
			t.Errorf("%s: expected an error", tc.name)
		}
	}
}

func TestDQNDimensionChecks(t *testing.T) {
	d, err := NewDQN(DefaultDQNConfig(4, 3))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.QValues([]float64{1}); err == nil {
		t.Fatal("short state: expected error")
	}
	if _, err := d.Observe(Transition{State: make([]float64, 4), Next: make([]float64, 4), Action: 7}); err == nil {
		t.Fatal("bad action: expected error")
	}
	if _, err := d.Observe(Transition{State: make([]float64, 2), Next: make([]float64, 4)}); err == nil {
		t.Fatal("bad state dim: expected error")
	}
}

func TestDQNExplorationDecays(t *testing.T) {
	cfg := DefaultDQNConfig(2, 4)
	cfg.Epsilon = EpsilonSchedule{Start: 1, End: 0, DecaySteps: 10}
	cfg.WarmupSize = 1 << 30 // never train, just count steps
	d, err := NewDQN(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if d.Epsilon() != 1 {
		t.Fatalf("initial epsilon = %v", d.Epsilon())
	}
	tr := Transition{State: []float64{0, 0}, Next: []float64{0, 0}}
	for i := 0; i < 10; i++ {
		if _, err := d.Observe(tr); err != nil {
			t.Fatal(err)
		}
	}
	if d.Epsilon() != 0 {
		t.Fatalf("post-decay epsilon = %v", d.Epsilon())
	}
	if d.EnvSteps() != 10 {
		t.Fatalf("env steps = %d", d.EnvSteps())
	}
}

func TestSelectActionGreedyWhenEpsilonZero(t *testing.T) {
	cfg := DefaultDQNConfig(2, 5)
	cfg.Epsilon = EpsilonSchedule{Start: 0, End: 0}
	d, err := NewDQN(cfg)
	if err != nil {
		t.Fatal(err)
	}
	state := []float64{0.5, -0.5}
	greedy, err := d.GreedyAction(state)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		a, err := d.SelectAction(state)
		if err != nil {
			t.Fatal(err)
		}
		if a != greedy {
			t.Fatalf("epsilon=0 chose %d, greedy is %d", a, greedy)
		}
	}
}

func TestSelectActionExploresOtherActions(t *testing.T) {
	cfg := DefaultDQNConfig(2, 4)
	cfg.Epsilon = EpsilonSchedule{Start: 1, End: 1, DecaySteps: 0}
	d, err := NewDQN(cfg)
	if err != nil {
		t.Fatal(err)
	}
	state := []float64{0.1, 0.2}
	greedy, err := d.GreedyAction(state)
	if err != nil {
		t.Fatal(err)
	}
	counts := make(map[int]int)
	for i := 0; i < 400; i++ {
		a, err := d.SelectAction(state)
		if err != nil {
			t.Fatal(err)
		}
		counts[a]++
	}
	// With eps=1 the greedy action is never selected and the other
	// three are roughly uniform.
	if counts[greedy] != 0 {
		t.Fatalf("greedy action selected %d times under pure exploration", counts[greedy])
	}
	for a, c := range counts {
		if c < 60 {
			t.Fatalf("action %d selected only %d/400 times", a, c)
		}
	}
}

// banditEnv is a 2-state contextual bandit: in state [1,0] action 0 pays 1,
// in state [0,1] action 1 pays 1; everything else pays 0.
func banditState(i int) []float64 {
	if i == 0 {
		return []float64{1, 0}
	}
	return []float64{0, 1}
}

func TestDQNLearnsContextualBandit(t *testing.T) {
	cfg := DQNConfig{
		StateDim:        2,
		NumActions:      2,
		Hidden:          []int{16},
		Gamma:           0.0,
		LearningRate:    5e-3,
		BatchSize:       16,
		BufferCapacity:  2000,
		WarmupSize:      32,
		TargetSyncEvery: 50,
		Epsilon:         EpsilonSchedule{Start: 1, End: 0.05, DecaySteps: 500},
		Seed:            3,
	}
	d, err := NewDQN(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(4))
	for step := 0; step < 1500; step++ {
		ctx := rng.Intn(2)
		s := banditState(ctx)
		a, err := d.SelectAction(s)
		if err != nil {
			t.Fatal(err)
		}
		r := 0.0
		if a == ctx {
			r = 1
		}
		if _, err := d.Observe(Transition{State: s, Action: a, Reward: r, Next: banditState(rng.Intn(2)), Done: true}); err != nil {
			t.Fatal(err)
		}
	}
	for ctx := 0; ctx < 2; ctx++ {
		a, err := d.GreedyAction(banditState(ctx))
		if err != nil {
			t.Fatal(err)
		}
		if a != ctx {
			t.Fatalf("context %d: greedy action %d, want %d", ctx, a, ctx)
		}
	}
	if d.TrainSteps() == 0 {
		t.Fatal("no training steps recorded")
	}
}

func TestDQNLearnsTwoStepCredit(t *testing.T) {
	// Deterministic 2-step chain: from state A, action 1 leads to B with
	// no reward; from B, action 0 pays +1 and terminates. Action 0 in A
	// terminates with 0. With gamma=0.9 the DQN must prefer action 1 in
	// A (value 0.9) over action 0 (value 0).
	stateA := []float64{1, 0}
	stateB := []float64{0, 1}
	cfg := DQNConfig{
		StateDim:        2,
		NumActions:      2,
		Hidden:          []int{16},
		Gamma:           0.9,
		LearningRate:    5e-3,
		BatchSize:       16,
		BufferCapacity:  4000,
		WarmupSize:      32,
		TargetSyncEvery: 50,
		Epsilon:         EpsilonSchedule{Start: 1, End: 0.05, DecaySteps: 800},
		Seed:            5,
	}
	d, err := NewDQN(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for episode := 0; episode < 900; episode++ {
		a, err := d.SelectAction(stateA)
		if err != nil {
			t.Fatal(err)
		}
		if a == 0 {
			if _, err := d.Observe(Transition{State: stateA, Action: 0, Reward: 0, Next: stateA, Done: true}); err != nil {
				t.Fatal(err)
			}
			continue
		}
		if _, err := d.Observe(Transition{State: stateA, Action: 1, Reward: 0, Next: stateB, Done: false}); err != nil {
			t.Fatal(err)
		}
		a2, err := d.SelectAction(stateB)
		if err != nil {
			t.Fatal(err)
		}
		r := 0.0
		if a2 == 0 {
			r = 1
		}
		if _, err := d.Observe(Transition{State: stateB, Action: a2, Reward: r, Next: stateA, Done: true}); err != nil {
			t.Fatal(err)
		}
	}
	aA, err := d.GreedyAction(stateA)
	if err != nil {
		t.Fatal(err)
	}
	aB, err := d.GreedyAction(stateB)
	if err != nil {
		t.Fatal(err)
	}
	if aA != 1 || aB != 0 {
		t.Fatalf("greedy policy A=%d B=%d, want A=1 B=0", aA, aB)
	}
	// The learned Q(A, 1) should approximate gamma*1 = 0.9.
	q, err := d.QValues(stateA)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(q[1]-0.9) > 0.25 {
		t.Fatalf("Q(A,1) = %v, want ~0.9", q[1])
	}
}

func TestSetNetworkSwapsModel(t *testing.T) {
	d, err := NewDQN(DefaultDQNConfig(2, 2))
	if err != nil {
		t.Fatal(err)
	}
	d2, err := NewDQN(DefaultDQNConfig(2, 2))
	if err != nil {
		t.Fatal(err)
	}
	if err := d.SetNetwork(d2.Network()); err != nil {
		t.Fatal(err)
	}
	q1, err := d.QValues([]float64{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	q2, err := d2.QValues([]float64{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	for i := range q1 {
		if q1[i] != q2[i] {
			t.Fatal("SetNetwork did not adopt the new weights")
		}
	}
}

// TestSetNetworkRejectsOtherArchitectures: a network of another shape used to
// load without error, after which the agent silently fell back to its error
// action (other input width) or chose among the first few actions only
// (fewer outputs). Every layer-shape mismatch must fail, naming both shapes,
// and leave the learner's network in place.
func TestSetNetworkRejectsOtherArchitectures(t *testing.T) {
	const want = "24x48 relu 48x48 relu 48x160"
	for _, tc := range []struct {
		sizes []int
		got   string // "" = accepted
	}{
		{[]int{24, 48, 48, 160}, ""},
		{[]int{10, 48, 48, 160}, "10x48 relu 48x48 relu 48x160"},
		{[]int{24, 48, 48, 7}, "24x48 relu 48x48 relu 48x7"},
		{[]int{24, 32, 48, 160}, "24x32 relu 32x48 relu 48x160"},
		{[]int{24, 48, 160}, "24x48 relu 48x160"},
		{[]int{24, 48, 48, 48, 160}, "24x48 relu 48x48 relu 48x48 relu 48x160"},
	} {
		d, err := NewDQN(DefaultDQNConfig(24, 160))
		if err != nil {
			t.Fatal(err)
		}
		before := d.Network()
		net, err := nn.NewMLP(tc.sizes, rand.New(rand.NewSource(3)))
		if err != nil {
			t.Fatal(err)
		}
		err = d.SetNetwork(net)
		if tc.got == "" {
			if err != nil {
				t.Errorf("%v: %v", tc.sizes, err)
			}
			continue
		}
		if err == nil {
			t.Errorf("%v: loaded into a %s learner without error", tc.sizes, want)
			continue
		}
		if msg := err.Error(); !strings.Contains(msg, "["+tc.got+"]") || !strings.Contains(msg, "["+want+"]") {
			t.Errorf("%v: error %q does not name both shapes", tc.sizes, msg)
		}
		if d.Network() != before {
			t.Errorf("%v: rejected network replaced the learner's", tc.sizes)
		}
	}

	// A bias of the wrong width is a shape mismatch too.
	d, err := NewDQN(DefaultDQNConfig(24, 160))
	if err != nil {
		t.Fatal(err)
	}
	net, err := d.Network().Clone()
	if err != nil {
		t.Fatal(err)
	}
	net.Layers[0].(*nn.Dense).B.Value = nn.NewMatrix(1, 47)
	if err := d.SetNetwork(net); err == nil || !strings.Contains(err.Error(), "24x48+bias1x47") {
		t.Errorf("bias 1x47: got %v", err)
	}
}

// TestTrainStepAllocs guards the training hot path: once the learner has
// taken its first steps, a TrainStep (sample, three forward passes, loss,
// backward, Adam) reuses every buffer it needs.
func TestTrainStepAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	d := trainSyntheticDQN(t)
	var stepErr error
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := d.TrainStep(); err != nil {
			stepErr = err
		}
	})
	if stepErr != nil {
		t.Fatal(stepErr)
	}
	if allocs != 0 {
		t.Fatalf("TrainStep allocates %.1f times per call, want 0", allocs)
	}
}

func BenchmarkDQNTrainStep(b *testing.B) {
	cfg := DefaultDQNConfig(24, 160)
	cfg.WarmupSize = 64
	d, err := NewDQN(cfg)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(6))
	for i := 0; i < 256; i++ {
		s := make([]float64, 24)
		n := make([]float64, 24)
		for j := range s {
			s[j] = rng.NormFloat64()
			n[j] = rng.NormFloat64()
		}
		d.buffer.Push(Transition{State: s, Action: rng.Intn(160), Reward: rng.NormFloat64(), Next: n})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := d.TrainStep(); err != nil {
			b.Fatal(err)
		}
	}
}

func TestDoubleDQNLearnsBandit(t *testing.T) {
	cfg := DQNConfig{
		StateDim:        2,
		NumActions:      2,
		Hidden:          []int{16},
		Gamma:           0.0,
		LearningRate:    5e-3,
		BatchSize:       16,
		BufferCapacity:  2000,
		WarmupSize:      32,
		TargetSyncEvery: 50,
		Epsilon:         EpsilonSchedule{Start: 1, End: 0.05, DecaySteps: 500},
		DoubleDQN:       true,
		Seed:            13,
	}
	d, err := NewDQN(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(14))
	for step := 0; step < 1500; step++ {
		ctx := rng.Intn(2)
		s := banditState(ctx)
		a, err := d.SelectAction(s)
		if err != nil {
			t.Fatal(err)
		}
		r := 0.0
		if a == ctx {
			r = 1
		}
		if _, err := d.Observe(Transition{State: s, Action: a, Reward: r, Next: banditState(rng.Intn(2)), Done: true}); err != nil {
			t.Fatal(err)
		}
	}
	for ctx := 0; ctx < 2; ctx++ {
		a, err := d.GreedyAction(banditState(ctx))
		if err != nil {
			t.Fatal(err)
		}
		if a != ctx {
			t.Fatalf("double DQN context %d: greedy %d, want %d", ctx, a, ctx)
		}
	}
}

func TestDoubleDQNTargetDiffersFromPlain(t *testing.T) {
	// With identical seeds and data, double and plain DQN must produce
	// different parameter trajectories once the online/target nets
	// diverge — a smoke check that the flag changes the update rule.
	build := func(double bool) *DQN {
		cfg := DefaultDQNConfig(3, 4)
		cfg.WarmupSize = 8
		cfg.BatchSize = 8
		cfg.DoubleDQN = double
		cfg.Seed = 21
		d, err := NewDQN(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	plain, double := build(false), build(true)
	rng := rand.New(rand.NewSource(22))
	var trs []Transition
	for i := 0; i < 400; i++ {
		s := []float64{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}
		n := []float64{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}
		trs = append(trs, Transition{State: s, Action: rng.Intn(4), Reward: rng.NormFloat64(), Next: n})
	}
	for _, tr := range trs {
		if _, err := plain.Observe(tr); err != nil {
			t.Fatal(err)
		}
		if _, err := double.Observe(tr); err != nil {
			t.Fatal(err)
		}
	}
	state := []float64{0.5, -0.5, 0.1}
	qp, err := plain.QValues(state)
	if err != nil {
		t.Fatal(err)
	}
	qd, err := double.QValues(state)
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := range qp {
		if qp[i] != qd[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("double DQN produced identical Q-values to plain DQN")
	}
}
