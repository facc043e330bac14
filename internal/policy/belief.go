package policy

import (
	"fmt"
	"math"

	"ctjam/internal/env"
	"ctjam/internal/rng"
)

// BeliefModel is the slice of the anti-jamming MDP the belief-state schemes
// need: the state indexing (counting states n, T_J, J) and the action
// encoding (stay/hop x power). internal/core's Model satisfies it; the
// interface keeps this package free of a core dependency (core imports
// policy, not the other way around).
type BeliefModel interface {
	// SweepCycle returns S, the jammer's sweep cycle in slots.
	SweepCycle() int
	// StateTJ and StateJ return the jammed-state indices.
	StateTJ() int
	StateJ() int
	// StateOfN converts a success count n (1..S-1) to a state index.
	StateOfN(n int) (int, error)
	// NumStates and NumActions size the model.
	NumStates() int
	NumActions() int
	// DecodeAction splits an action index into (hop, power).
	DecodeAction(a int) (hop bool, power int, err error)
}

// Lookup plays a fixed state→action table — the solved MDP's greedy policy.
type Lookup struct {
	name    string
	actions []int
	numActs int
}

var _ Policy = (*Lookup)(nil)

// NewLookup wraps a per-state action table (copied) as a policy.
func NewLookup(name string, actions []int, numActions int) (*Lookup, error) {
	if len(actions) == 0 || numActions <= 0 {
		return nil, fmt.Errorf("policy: lookup needs states and actions")
	}
	for s, a := range actions {
		if a < 0 || a >= numActions {
			return nil, fmt.Errorf("policy: lookup action %d at state %d out of range [0,%d)", a, s, numActions)
		}
	}
	return &Lookup{name: name, actions: append([]int(nil), actions...), numActs: numActions}, nil
}

// Name implements Policy.
func (p *Lookup) Name() string { return p.name }

// StateDim implements Policy: one feature, the belief-state index.
func (p *Lookup) StateDim() int { return 1 }

// NumActions implements Policy.
func (p *Lookup) NumActions() int { return p.numActs }

// DecideBatch implements Policy.
func (p *Lookup) DecideBatch(states []float64, actions []int) error {
	if len(states) != len(actions) {
		return fmt.Errorf("policy: lookup batch of %d states for %d actions", len(states), len(actions))
	}
	for i, s := range states {
		idx := int(s)
		if idx < 0 || idx >= len(p.actions) {
			return fmt.Errorf("policy: lookup state %d out of range [0,%d)", idx, len(p.actions))
		}
		actions[i] = p.actions[idx]
	}
	return nil
}

// TableGreedy plays argmax over an immutable Q matrix (states x actions) —
// the tabular Q-learning scheme's inference half.
type TableGreedy struct {
	name string
	q    [][]float64
}

var _ Policy = (*TableGreedy)(nil)

// NewTableGreedy wraps a Q matrix (adopted, not copied — pass a snapshot) as
// a policy.
func NewTableGreedy(name string, q [][]float64) (*TableGreedy, error) {
	if len(q) == 0 || len(q[0]) == 0 {
		return nil, fmt.Errorf("policy: greedy table needs states and actions")
	}
	for s := range q {
		if len(q[s]) != len(q[0]) {
			return nil, fmt.Errorf("policy: ragged q table at state %d", s)
		}
	}
	return &TableGreedy{name: name, q: q}, nil
}

// Name implements Policy.
func (p *TableGreedy) Name() string { return p.name }

// StateDim implements Policy: one feature, the belief-state index.
func (p *TableGreedy) StateDim() int { return 1 }

// NumActions implements Policy.
func (p *TableGreedy) NumActions() int { return len(p.q[0]) }

// DecideBatch implements Policy.
func (p *TableGreedy) DecideBatch(states []float64, actions []int) error {
	if len(states) != len(actions) {
		return fmt.Errorf("policy: greedy batch of %d states for %d actions", len(states), len(actions))
	}
	for i, s := range states {
		idx := int(s)
		if idx < 0 || idx >= len(p.q) {
			return fmt.Errorf("policy: greedy state %d out of range [0,%d)", idx, len(p.q))
		}
		best, bestV := 0, math.Inf(-1)
		for a, v := range p.q[idx] {
			if v > bestV {
				best, bestV = a, v
			}
		}
		actions[i] = best
	}
	return nil
}

// MDPScheme pairs a Lookup over the solved policy with Belief encoders.
func MDPScheme(name string, model BeliefModel, solved []int, channels, sweepWidth int) (*Scheme, error) {
	if len(solved) != model.NumStates() {
		return nil, fmt.Errorf("policy: solved policy has %d states, model needs %d", len(solved), model.NumStates())
	}
	p, err := NewLookup(name, solved, model.NumActions())
	if err != nil {
		return nil, err
	}
	return beliefScheme(p, model, channels, sweepWidth)
}

// QTableScheme pairs a TableGreedy over a Q snapshot with Belief encoders.
func QTableScheme(name string, model BeliefModel, q [][]float64, channels, sweepWidth int) (*Scheme, error) {
	if len(q) != model.NumStates() {
		return nil, fmt.Errorf("policy: q table has %d states, model needs %d", len(q), model.NumStates())
	}
	p, err := NewTableGreedy(name, q)
	if err != nil {
		return nil, err
	}
	return beliefScheme(p, model, channels, sweepWidth)
}

func beliefScheme(p Policy, model BeliefModel, channels, sweepWidth int) (*Scheme, error) {
	t, err := newBeliefTable(model, channels, sweepWidth)
	if err != nil {
		return nil, err
	}
	return NewScheme(p, func() Encoder { return &Belief{t: t, n: 1} })
}

// beliefTable is what a Belief encoder reads from its BeliefModel and
// topology, looked up once per scheme and shared read-only by every encoder
// the scheme builds, so a slot makes no interface call into the model.
type beliefTable struct {
	cycle   int   // S
	stateTJ int   // state index of T_J
	stateJ  int   // state index of J
	stateN  []int // stateN[n] is the state index of n successes, 1 <= n < S
	// actions[a] is action a split into (hop, power).
	actions []beliefAction
	hop     hopGeom
}

type beliefAction struct {
	hop   bool
	power int
}

func newBeliefTable(model BeliefModel, channels, sweepWidth int) (*beliefTable, error) {
	if err := checkTopology(channels, sweepWidth); err != nil {
		return nil, err
	}
	t := &beliefTable{
		cycle:   model.SweepCycle(),
		stateTJ: model.StateTJ(),
		stateJ:  model.StateJ(),
		hop:     newHopGeom(channels, sweepWidth),
	}
	if t.cycle < 2 {
		return nil, fmt.Errorf("policy: belief model sweep cycle %d must be >= 2", t.cycle)
	}
	t.stateN = make([]int, t.cycle)
	for n := 1; n < t.cycle; n++ {
		s, err := model.StateOfN(n)
		if err != nil {
			return nil, fmt.Errorf("policy: belief model state of n=%d: %w", n, err)
		}
		t.stateN[n] = s
	}
	t.actions = make([]beliefAction, model.NumActions())
	for a := range t.actions {
		hop, power, err := model.DecodeAction(a)
		if err != nil {
			return nil, fmt.Errorf("policy: belief model action %d: %w", a, err)
		}
		t.actions[a] = beliefAction{hop: hop, power: power}
	}
	return t, nil
}

// Belief is the per-link encoder for the belief-state schemes: it tracks the
// §III-B belief (n consecutive successes on the current channel, or the T_J
// / J jammed states) from observed outcomes and emits the state index as the
// single feature. Decode realizes hop actions with the block-aware HopTarget
// draw.
type Belief struct {
	t *beliefTable

	src *rng.Source
	n   int // consecutive successes on current channel
	tj  bool
	j   bool
}

var _ Encoder = (*Belief)(nil)

// NewBelief builds a belief encoder for the given model and topology. It
// fails if the model cannot index every belief state and action.
func NewBelief(model BeliefModel, channels, sweepWidth int) (*Belief, error) {
	t, err := newBeliefTable(model, channels, sweepWidth)
	if err != nil {
		return nil, err
	}
	return &Belief{t: t, n: 1}, nil
}

// Reset implements Encoder.
func (b *Belief) Reset(src *rng.Source) {
	b.src = src
	b.n = 1
	b.tj = false
	b.j = false
}

// Observe folds a slot outcome into the belief (shared with the tabular
// training loop in internal/core).
func (b *Belief) Observe(outcome env.Outcome, hopped bool) {
	switch outcome {
	case env.OutcomeSuccess:
		if hopped || b.tj || b.j {
			b.n = 1
		} else if b.n < b.t.cycle-1 {
			b.n++
		}
		b.tj, b.j = false, false
	case env.OutcomeJammedSurvived:
		b.tj, b.j = true, false
	case env.OutcomeJammed:
		b.tj, b.j = false, true
	}
}

// State maps the tracked belief to a model state index.
func (b *Belief) State() int {
	switch {
	case b.j:
		return b.t.stateJ
	case b.tj:
		return b.t.stateTJ
	default:
		return b.t.stateN[b.n]
	}
}

// Encode implements Encoder.
func (b *Belief) Encode(prev *env.SlotInfo, dst []float64) {
	if !prev.First {
		b.Observe(prev.Outcome, prev.Hopped)
	}
	dst[0] = float64(b.State())
}

// Decode implements Encoder: hop actions draw a block-aware target from the
// link RNG (never on the first slot, which has no channel to hop from). An
// action the model does not define stays at minimum power.
func (b *Belief) Decode(prev *env.SlotInfo, action int) env.Decision {
	if action < 0 || action >= len(b.t.actions) {
		return env.Decision{Channel: prev.Channel, Power: 0}
	}
	a := b.t.actions[action]
	ch := prev.Channel
	if a.hop && !prev.First {
		ch = b.t.hop.target(b.src, prev.Channel)
	}
	return env.Decision{Channel: ch, Power: a.power}
}
