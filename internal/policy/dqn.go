package policy

import (
	"fmt"

	"ctjam/internal/env"
	"ctjam/internal/rl"
	"ctjam/internal/rng"
)

// DQN plays greedy argmax over an immutable Q-network snapshot. One DQN
// policy serves any number of links: each DecideBatch stacks the encoded
// history windows into a single batched forward pass.
type DQN struct {
	name string
	snap *rl.Snapshot
}

var _ Policy = (*DQN)(nil)

// NewDQN wraps an inference snapshot as a policy.
func NewDQN(name string, snap *rl.Snapshot) (*DQN, error) {
	if snap == nil {
		return nil, fmt.Errorf("policy: dqn needs a snapshot")
	}
	return &DQN{name: name, snap: snap}, nil
}

// Name implements Policy.
func (p *DQN) Name() string { return p.name }

// StateDim implements Policy.
func (p *DQN) StateDim() int { return p.snap.StateDim() }

// NumActions implements Policy.
func (p *DQN) NumActions() int { return p.snap.NumActions() }

// Snapshot returns the underlying network snapshot (e.g. for Q inspection).
func (p *DQN) Snapshot() *rl.Snapshot { return p.snap }

// DecideBatch implements Policy via one batched greedy forward.
func (p *DQN) DecideBatch(states []float64, actions []int) error {
	return p.snap.GreedyBatch(actions, states)
}

// QValuesBatch writes the full Q rows for n stacked states into dst
// (n*NumActions values). It shares the snapshot's pooled batch scratch, so —
// like DecideBatch — it is safe for any number of concurrent callers; the
// serving layer uses it for qvalues-annotated decisions without reaching
// around the policy abstraction.
func (p *DQN) QValuesBatch(dst, states []float64) error {
	return p.snap.QValuesBatch(dst, states)
}

// DQNScheme pairs a snapshot-backed DQN policy with History encoders
// matching the paper's 3*I observation window over (outcome, channel,
// power).
func DQNScheme(name string, snap *rl.Snapshot, channels, powers, historyLen int) (*Scheme, error) {
	if snap.StateDim() != 3*historyLen {
		return nil, fmt.Errorf("policy: snapshot expects %d features, history of %d slots encodes %d",
			snap.StateDim(), historyLen, 3*historyLen)
	}
	if snap.NumActions() != channels*powers {
		return nil, fmt.Errorf("policy: snapshot has %d actions, %d channels x %d powers need %d",
			snap.NumActions(), channels, powers, channels*powers)
	}
	p, err := NewDQN(name, snap)
	if err != nil {
		return nil, err
	}
	return NewScheme(p, func() Encoder {
		return NewHistory(channels, powers, historyLen)
	})
}

// History is the DQN scheme's per-link encoder: the paper's rolling window
// of the last I slots, three features per slot — outcome (+1 success, +0.5
// jammed-but-survived, -1 jammed), normalized channel and normalized power.
// It is also the mutable state internal/core's DQN agent trains through, so
// the training path and the inference engine share one encoding.
type History struct {
	channels, powers, historyLen int
	window                       []float64
}

var _ Encoder = (*History)(nil)

// NewHistory builds a zeroed history window encoder.
func NewHistory(channels, powers, historyLen int) *History {
	return &History{
		channels:   channels,
		powers:     powers,
		historyLen: historyLen,
		window:     make([]float64, 3*historyLen),
	}
}

// Reset implements Encoder; the DQN scheme is deterministic at inference
// time, so the RNG is unused.
func (h *History) Reset(*rng.Source) { h.Clear() }

// Clear zeroes the window (a fresh run).
func (h *History) Clear() {
	for i := range h.window {
		h.window[i] = 0
	}
}

// Push appends one slot record (outcome, channel, power) to the rolling
// window, dropping the oldest.
func (h *History) Push(outcome env.Outcome, channel, power int) {
	var oc float64
	switch outcome {
	case env.OutcomeSuccess:
		oc = 1
	case env.OutcomeJammedSurvived:
		oc = 0.5
	case env.OutcomeJammed:
		oc = -1
	}
	copy(h.window, h.window[3:])
	n := len(h.window)
	h.window[n-3] = oc
	h.window[n-2] = float64(channel) / float64(h.channels-1)
	h.window[n-1] = float64(power) / float64(max(h.powers-1, 1))
}

// Window returns the live 3*I feature window (mutations via Push are
// visible; callers must not resize it).
func (h *History) Window() []float64 { return h.window }

// Snapshot returns a copy of the window (for replay transitions, which
// retain their State/Next slices).
func (h *History) Snapshot() []float64 {
	out := make([]float64, len(h.window))
	copy(out, h.window)
	return out
}

// SetWindow replaces the window contents (checkpoint restore). The adopted
// slice must have the encoder's 3*I length.
func (h *History) SetWindow(w []float64) error {
	if len(w) != len(h.window) {
		return fmt.Errorf("policy: history window has %d values, want %d", len(w), len(h.window))
	}
	h.window = w
	return nil
}

// Encode implements Encoder: fold the previous slot into the window and emit
// it as the feature vector.
func (h *History) Encode(prev *env.SlotInfo, dst []float64) {
	if !prev.First {
		h.Push(prev.Outcome, prev.Channel, prev.Power)
	}
	copy(dst, h.window)
}

// Decode implements Encoder: actions enumerate (channel, power) pairs.
func (h *History) Decode(prev *env.SlotInfo, action int) env.Decision {
	return env.Decision{Channel: action / h.powers, Power: action % h.powers}
}
