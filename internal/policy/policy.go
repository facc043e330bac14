// Package policy is the batched inference engine: it decouples anti-jamming
// decision logic from the agents that train it.
//
// Historically each internal/core agent owned its decision rule — the DQN
// agent held the live learner, the MDP agent a policy table, the baselines
// their ad-hoc state machines — so every decision was a single-state call
// welded to one mutable struct. This package inverts that ownership. A
// decision rule is split into two halves:
//
//   - Policy: a pure, batched state→action function (DecideBatch). Policies
//     hold only immutable data (a weight snapshot, a solved table), so one
//     Policy instance can serve any number of links and goroutines at once.
//   - Encoder: the per-link mutable half — history window, belief tracker,
//     jam streak — plus the link's private RNG. Encoders fold the previous
//     slot into a feature vector (Encode) and turn the chosen action into a
//     concrete channel/power decision (Decode).
//
// A Scheme pairs one shared Policy with an Encoder factory. Scheme.NewAgent
// adapts it back to env.Agent for one link (env.Run, the field simulator's
// per-cluster loop); Scheme.NewBatch steps K links in lockstep through
// env.BatchRun, gathering all K encoded states into one network forward per
// slot. Both adapters drive the same Policy and Encoder code with the same
// per-link RNG streams, so batched results are bit-identical to serial ones
// at any batch size.
package policy

import (
	"fmt"

	"ctjam/internal/env"
	"ctjam/internal/rng"
)

// Policy is a batched, stateless decision rule: given n encoded states it
// picks n actions. Implementations must be pure functions of the states and
// their immutable parameters, safe for concurrent DecideBatch calls.
type Policy interface {
	// Name identifies the scheme ("RL FH", "MDP*", ...).
	Name() string
	// StateDim is the encoded feature vector length (may be 0 for
	// policies that ignore state, e.g. random baselines).
	StateDim() int
	// NumActions is the size of the discrete action space.
	NumActions() int
	// DecideBatch fills actions[i] from states[i*StateDim:(i+1)*StateDim].
	// states must hold len(actions)*StateDim values.
	DecideBatch(states []float64, actions []int) error
}

// Encoder is the per-link mutable half of a scheme: it observes one link's
// slot outcomes, produces the policy's feature vector, and materializes
// chosen actions into decisions. Encoders are not safe for concurrent use;
// each link gets its own.
//
// Encode and Decode read the previous slot through a pointer they must not
// retain or modify: the batch adapter passes its gathered slice's elements,
// so one slot copies no SlotInfo.
type Encoder interface {
	// Reset prepares the encoder for a fresh run with the link's stream.
	Reset(src *rng.Source)
	// Encode folds the previous slot into the link state and writes the
	// policy's StateDim features into dst.
	Encode(prev *env.SlotInfo, dst []float64)
	// Decode turns the policy's chosen action into a channel/power
	// decision, consuming link RNG where the scheme randomizes (e.g. hop
	// targets).
	Decode(prev *env.SlotInfo, action int) env.Decision
}

// Scheme pairs one shared Policy with a factory for its per-link Encoders.
type Scheme struct {
	policy     Policy
	newEncoder func() Encoder
}

// NewScheme builds a scheme from a policy and an encoder factory.
func NewScheme(p Policy, newEncoder func() Encoder) (*Scheme, error) {
	if p == nil || newEncoder == nil {
		return nil, fmt.Errorf("policy: scheme needs a policy and an encoder factory")
	}
	return &Scheme{policy: p, newEncoder: newEncoder}, nil
}

// Name returns the policy's scheme name.
func (s *Scheme) Name() string { return s.policy.Name() }

// Policy returns the shared decision rule.
func (s *Scheme) Policy() Policy { return s.policy }

// Batch drives K links through one shared Policy, implementing
// env.BatchAgent: each DecideBatch gathers all K encoded states into a
// single policy call and scatters the actions back through the per-link
// encoders.
type Batch struct {
	pol     Policy
	encs    []Encoder
	states  []float64
	actions []int
}

var _ env.BatchAgent = (*Batch)(nil)

// NewBatch builds a K-link batch adapter with fresh encoders.
func (s *Scheme) NewBatch(k int) (*Batch, error) {
	if k <= 0 {
		return nil, fmt.Errorf("policy: batch size %d must be positive", k)
	}
	b := &Batch{
		pol:     s.policy,
		encs:    make([]Encoder, k),
		states:  make([]float64, k*s.policy.StateDim()),
		actions: make([]int, k),
	}
	for i := range b.encs {
		b.encs[i] = s.newEncoder()
	}
	return b, nil
}

// Name implements env.BatchAgent.
func (b *Batch) Name() string { return b.pol.Name() }

// Len implements env.BatchAgent.
func (b *Batch) Len() int { return len(b.encs) }

// ResetBatch implements env.BatchAgent.
func (b *Batch) ResetBatch(srcs []*rng.Source) error {
	if len(srcs) != len(b.encs) {
		return fmt.Errorf("policy: %d rngs for %d links", len(srcs), len(b.encs))
	}
	for i, e := range b.encs {
		e.Reset(srcs[i])
	}
	return nil
}

// DecideBatch implements env.BatchAgent.
func (b *Batch) DecideBatch(prev []env.SlotInfo, out []env.Decision) error {
	k := len(b.encs)
	if len(prev) != k || len(out) != k {
		return fmt.Errorf("policy: batch slices sized %d/%d for %d links", len(prev), len(out), k)
	}
	dim := b.pol.StateDim()
	for i, e := range b.encs {
		e.Encode(&prev[i], b.states[i*dim:(i+1)*dim])
	}
	if err := b.pol.DecideBatch(b.states, b.actions); err != nil {
		return err
	}
	for i, e := range b.encs {
		out[i] = e.Decode(&prev[i], b.actions[i])
	}
	return nil
}

// Agent adapts a Scheme to the serial env.Agent interface (a batch of one).
// Every defense's serial agent is one of these, except the live learners
// (core.DQNAgent, core.QAgent) that train it.
type Agent struct {
	scheme *Scheme
	enc    Encoder
	state  []float64
	action [1]int
	// prev holds Decide's argument while the encoder reads it: a pointer
	// to the parameter itself would move every call's copy to the heap.
	prev env.SlotInfo
}

var _ env.Agent = (*Agent)(nil)

// NewAgent builds a single-link adapter with a fresh encoder.
func (s *Scheme) NewAgent() *Agent {
	return &Agent{
		scheme: s,
		enc:    s.newEncoder(),
		state:  make([]float64, s.policy.StateDim()),
	}
}

// Scheme returns the scheme the agent wraps (e.g. to build a Batch that
// plays the same policy).
func (a *Agent) Scheme() *Scheme { return a.scheme }

// Name implements env.Agent.
func (a *Agent) Name() string { return a.scheme.policy.Name() }

// Reset implements env.Agent.
func (a *Agent) Reset(src *rng.Source) { a.enc.Reset(src) }

// Decide implements env.Agent. Like the pre-refactor agents it falls back to
// staying at minimum power if the policy errors (it cannot propagate one).
func (a *Agent) Decide(prev env.SlotInfo) env.Decision {
	a.prev = prev
	a.enc.Encode(&a.prev, a.state)
	if err := a.scheme.policy.DecideBatch(a.state, a.action[:]); err != nil {
		return env.Decision{Channel: prev.Channel, Power: 0}
	}
	return a.enc.Decode(&a.prev, a.action[0])
}

// HopTarget picks a uniformly random channel outside the current channel's
// sweep block, matching the MDP's assumption that a hop lands on one of the
// other S-1 blocks (Eq. 9). Hopping within the jammer's block would not
// escape a 4-channel-wide cross-technology jammer. Every scheme and the
// tabular learner's training loop draw hop targets this way; the encoders
// keep their hopGeom from construction.
func HopTarget(src *rng.Source, current, channels, sweepWidth int) int {
	return newHopGeom(channels, sweepWidth).target(src, current)
}

// hopGeom is the block layout hop targets are drawn over.
type hopGeom struct {
	channels, width, blocks int
}

func newHopGeom(channels, sweepWidth int) hopGeom {
	return hopGeom{channels: channels, width: sweepWidth, blocks: (channels + sweepWidth - 1) / sweepWidth}
}

// target is HopTarget over the geometry.
func (g hopGeom) target(src *rng.Source, current int) int {
	b := src.Intn(g.blocks - 1)
	if b >= current/g.width {
		b++
	}
	lo := b * g.width
	hi := lo + g.width
	if hi > g.channels {
		hi = g.channels
	}
	return lo + src.Intn(hi-lo)
}

func checkTopology(channels, sweepWidth int) error {
	if channels < 2 {
		return fmt.Errorf("policy: channels %d must be >= 2", channels)
	}
	if sweepWidth <= 0 || sweepWidth > channels {
		return fmt.Errorf("policy: sweep width %d out of range [1,%d]", sweepWidth, channels)
	}
	if (channels+sweepWidth-1)/sweepWidth < 2 {
		return fmt.Errorf("policy: need at least 2 sweep blocks (channels=%d width=%d)", channels, sweepWidth)
	}
	return nil
}
