package jammer

import (
	"fmt"

	"ctjam/internal/rng"
)

// Strategy is a pluggable attacker: a time-slotted jammer that reacts to the
// victim's current channel each slot. The sweeping EmuBee (§II-C) is one
// Strategy; the zoo adds reactive, learning/adaptive and energy-budgeted
// attackers on the same contract.
//
// The contract every Strategy must hold, because environments, the field
// engine, checkpoint/resume and the distributed harness all rely on it:
//
//   - Construction draws nothing from the shared RNG, so the owner's draw
//     order after construction is independent of the strategy kind.
//   - Step is deterministic given the RNG stream: equal states plus equal
//     victim walks produce bit-identical (jammed, power) sequences.
//   - State/SetState round-trip mid-run: restoring a snapshot into a fresh
//     same-config strategy (with the owner's RNG also restored) resumes
//     bit-identically.
//   - Step performs no heap allocation at steady state.
//
// Strategies are not safe for concurrent use.
type Strategy interface {
	// Kind returns the strategy's registry name ("sweep", "reactive", ...).
	Kind() string
	// Step advances the jammer by one time slot given the channel the victim
	// transmits on this slot. It reports whether the victim's channel is
	// inside the jammed block this slot and, if so, the jamming power used.
	Step(victimChannel int) (jammed bool, power float64, err error)
	// Focus returns the block the jammer is currently committed to jamming,
	// if any — the generalization of the sweeper's lock that environments use
	// to attribute useful hops (a hop away from the focused block that ends
	// in success). It must neither draw from the RNG nor change the
	// strategy's state: environments call it only on slots where the
	// victim hops, so skipping a call must change nothing.
	Focus() (block int, ok bool)
	// State snapshots the strategy's mutable state for checkpointing. The
	// RNG is shared with (and captured by) the owner, so it is not part of
	// the state.
	State() State
	// SetState restores a snapshot taken with State on a same-config
	// strategy. A snapshot of a different kind or with out-of-range values
	// is rejected.
	SetState(State) error
	// Reset returns the strategy to its initial (pre-first-slot) state.
	Reset()
}

// MaxStepDraws bounds the Intn and Float64 calls one Strategy.Step makes on
// the shared RNG: the adaptive jammer's exploration coin and block pick, then
// the emitter's power pick. The sweeper's block pick and the reactive
// detector's miss coin stay within it, and the budget wrapper draws nothing
// of its own. Owners restoring a stream position bound it with this.
const MaxStepDraws = 3

// State is a serializable snapshot of any Strategy's mutable state: the kind
// tag plus flat integer/float payloads whose layout is private to the
// strategy, and an optional inner state for wrapper strategies (the
// energy-budget wrapper snapshots its wrapped attacker here). Keeping the
// payload generic lets the CTTC training checkpoint and env.State serialize
// every attacker through one codec.
type State struct {
	// Kind is the owning strategy's Kind(); SetState rejects mismatches.
	Kind string
	// Ints and Floats are the strategy-private payloads.
	Ints   []int64
	Floats []float64
	// Inner is the wrapped strategy's state for composite strategies; nil
	// otherwise.
	Inner *State
}

// clone deep-copies the state so snapshots cannot alias live strategy
// buffers.
func (s State) clone() State {
	out := State{Kind: s.Kind}
	if s.Ints != nil {
		out.Ints = append([]int64(nil), s.Ints...)
	}
	if s.Floats != nil {
		out.Floats = append([]float64(nil), s.Floats...)
	}
	if s.Inner != nil {
		in := s.Inner.clone()
		out.Inner = &in
	}
	return out
}

// geom is the channel-block geometry shared by every strategy.
type geom struct {
	channels int
	width    int
	blocks   int
}

func newGeom(channels, width int) (geom, error) {
	if channels <= 0 {
		return geom{}, fmt.Errorf("jammer: channels %d must be positive", channels)
	}
	if width <= 0 || width > channels {
		return geom{}, fmt.Errorf("jammer: sweep width %d out of range [1,%d]", width, channels)
	}
	return geom{channels: channels, width: width, blocks: (channels + width - 1) / width}, nil
}

// Blocks returns the number of channel blocks, i.e. ceil(K/m).
func (g geom) Blocks() int { return g.blocks }

// BlockOf returns the block index covering the channel.
func (g geom) BlockOf(channel int) (int, error) {
	if channel < 0 || channel >= g.channels {
		return 0, fmt.Errorf("jammer: channel %d out of range [0,%d)", channel, g.channels)
	}
	return channel / g.width, nil
}

// emitter draws the per-slot jamming power according to the power mode. The
// ModeMax level is hoisted to construction so a jammed slot costs no scan
// over the power table.
type emitter struct {
	powers   []float64
	mode     PowerMode
	maxPower float64
	src      *rng.Source
}

func newEmitter(powers []float64, mode PowerMode, src *rng.Source) (emitter, error) {
	if len(powers) == 0 {
		return emitter{}, fmt.Errorf("jammer: at least one power level required")
	}
	if mode != ModeMax && mode != ModeRandom {
		return emitter{}, fmt.Errorf("jammer: unknown power mode %d", mode)
	}
	if src == nil {
		return emitter{}, fmt.Errorf("jammer: rng must not be nil")
	}
	ps := make([]float64, len(powers))
	copy(ps, powers)
	best := ps[0]
	for _, p := range ps[1:] {
		if p > best {
			best = p
		}
	}
	return emitter{powers: ps, mode: mode, maxPower: best, src: src}, nil
}

// emit draws the jamming power for one jammed slot.
func (e *emitter) emit() float64 {
	if e.mode == ModeRandom {
		return e.powers[e.src.Intn(len(e.powers))]
	}
	return e.maxPower
}

// Parameter caps. They bound the memory a parsed spec can pin (the reactive
// sensing pipeline is delay ints long) so a hostile spec string cannot demand
// unbounded allocation, and they keep snapshot payload sizes sane.
const (
	maxReactiveDelay = 1024
	maxReactiveHold  = 1 << 20
	maxBudgetBurst   = 1 << 20
)

// checkKind validates a snapshot's kind tag.
func checkKind(st State, kind string) error {
	if st.Kind != kind {
		return fmt.Errorf("jammer: state kind %q does not match strategy %q", st.Kind, kind)
	}
	return nil
}

func boolInt(b bool) int64 {
	if b {
		return 1
	}
	return 0
}
