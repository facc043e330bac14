package jammer

import (
	"fmt"

	"ctjam/internal/rng"
)

// KindReactive is the Reactive strategy kind.
const KindReactive = "reactive"

// Reactive is a sensing-triggered jammer: it does not sweep, it listens. Each
// slot its energy detector observes the victim's current channel block; an
// observation becomes actionable only after a sensing/turnaround delay, and
// each detection commits the jammer to the detected block for a hold window.
// This is the attacker class the deception defenses of "Borrowing Arrows with
// Thatched Boats" (arXiv 1912.11170) are built against: it never wastes
// energy off-channel, but a victim that hops faster than the sensing delay
// always stays ahead of it.
//
// Not safe for concurrent use.
type Reactive struct {
	geom
	emitter

	delay int     // slots between sensing and acting (>= 0)
	miss  float64 // per-slot probability a sensing fails, in [0,1)
	hold  int     // extra slots a detection keeps jamming the block (>= 0)

	pipe      []int // sensing pipeline, len == delay; -1 marks a missed slot
	holdBlock int
	holdLeft  int
}

// NewReactive builds a reactive jammer. delay is the sensing-to-action lag in
// slots (0 = an idealized instant follower), miss the per-slot sensing
// failure probability, hold the number of extra slots a detection keeps the
// jammer on the detected block.
func NewReactive(channels, width int, powers []float64, mode PowerMode, src *rng.Source, delay int, miss float64, hold int) (*Reactive, error) {
	g, err := newGeom(channels, width)
	if err != nil {
		return nil, err
	}
	em, err := newEmitter(powers, mode, src)
	if err != nil {
		return nil, err
	}
	if delay < 0 || delay > maxReactiveDelay {
		return nil, fmt.Errorf("jammer: reactive delay %d out of range [0,%d]", delay, maxReactiveDelay)
	}
	if miss < 0 || miss >= 1 {
		return nil, fmt.Errorf("jammer: reactive miss %v out of range [0,1)", miss)
	}
	if hold < 0 || hold > maxReactiveHold {
		return nil, fmt.Errorf("jammer: reactive hold %d out of range [0,%d]", hold, maxReactiveHold)
	}
	r := &Reactive{geom: g, emitter: em, delay: delay, miss: miss, hold: hold}
	r.Reset()
	return r, nil
}

// Kind implements Strategy.
func (r *Reactive) Kind() string { return KindReactive }

// Focus implements Strategy: the held block while a detection is active.
func (r *Reactive) Focus() (block int, ok bool) {
	if r.holdLeft <= 0 {
		return 0, false
	}
	return r.holdBlock, true
}

// Reset implements Strategy.
func (r *Reactive) Reset() {
	if cap(r.pipe) < r.delay {
		r.pipe = make([]int, r.delay)
	}
	r.pipe = r.pipe[:r.delay]
	for i := range r.pipe {
		r.pipe[i] = -1
	}
	r.holdBlock = 0
	r.holdLeft = 0
}

// Step implements Strategy. Each slot the detector senses the victim's block
// (failing with probability miss — the only RNG draw, taken only when miss is
// positive so a perfect sensor perturbs no shared stream); the observation
// from delay slots ago, if it was a detection, retargets the jammer and arms
// a hold+1 slot jamming window on that block.
func (r *Reactive) Step(victimChannel int) (jammed bool, power float64, err error) {
	victimBlock, err := r.BlockOf(victimChannel)
	if err != nil {
		return false, 0, err
	}
	obs := victimBlock
	if r.miss > 0 && r.src.Float64() < r.miss {
		obs = -1
	}
	due := obs
	if r.delay > 0 {
		due = r.pipe[0]
		copy(r.pipe, r.pipe[1:])
		r.pipe[r.delay-1] = obs
	}
	if due >= 0 {
		r.holdBlock = due
		r.holdLeft = r.hold + 1
	}
	if r.holdLeft > 0 {
		r.holdLeft--
		if r.holdBlock == victimBlock {
			return true, r.emit(), nil
		}
	}
	return false, 0, nil
}

// State implements Strategy. Layout: Ints = [holdBlock, holdLeft, pipe...].
func (r *Reactive) State() State {
	ints := make([]int64, 0, 2+len(r.pipe))
	ints = append(ints, int64(r.holdBlock), int64(r.holdLeft))
	for _, b := range r.pipe {
		ints = append(ints, int64(b))
	}
	return State{Kind: KindReactive, Ints: ints}
}

// SetState implements Strategy.
func (r *Reactive) SetState(st State) error {
	if err := checkKind(st, KindReactive); err != nil {
		return err
	}
	if len(st.Ints) != 2+r.delay {
		return fmt.Errorf("jammer: reactive state needs %d ints, got %d", 2+r.delay, len(st.Ints))
	}
	holdBlock, holdLeft, pipe := st.Ints[0], st.Ints[1], st.Ints[2:]
	if holdBlock < 0 || holdBlock >= int64(r.blocks) {
		return fmt.Errorf("jammer: reactive hold block %d out of range [0,%d)", holdBlock, r.blocks)
	}
	if holdLeft < 0 || holdLeft > int64(r.hold)+1 {
		return fmt.Errorf("jammer: reactive hold counter %d out of range [0,%d]", holdLeft, r.hold+1)
	}
	for _, b := range pipe {
		if b < -1 || b >= int64(r.blocks) {
			return fmt.Errorf("jammer: reactive pipeline block %d out of range [-1,%d)", b, r.blocks)
		}
	}
	r.holdBlock = int(holdBlock)
	r.holdLeft = int(holdLeft)
	for i, b := range pipe {
		r.pipe[i] = int(b)
	}
	return nil
}
