// Package jammer models cross-technology attackers against a ZigBee victim.
// The paper's jammer (§II-C) is a Wi-Fi device that sweeps the 16 ZigBee
// channels in blocks of m consecutive channels per time slot (m=4 for EmuBee,
// giving a 4-slot sweep cycle), locks onto the victim's channel block once it
// senses the victim, jams with a mode-dependent power level, and resumes
// sweeping when the victim leaves. The package generalizes that attacker into
// a pluggable Strategy zoo — sweep, reactive, learning/adaptive and
// energy-budgeted jammers — selected by a canonical spec string (see
// ParseSpec) and sampled into mixed scenarios by GenerateScenarios.
package jammer

import (
	"fmt"

	"ctjam/internal/rng"
)

// PowerMode selects how the jammer picks its per-slot power level (§II-C1).
type PowerMode int

// Jammer power modes.
const (
	// ModeMax is the high-performance mode: always the largest level.
	ModeMax PowerMode = iota + 1
	// ModeRandom is the hidden mode: a uniformly random level, trading
	// jamming strength for stealth.
	ModeRandom
)

// String implements fmt.Stringer.
func (m PowerMode) String() string {
	switch m {
	case ModeMax:
		return "max"
	case ModeRandom:
		return "random"
	default:
		return fmt.Sprintf("PowerMode(%d)", int(m))
	}
}

// KindSweep is the Sweeper's Strategy kind.
const KindSweep = "sweep"

// Sweeper is the paper's time-slotted frequency-sweeping jammer. It is not
// safe for concurrent use.
type Sweeper struct {
	geom
	emitter

	remaining []int // blocks not yet scanned in the current cycle
	locked    bool
	lockBlock int
}

// NewSweeper builds a jammer over `channels` channels scanning `width`
// consecutive channels per slot with the given power levels.
func NewSweeper(channels, width int, powers []float64, mode PowerMode, src *rng.Source) (*Sweeper, error) {
	g, err := newGeom(channels, width)
	if err != nil {
		return nil, err
	}
	em, err := newEmitter(powers, mode, src)
	if err != nil {
		return nil, err
	}
	s := &Sweeper{geom: g, emitter: em}
	s.refill()
	return s, nil
}

// Kind implements Strategy.
func (s *Sweeper) Kind() string { return KindSweep }

// Locked reports whether the jammer is currently locked onto a block.
func (s *Sweeper) Locked() bool { return s.locked }

// LockedBlock returns the block the jammer is locked onto; ok is false when
// the jammer is sweeping.
func (s *Sweeper) LockedBlock() (block int, ok bool) {
	if !s.locked {
		return 0, false
	}
	return s.lockBlock, true
}

// Focus implements Strategy: the locked block, when locked.
func (s *Sweeper) Focus() (block int, ok bool) { return s.LockedBlock() }

// Reset returns the sweeper to the beginning of a fresh cycle.
func (s *Sweeper) Reset() {
	s.locked = false
	s.lockBlock = 0
	s.refill()
}

func (s *Sweeper) refill() {
	s.remaining = s.remaining[:0]
	for b := 0; b < s.blocks; b++ {
		s.remaining = append(s.remaining, b)
	}
}

// popRandomBlock removes and returns a uniformly random unscanned block,
// refilling the cycle when exhausted.
func (s *Sweeper) popRandomBlock() int {
	if len(s.remaining) == 0 {
		s.refill()
	}
	i := s.src.Intn(len(s.remaining))
	b := s.remaining[i]
	s.remaining[i] = s.remaining[len(s.remaining)-1]
	s.remaining = s.remaining[:len(s.remaining)-1]
	return b
}

// Power draws the jamming power for one slot according to the mode. The
// ModeMax level is precomputed at construction (see emitter), so a jammed
// slot no longer rescans the power table.
func (s *Sweeper) Power() float64 { return s.emit() }

// MaxPower returns the largest configured power level.
func (s *Sweeper) MaxPower() float64 { return s.maxPower }

// State implements Strategy. Layout: Ints = [locked, lockBlock,
// remaining...]. The sweeper's stream is shared with (and captured by) its
// owner, so the state here is only the sweep-cycle progress and lock status.
func (s *Sweeper) State() State {
	ints := make([]int64, 0, 2+len(s.remaining))
	ints = append(ints, boolInt(s.locked), int64(s.lockBlock))
	for _, b := range s.remaining {
		ints = append(ints, int64(b))
	}
	return State{Kind: KindSweep, Ints: ints}
}

// SetState implements Strategy, restoring a snapshot taken with State.
func (s *Sweeper) SetState(st State) error {
	if err := checkKind(st, KindSweep); err != nil {
		return err
	}
	if len(st.Ints) < 2 {
		return fmt.Errorf("jammer: sweep state needs >= 2 ints, got %d", len(st.Ints))
	}
	locked, lockBlock, rem := st.Ints[0], st.Ints[1], st.Ints[2:]
	if locked != 0 && locked != 1 {
		return fmt.Errorf("jammer: sweep lock flag %d must be 0 or 1", locked)
	}
	if len(rem) > s.blocks {
		return fmt.Errorf("jammer: state has %d remaining blocks, sweeper has %d", len(rem), s.blocks)
	}
	for _, b := range rem {
		if b < 0 || b >= int64(s.blocks) {
			return fmt.Errorf("jammer: state block %d out of range [0,%d)", b, s.blocks)
		}
	}
	if locked == 1 && (lockBlock < 0 || lockBlock >= int64(s.blocks)) {
		return fmt.Errorf("jammer: locked block %d out of range [0,%d)", lockBlock, s.blocks)
	}
	s.remaining = s.remaining[:0]
	for _, b := range rem {
		s.remaining = append(s.remaining, int(b))
	}
	s.locked = locked == 1
	s.lockBlock = int(lockBlock)
	return nil
}

// Step advances the jammer by one time slot given the channel the victim
// transmits on this slot. It reports whether the victim's channel is inside
// the jammed block this slot and, if so, the jamming power used.
//
// Behaviour per §II-C2: a locked jammer keeps jamming its block while the
// victim stays there. When it notices (by monitoring at the slot start)
// that the victim left, it spends that slot returning to the sweep — the
// monitoring slot scans nothing — and restarts a fresh sweep cycle from the
// next slot, since its pre-lock scan information is stale.
func (s *Sweeper) Step(victimChannel int) (jammed bool, power float64, err error) {
	victimBlock, err := s.BlockOf(victimChannel)
	if err != nil {
		return false, 0, err
	}
	if s.locked {
		if victimBlock == s.lockBlock {
			return true, s.emit(), nil
		}
		// Victim escaped: the jammer spends this slot detecting the
		// departure and restarts its sweep next slot.
		s.locked = false
		s.refill()
		return false, 0, nil
	}
	scanned := s.popRandomBlock()
	if scanned == victimBlock {
		s.locked = true
		s.lockBlock = scanned
		return true, s.emit(), nil
	}
	return false, 0, nil
}
