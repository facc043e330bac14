package jammer

import (
	"fmt"

	"ctjam/internal/rng"
)

// KindAdaptive is the Adaptive strategy kind.
const KindAdaptive = "adaptive"

// Adaptive is a learning jammer in the spirit of the smart-jamming attackers
// of arXiv 2512.14013: it maintains an exponentially-weighted occupancy
// estimate per channel block and concentrates its power on the hottest one,
// with an epsilon-greedy exploration knob. Against a biased hopping policy it
// converges onto the victim's favourite blocks; against a uniform policy it
// degrades to a 1/blocks hit rate.
//
// Not safe for concurrent use.
type Adaptive struct {
	geom
	emitter

	alpha   float64 // EWMA learning rate, in (0,1]
	explore float64 // probability of jamming a uniformly random block, in [0,1)

	est []float64 // per-block occupancy estimates
}

// NewAdaptive builds a learning jammer. alpha is the occupancy-estimate
// learning rate, explore the epsilon-greedy exploration probability.
func NewAdaptive(channels, width int, powers []float64, mode PowerMode, src *rng.Source, alpha, explore float64) (*Adaptive, error) {
	g, err := newGeom(channels, width)
	if err != nil {
		return nil, err
	}
	em, err := newEmitter(powers, mode, src)
	if err != nil {
		return nil, err
	}
	if alpha <= 0 || alpha > 1 {
		return nil, fmt.Errorf("jammer: adaptive alpha %v out of range (0,1]", alpha)
	}
	if explore < 0 || explore >= 1 {
		return nil, fmt.Errorf("jammer: adaptive explore %v out of range [0,1)", explore)
	}
	a := &Adaptive{geom: g, emitter: em, alpha: alpha, explore: explore}
	a.est = make([]float64, g.blocks)
	return a, nil
}

// Kind implements Strategy.
func (a *Adaptive) Kind() string { return KindAdaptive }

// hottest returns the block with the highest occupancy estimate, lowest index
// winning ties, so the choice is deterministic and draws no randomness.
func (a *Adaptive) hottest() int {
	best := 0
	for b := 1; b < a.blocks; b++ {
		if a.est[b] > a.est[best] {
			best = b
		}
	}
	return best
}

// Focus implements Strategy: the hottest estimated block. The adaptive jammer
// always has a target, so ok is always true.
func (a *Adaptive) Focus() (block int, ok bool) { return a.hottest(), true }

// Reset implements Strategy, forgetting all occupancy estimates.
func (a *Adaptive) Reset() {
	for i := range a.est {
		a.est[i] = 0
	}
}

// Step implements Strategy. The jammer targets its hottest estimated block
// (or explores a uniformly random one), then updates every block's occupancy
// estimate with the slot's observation. Exploration draws from the RNG only
// when explore is positive, so a greedy jammer perturbs no shared stream.
func (a *Adaptive) Step(victimChannel int) (jammed bool, power float64, err error) {
	victimBlock, err := a.BlockOf(victimChannel)
	if err != nil {
		return false, 0, err
	}
	target := a.hottest()
	if a.explore > 0 && a.src.Float64() < a.explore {
		target = a.src.Intn(a.blocks)
	}
	for b := range a.est {
		obs := 0.0
		if b == victimBlock {
			obs = 1.0
		}
		a.est[b] += a.alpha * (obs - a.est[b])
	}
	if target == victimBlock {
		return true, a.emit(), nil
	}
	return false, 0, nil
}

// State implements Strategy. Layout: Floats = per-block occupancy estimates.
func (a *Adaptive) State() State {
	return State{Kind: KindAdaptive, Floats: append([]float64(nil), a.est...)}
}

// SetState implements Strategy.
func (a *Adaptive) SetState(st State) error {
	if err := checkKind(st, KindAdaptive); err != nil {
		return err
	}
	if len(st.Floats) != a.blocks {
		return fmt.Errorf("jammer: adaptive state needs %d floats, got %d", a.blocks, len(st.Floats))
	}
	for _, e := range st.Floats {
		if e < 0 || e > 1 || e != e {
			return fmt.Errorf("jammer: adaptive occupancy estimate %v out of range [0,1]", e)
		}
	}
	copy(a.est, st.Floats)
	return nil
}
