package policy

import (
	"fmt"

	"ctjam/internal/env"
	"ctjam/internal/rng"
)

// Baseline scheme actions. The passive scheme's action space is
// {stay, hop}; the random and static schemes choose entirely in their
// encoders (their policies are state-free passthroughs).
const (
	actionStay = 0
	actionHop  = 1
)

// Threshold hops once its single feature (the consecutive-jam streak)
// reaches the configured threshold — the decision half of the "PSV FH"
// baseline, split out of the per-link streak tracking.
type Threshold struct {
	name      string
	threshold int
}

var _ Policy = (*Threshold)(nil)

// NewThreshold builds the streak-threshold policy.
func NewThreshold(name string, threshold int) (*Threshold, error) {
	if threshold < 1 {
		return nil, fmt.Errorf("policy: jam threshold %d must be >= 1", threshold)
	}
	return &Threshold{name: name, threshold: threshold}, nil
}

// Name implements Policy.
func (p *Threshold) Name() string { return p.name }

// StateDim implements Policy: one feature, the jam streak.
func (p *Threshold) StateDim() int { return 1 }

// NumActions implements Policy: stay or hop.
func (p *Threshold) NumActions() int { return 2 }

// DecideBatch implements Policy.
func (p *Threshold) DecideBatch(states []float64, actions []int) error {
	if len(states) != len(actions) {
		return fmt.Errorf("policy: threshold batch of %d states for %d actions", len(states), len(actions))
	}
	for i, s := range states {
		if int(s) >= p.threshold {
			actions[i] = actionHop
		} else {
			actions[i] = actionStay
		}
	}
	return nil
}

// PassiveFHScheme builds the "PSV FH" baseline of §IV-D3: hop only after the
// windowed error rate trips (jamThreshold consecutive jammed slots), always
// at minimum power.
func PassiveFHScheme(channels, sweepWidth, jamThreshold int) (*Scheme, error) {
	if err := checkTopology(channels, sweepWidth); err != nil {
		return nil, err
	}
	p, err := NewThreshold("PSV FH", jamThreshold)
	if err != nil {
		return nil, err
	}
	geom := newHopGeom(channels, sweepWidth)
	return NewScheme(p, func() Encoder { return &Streak{geom: &geom} })
}

// Streak is the passive scheme's per-link encoder: it counts consecutive
// jammed slots and realizes hop actions with a block-aware target draw,
// resetting the streak on every hop.
type Streak struct {
	geom *hopGeom // shared by the scheme's encoders

	src    *rng.Source
	streak int
}

var _ Encoder = (*Streak)(nil)

// Reset implements Encoder.
func (s *Streak) Reset(src *rng.Source) {
	s.src = src
	s.streak = 0
}

// Encode implements Encoder: update the jam streak and emit it.
func (s *Streak) Encode(prev *env.SlotInfo, dst []float64) {
	switch {
	case prev.First:
		s.streak = 0
	case prev.Outcome == env.OutcomeJammed:
		s.streak++
	default:
		s.streak = 0
	}
	dst[0] = float64(s.streak)
}

// Decode implements Encoder.
func (s *Streak) Decode(prev *env.SlotInfo, action int) env.Decision {
	if action == actionHop && !prev.First {
		s.streak = 0
		return env.Decision{Channel: s.geom.target(s.src, prev.Channel), Power: 0}
	}
	return env.Decision{Channel: prev.Channel, Power: 0}
}

// coin is the state-free policy behind the random and static baselines: all
// randomness (or the absence of it) lives in the encoder's Decode, so the
// policy itself is a passthrough.
type coin struct {
	name    string
	actions int
}

var _ Policy = (*coin)(nil)

// Name implements Policy.
func (p *coin) Name() string { return p.name }

// StateDim implements Policy: these schemes ignore state entirely.
func (p *coin) StateDim() int { return 0 }

// NumActions implements Policy.
func (p *coin) NumActions() int { return p.actions }

// DecideBatch implements Policy: always action 0; the encoder randomizes.
func (p *coin) DecideBatch(states []float64, actions []int) error {
	for i := range actions {
		actions[i] = 0
	}
	return nil
}

// RandomFHScheme builds the "Rand FH" baseline of §IV-D3: every slot flips a
// coin between a blind hop (uniform over the other channels,
// block-oblivious) at minimum power and staying with a random power level.
func RandomFHScheme(channels, sweepWidth, powers int) (*Scheme, error) {
	if err := checkTopology(channels, sweepWidth); err != nil {
		return nil, err
	}
	if powers <= 0 {
		return nil, fmt.Errorf("policy: powers %d must be positive", powers)
	}
	return NewScheme(&coin{name: "Rand FH", actions: 1}, func() Encoder {
		return &RandomWalk{channels: channels, powers: powers}
	})
}

// RandomWalk is the random baseline's encoder: Decode draws the coin and the
// hop target / power level from the link RNG in the same order the original
// agent did, so traces are preserved exactly.
type RandomWalk struct {
	channels int
	powers   int
	src      *rng.Source
}

var _ Encoder = (*RandomWalk)(nil)

// Reset implements Encoder.
func (r *RandomWalk) Reset(src *rng.Source) { r.src = src }

// Encode implements Encoder (no state).
func (r *RandomWalk) Encode(*env.SlotInfo, []float64) {}

// Decode implements Encoder.
func (r *RandomWalk) Decode(prev *env.SlotInfo, action int) env.Decision {
	if prev.First {
		return env.Decision{Channel: prev.Channel, Power: 0}
	}
	if r.src.Intn(2) == 0 {
		// Blind hop: uniform over the other channels, block-oblivious.
		ch := r.src.Intn(r.channels - 1)
		if ch >= prev.Channel {
			ch++
		}
		return env.Decision{Channel: ch, Power: 0}
	}
	return env.Decision{Channel: prev.Channel, Power: r.src.Intn(r.powers)}
}

// StaticScheme builds the no-defense baseline: never hop, never raise power.
func StaticScheme() *Scheme {
	s, err := NewScheme(&coin{name: "Static", actions: 1}, func() Encoder {
		return stay{}
	})
	if err != nil {
		// Both arguments are non-nil by construction.
		panic(err)
	}
	return s
}

// stay is the static baseline's encoder.
type stay struct{}

var _ Encoder = stay{}

// Reset implements Encoder.
func (stay) Reset(*rng.Source) {}

// Encode implements Encoder (no state).
func (stay) Encode(*env.SlotInfo, []float64) {}

// Decode implements Encoder.
func (stay) Decode(prev *env.SlotInfo, action int) env.Decision {
	return env.Decision{Channel: prev.Channel, Power: 0}
}
