// Package rl provides the reinforcement-learning machinery for the paper's
// DQN anti-jamming scheme: a uniform experience-replay buffer, an
// epsilon-greedy exploration schedule, and a Deep Q-Network learner with a
// periodically synchronized target network.
package rl

import (
	"fmt"
	"math"
	"math/rand"
)

// Transition is one experience tuple (s, a, r, s', done).
type Transition struct {
	State  []float64
	Action int
	Reward float64
	Next   []float64
	Done   bool
}

// ReplayBuffer is a fixed-capacity uniform-sampling experience store. The
// zero value is not usable; construct with NewReplayBuffer.
type ReplayBuffer struct {
	buf  []Transition
	next int
	full bool
}

// NewReplayBuffer allocates a buffer holding up to capacity transitions.
func NewReplayBuffer(capacity int) (*ReplayBuffer, error) {
	if capacity <= 0 {
		return nil, fmt.Errorf("rl: replay capacity %d must be positive", capacity)
	}
	return &ReplayBuffer{buf: make([]Transition, capacity)}, nil
}

// Len returns the number of stored transitions.
func (b *ReplayBuffer) Len() int {
	if b.full {
		return len(b.buf)
	}
	return b.next
}

// Cap returns the buffer capacity.
func (b *ReplayBuffer) Cap() int { return len(b.buf) }

// Push stores a transition, overwriting the oldest when full.
func (b *ReplayBuffer) Push(t Transition) {
	b.buf[b.next] = t
	b.next++
	if b.next == len(b.buf) {
		b.next = 0
		b.full = true
	}
}

// Sample draws n transitions uniformly at random with replacement, appending
// them to dst[:0] and returning the result, so a caller that passes its
// previous result back samples without allocating. It returns an error when
// the buffer is empty or n is negative.
func (b *ReplayBuffer) Sample(dst []Transition, n int, rng *rand.Rand) ([]Transition, error) {
	if n < 0 {
		return nil, fmt.Errorf("rl: sample size %d must not be negative", n)
	}
	size := b.Len()
	if size == 0 {
		return nil, fmt.Errorf("rl: sampling from empty replay buffer")
	}
	dst = dst[:0]
	for i := 0; i < n; i++ {
		dst = append(dst, b.buf[rng.Intn(size)])
	}
	return dst, nil
}

// EpsilonSchedule is a linear exploration-rate decay from Start to End over
// DecaySteps steps.
type EpsilonSchedule struct {
	Start      float64
	End        float64
	DecaySteps int
}

// Value returns epsilon at the given step.
func (s EpsilonSchedule) Value(step int) float64 {
	if s.DecaySteps <= 0 || step >= s.DecaySteps {
		return s.End
	}
	if step < 0 {
		step = 0
	}
	frac := float64(step) / float64(s.DecaySteps)
	return s.Start + float64((s.End-s.Start)*frac)
}

// validate rejects a non-finite Start or End, which would silently pin
// exploration on or off (every comparison with a NaN rate is false).
func (s EpsilonSchedule) validate() error {
	if math.IsNaN(s.Start) || math.IsInf(s.Start, 0) || math.IsNaN(s.End) || math.IsInf(s.End, 0) {
		return fmt.Errorf("rl: epsilon schedule %v..%v must be finite", s.Start, s.End)
	}
	return nil
}
