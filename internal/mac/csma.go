// Package mac implements the IEEE 802.15.4 unslotted CSMA/CA medium-access
// procedure used by the paper's ZigBee network ("the Listen-Before-Talk
// mechanism is adopted to avoid collisions", §II-A2): binary-exponential
// random backoff, clear-channel assessment, bounded retries, and a
// saturation arbiter that resolves contention among multiple peripheral
// nodes sharing the hub's channel.
package mac

import (
	"errors"
	"fmt"
	"time"

	"ctjam/internal/rng"
)

// IEEE 802.15.4 MAC timing at 2.4 GHz: 1 symbol = 16 us.
const (
	// SymbolDuration is the 802.15.4 symbol period.
	SymbolDuration = 16 * time.Microsecond
	// UnitBackoffPeriod is aUnitBackoffPeriod = 20 symbols.
	UnitBackoffPeriod = 20 * SymbolDuration
	// CCADuration is 8 symbols of energy detection.
	CCADuration = 8 * SymbolDuration
	// TurnaroundTime is aTurnaroundTime = 12 symbols (RX->TX).
	TurnaroundTime = 12 * SymbolDuration
)

// Params holds the CSMA/CA constants (IEEE 802.15.4-2020 §6.2.5.1).
type Params struct {
	// MinBE and MaxBE bound the backoff exponent.
	MinBE int
	MaxBE int
	// MaxBackoffs is macMaxCSMABackoffs: CCA failures tolerated per
	// transmission attempt.
	MaxBackoffs int
	// MaxRetries is macMaxFrameRetries: collisions tolerated per frame.
	MaxRetries int
}

// DefaultParams returns the standard's defaults (minBE 3, maxBE 5,
// macMaxCSMABackoffs 4, macMaxFrameRetries 3).
func DefaultParams() Params {
	return Params{MinBE: 3, MaxBE: 5, MaxBackoffs: 4, MaxRetries: 3}
}

// Validate checks the parameters.
func (p Params) Validate() error {
	if p.MinBE < 0 || p.MaxBE < p.MinBE {
		return fmt.Errorf("mac: backoff exponents [%d,%d] invalid", p.MinBE, p.MaxBE)
	}
	if p.MaxBE > 20 {
		return fmt.Errorf("mac: max backoff exponent %d implausible", p.MaxBE)
	}
	if p.MaxBackoffs < 0 || p.MaxRetries < 0 {
		return fmt.Errorf("mac: negative retry bounds")
	}
	return nil
}

// DrawBackoff returns a random backoff delay of 0..2^be-1 unit periods.
func DrawBackoff(be int, src *rng.Source) time.Duration {
	n := 1 << be
	return time.Duration(src.Intn(n)) * UnitBackoffPeriod
}

// ErrChannelAccessFailure is reported when a node exhausts its CCA attempts
// (the standard's CHANNEL_ACCESS_FAILURE status).
var ErrChannelAccessFailure = errors.New("mac: channel access failure")

// ErrRetryLimit is reported when a frame collides more than MaxRetries
// times.
var ErrRetryLimit = errors.New("mac: frame retry limit exceeded")

// Outcome describes one resolved frame transmission under contention.
type Outcome struct {
	// Winner is the index of the node that transmitted successfully.
	Winner int
	// AccessDelay is the time from contention start to the winner's
	// frame hitting the air (backoffs, CCAs, collided attempts).
	AccessDelay time.Duration
	// Collisions counts collided attempts resolved along the way.
	Collisions int
}

// Arbiter resolves saturated contention: n nodes that always have a frame
// queued draw independent backoffs; the earliest clear-channel assessment
// wins, ties collide and re-enter backoff with an increased exponent.
// It is the packet-level model the field simulator uses when CSMA is
// enabled. Not safe for concurrent use.
type Arbiter struct {
	params Params
	nodes  int
	src    *rng.Source

	// Per-call scratch, reused across NextTransmission calls: the field
	// simulator resolves one contention per data packet, so these would
	// otherwise be steady-state allocations on the hot path.
	be      []int
	draws   []time.Duration
	winners []int
}

// NewArbiter builds an arbiter for n saturated nodes.
func NewArbiter(n int, params Params, src *rng.Source) (*Arbiter, error) {
	if n < 1 {
		return nil, fmt.Errorf("mac: need at least 1 node, got %d", n)
	}
	if err := params.Validate(); err != nil {
		return nil, err
	}
	if src == nil {
		return nil, errors.New("mac: rng must not be nil")
	}
	return &Arbiter{
		params:  params,
		nodes:   n,
		src:     src,
		be:      make([]int, n),
		draws:   make([]time.Duration, n),
		winners: make([]int, 0, n),
	}, nil
}

// Nodes returns the contender count.
func (a *Arbiter) Nodes() int { return a.nodes }

// NextTransmission resolves contention for the next frame. With a single
// node it reduces to one backoff + CCA. The returned delay excludes the
// frame airtime itself.
func (a *Arbiter) NextTransmission() (Outcome, error) {
	be := a.be
	for i := range be {
		be[i] = a.params.MinBE
	}
	var (
		elapsed    time.Duration
		collisions int
	)
	// Each round: every contender draws a backoff; the strict minimum
	// transmits. Ties (within one unit period) collide: the colliders
	// raise BE and everyone redraws. The standard bounds retries.
	for attempt := 0; attempt <= a.params.MaxRetries+a.params.MaxBackoffs; attempt++ {
		draws := a.draws
		minD := time.Duration(1<<62 - 1)
		for i := range draws {
			draws[i] = DrawBackoff(be[i], a.src)
			if draws[i] < minD {
				minD = draws[i]
			}
		}
		winners := a.winners[:0]
		for i, d := range draws {
			if d == minD {
				winners = append(winners, i)
			}
		}
		elapsed += minD + CCADuration + TurnaroundTime
		if len(winners) == 1 {
			return Outcome{Winner: winners[0], AccessDelay: elapsed, Collisions: collisions}, nil
		}
		// Collision: colliders back off harder.
		collisions++
		for _, w := range winners {
			if be[w] < a.params.MaxBE {
				be[w]++
			}
		}
	}
	return Outcome{}, fmt.Errorf("%w after %d collisions", ErrRetryLimit, collisions)
}

// MeanAccessDelay estimates the expected per-frame channel cost and
// collision rate by Monte-Carlo over the arbiter. collisionCost is the
// airtime wasted by each collided attempt (two frames garble each other);
// the winner-of-n backoff itself *shrinks* with contention, so the
// collision cost is what makes dense networks slower.
func (a *Arbiter) MeanAccessDelay(trials int, collisionCost time.Duration) (mean time.Duration, collisionRate float64, err error) {
	if trials < 1 {
		return 0, 0, fmt.Errorf("mac: trials %d must be >= 1", trials)
	}
	if collisionCost < 0 {
		return 0, 0, fmt.Errorf("mac: collision cost must be non-negative")
	}
	var (
		sum        time.Duration
		collisions int
		resolved   int
	)
	for t := 0; t < trials; t++ {
		out, err := a.NextTransmission()
		if err != nil {
			// Saturated retry-limit hits count as a full-cost loss.
			collisions += a.params.MaxRetries
			sum += time.Duration(a.params.MaxRetries) * collisionCost
			continue
		}
		sum += out.AccessDelay + time.Duration(out.Collisions)*collisionCost
		collisions += out.Collisions
		resolved++
	}
	if resolved == 0 {
		return 0, 0, ErrRetryLimit
	}
	return sum / time.Duration(resolved), float64(collisions) / float64(trials), nil
}

// SingleNodeTransaction models the uncontended LBT cost of one frame: one
// minimum backoff draw plus CCA and turnaround. The field simulator's fixed
// LBT constant approximates its mean (~0.9 ms with the defaults).
func SingleNodeTransaction(params Params, src *rng.Source) time.Duration {
	return DrawBackoff(params.MinBE, src) + CCADuration + TurnaroundTime
}
