// Package metrics implements the paper's evaluation metrics (Table I): the
// success rate of transmission ST, the adoption and success rates of
// frequency hopping (AH, SH) and power control (AP, SP), plus the summary
// statistics used across the experiment harness.
package metrics

import (
	"fmt"
	"math"
)

// Counters accumulates raw slot-level events during a run. The success
// attributions follow Table I: a hop "succeeds" when it actually dodged an
// active jammer (not when it was merely preventative), and a power-control
// slot "succeeds" when the extra power won a duel the minimum power would
// have lost.
type Counters struct {
	// Slots is the total number of time slots.
	Slots int
	// Successes counts slots whose transmission got through (states n
	// and TJ of the paper's MDP).
	Successes int
	// JammedSlots counts slots spent co-channel with the jammer.
	JammedSlots int
	// JamLosses counts slots fully lost to jamming (state J).
	JamLosses int
	// Hops counts slots in which the victim changed channels.
	Hops int
	// UsefulHops counts hops away from a channel the jammer was actively
	// jamming that ended in a successful slot.
	UsefulHops int
	// PCSlots counts slots transmitted above the minimum power level.
	PCSlots int
	// UsefulPCs counts PC slots where the elevated power survived a jam
	// the minimum power would have lost.
	UsefulPCs int
}

// Add merges other into c.
func (c *Counters) Add(other Counters) {
	c.Slots += other.Slots
	c.Successes += other.Successes
	c.JammedSlots += other.JammedSlots
	c.JamLosses += other.JamLosses
	c.Hops += other.Hops
	c.UsefulHops += other.UsefulHops
	c.PCSlots += other.PCSlots
	c.UsefulPCs += other.UsefulPCs
}

// ratio returns num/den, or 0 when den is 0.
func ratio(num, den int) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// ST is the success rate of transmission: the proportion of slots that
// transmitted data successfully.
func (c Counters) ST() float64 { return ratio(c.Successes, c.Slots) }

// AH is the adoption rate of frequency hopping.
func (c Counters) AH() float64 { return ratio(c.Hops, c.Slots) }

// SH is the success rate of frequency hopping: useful hops over all hops.
func (c Counters) SH() float64 { return ratio(c.UsefulHops, c.Hops) }

// AP is the adoption rate of power control.
func (c Counters) AP() float64 { return ratio(c.PCSlots, c.Slots) }

// SP is the success rate of power control: useful PC slots over PC slots.
func (c Counters) SP() float64 { return ratio(c.UsefulPCs, c.PCSlots) }

// JamRate is the fraction of slots spent co-channel with the jammer.
func (c Counters) JamRate() float64 { return ratio(c.JammedSlots, c.Slots) }

// String renders the Table I metrics compactly.
func (c Counters) String() string {
	return fmt.Sprintf("ST=%.1f%% AH=%.1f%% SH=%.1f%% AP=%.1f%% SP=%.1f%% (%d slots)",
		100*c.ST(), 100*c.AH(), 100*c.SH(), 100*c.AP(), 100*c.SP(), c.Slots)
}

// Validate checks internal consistency of the counters.
func (c Counters) Validate() error {
	checks := []struct {
		name     string
		part, of int
	}{
		{"successes", c.Successes, c.Slots},
		{"jammed", c.JammedSlots, c.Slots},
		{"jam losses", c.JamLosses, c.JammedSlots},
		{"hops", c.Hops, c.Slots},
		{"useful hops", c.UsefulHops, c.Hops},
		{"pc slots", c.PCSlots, c.Slots},
		{"useful pcs", c.UsefulPCs, c.PCSlots},
	}
	for _, ch := range checks {
		if ch.part < 0 || ch.part > ch.of {
			return fmt.Errorf("metrics: %s = %d outside [0,%d]", ch.name, ch.part, ch.of)
		}
	}
	if c.Successes+c.JamLosses != c.Slots {
		return fmt.Errorf("metrics: successes %d + jam losses %d != slots %d",
			c.Successes, c.JamLosses, c.Slots)
	}
	return nil
}

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// StdDev returns the sample standard deviation (n-1 denominator), or 0 for
// fewer than two values.
func StdDev(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	var sq float64
	for _, x := range xs {
		d := x - m
		sq += d * d
	}
	return math.Sqrt(sq / float64(len(xs)-1))
}

// MeanCI95 returns the mean and the half-width of its normal-approximation
// 95% confidence interval.
func MeanCI95(xs []float64) (mean, halfWidth float64) {
	mean = Mean(xs)
	if len(xs) < 2 {
		return mean, 0
	}
	return mean, 1.96 * StdDev(xs) / math.Sqrt(float64(len(xs)))
}

// Percentile returns the p-quantile (0..1) of xs by linear interpolation on
// a sorted copy. It returns 0 for an empty slice.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	insertionSort(sorted)
	if p <= 0 {
		return sorted[0]
	}
	if p >= 1 {
		return sorted[len(sorted)-1]
	}
	pos := p * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

func insertionSort(xs []float64) {
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && xs[j] < xs[j-1]; j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
}
