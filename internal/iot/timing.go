// Package iot is a discrete-event simulator of the paper's field testbed
// (§IV-D): a star ZigBee network of one hub and several peripheral nodes
// operating in time slots, with the hub running the anti-jamming scheme,
// polling FH/PC decisions to the nodes over a control channel, and the
// nodes delivering data packets under listen-before-talk, while a
// cross-technology jammer with its own independent slot clock sweeps and
// jams channels.
//
// The timing constants default to the values the paper measured on its
// TI CC26X2R1 / USRP N210 testbed (Fig. 9a): DQN inference 9 ms, polling
// 13.1 ms per node, ACK round trip 0.9 ms, per-packet processing 0.6 ms.
package iot

import (
	"fmt"
	"time"

	"ctjam/internal/phy/zigbee"
	"ctjam/internal/rng"
)

// Timing collects the protocol-level timing model.
type Timing struct {
	// DQNDecision is the hub's per-slot policy inference time.
	DQNDecision time.Duration
	// PollPerNode is the per-node FH/PC announcement time in the
	// polling phase.
	PollPerNode time.Duration
	// AckRTT is the data-to-ACK round-trip time.
	AckRTT time.Duration
	// Processing is the hub's per-packet processing time.
	Processing time.Duration
	// LBT is the listen-before-talk overhead per packet (CCA plus
	// average backoff).
	LBT time.Duration
	// PacketAirtime is the on-air duration of one data frame.
	PacketAirtime time.Duration
	// OffChannelProb is the per-node probability that a poll finds the
	// node off-channel and triggers a control-channel recovery.
	OffChannelProb float64
	// RecoveryMin and RecoveryMax bound the uniform recovery wait for an
	// off-channel node.
	RecoveryMin time.Duration
	RecoveryMax time.Duration
	// Jitter is the relative standard deviation applied to sampled
	// durations (the testbed numbers are averages of 100 trials).
	Jitter float64
}

// DefaultTiming returns the paper's measured testbed constants. The packet
// airtime corresponds to a full 127-byte PSDU frame at 250 kb/s.
func DefaultTiming() Timing {
	return Timing{
		DQNDecision:    9 * time.Millisecond,
		PollPerNode:    13100 * time.Microsecond,
		AckRTT:         900 * time.Microsecond,
		Processing:     600 * time.Microsecond,
		LBT:            600 * time.Microsecond,
		PacketAirtime:  time.Duration(zigbee.FrameAirtime(125) * float64(time.Second)),
		OffChannelProb: 0.02,
		RecoveryMin:    300 * time.Millisecond,
		RecoveryMax:    1200 * time.Millisecond,
		Jitter:         0.05,
	}
}

// Validate checks the timing model.
func (t Timing) Validate() error {
	for _, d := range []struct {
		name string
		dur  time.Duration
	}{
		{"dqn decision", t.DQNDecision},
		{"poll per node", t.PollPerNode},
		{"ack rtt", t.AckRTT},
		{"processing", t.Processing},
		{"lbt", t.LBT},
		{"packet airtime", t.PacketAirtime},
	} {
		if d.dur < 0 {
			return fmt.Errorf("iot: %s duration must be non-negative", d.name)
		}
	}
	if t.PacketAirtime == 0 {
		return fmt.Errorf("iot: packet airtime must be positive")
	}
	if s := t.PacketServiceTime(); s < minPacketService {
		return fmt.Errorf("iot: packet service time %v below %v: clock drift could stretch it to zero", s, minPacketService)
	}
	if t.OffChannelProb < 0 || t.OffChannelProb > 1 {
		return fmt.Errorf("iot: off-channel probability %v outside [0,1]", t.OffChannelProb)
	}
	if t.RecoveryMax < t.RecoveryMin || t.RecoveryMin < 0 {
		return fmt.Errorf("iot: recovery window [%v,%v] invalid", t.RecoveryMin, t.RecoveryMax)
	}
	if t.Jitter < 0 || t.Jitter > 0.5 {
		return fmt.Errorf("iot: jitter %v outside [0,0.5]", t.Jitter)
	}
	return nil
}

// minPacketService is the shortest valid PacketServiceTime: the smallest
// duration that the slowest clock drift (a 0.5× stretch) keeps above zero.
// A zero service would never advance the slot.
const minPacketService = 2 * time.Nanosecond

// PacketServiceTime is the full cost of one delivered packet: LBT, airtime,
// ACK round trip and hub processing (~6.3 ms with defaults, matching the
// paper's ~148 packets in a 1 s slot after overheads).
func (t Timing) PacketServiceTime() time.Duration {
	return t.LBT + t.PacketAirtime + t.AckRTT + t.Processing
}

// sample draws a jittered duration around the nominal value.
func (t *Timing) sample(nominal time.Duration, src *rng.Source) time.Duration {
	if t.Jitter == 0 || nominal == 0 {
		return nominal
	}
	f := 1 + src.NormFloat64()*t.Jitter
	if f < 0.5 {
		f = 0.5
	}
	return time.Duration(float64(nominal) * f)
}

// sampleRecovery draws one off-channel recovery wait.
func (t *Timing) sampleRecovery(src *rng.Source) time.Duration {
	if t.RecoveryMax == t.RecoveryMin {
		return t.RecoveryMin
	}
	return t.RecoveryMin + time.Duration(src.Int63n(int64(t.RecoveryMax-t.RecoveryMin)))
}
