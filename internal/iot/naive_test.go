package iot

import (
	"math/rand"
	"testing"
	"time"

	"ctjam/internal/fault"
)

// naiveFixedData is the per-packet loop runSlot walked for the fixed-service
// schedule before fixedData resolved it in closed form, kept verbatim as the
// reference: one wheel query and, under symbol faults, one receive-path
// pass per packet.
func (c *cluster) naiveFixedData(st *SlotStats, flt fault.Slot, dataStart, slotEnd, fixedService, tail time.Duration, txPower float64) {
	for t := dataStart; ; {
		service := fixedService
		if t+service > slotEnd {
			break
		}
		st.Attempted++
		lost := flt.NoisePower > txPower
		if !lost && c.wheel.hits(t, t+service-tail) {
			lost = true
		}
		if !lost && (flt.DropSymbols > 0 || flt.FlipProb > 0) {
			if !c.deliverFrame(flt) {
				lost = true
				st.FrameLosses++
			}
		}
		if !lost {
			st.Delivered++
		}
		t += service
	}
}

// faultedCluster builds a cluster whose receive path is armed (a fault
// injector is configured, so reset loads the data frame's symbols).
func faultedCluster(t *testing.T) *cluster {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Faults = fault.SymbolFaults{Seed: 9, FlipProb: 0.001}
	c, err := newCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// randomSpans draws a start-sorted span list around [from, to): spans may
// start before from, end after to, overlap, abut, sit on either block and
// fall on either side of the victim's power.
func randomSpans(rng *rand.Rand, from, to time.Duration) []jamSpan {
	n := rng.Intn(9)
	width := int64(to-from) + 1
	start := from - time.Duration(rng.Int63n(width/2+1))
	spans := make([]jamSpan, 0, n)
	for i := 0; i < n; i++ {
		start += time.Duration(rng.Int63n(width/3 + 1))
		length := 1 + time.Duration(rng.Int63n(width/2+1))
		spans = append(spans, jamSpan{
			start: start,
			end:   start + length,
			block: rng.Intn(2),
			power: float64(rng.Intn(4)),
		})
	}
	return spans
}

// TestFixedDataMatchesNaive property-tests the closed-form schedule against
// the per-packet reference over random span sets, clock drift in [0.5, 1.5),
// whole-slot noise above and below the Tx power, symbol faults, spans that
// start before dataStart or end after slotEnd, and tiny services whose
// on-air window w = s−tail is zero or negative.
func TestFixedDataMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	closed, naive := faultedCluster(t), faultedCluster(t)
	timing := DefaultTiming()
	partial := 0 // trials where the channel killed some packets but not all
	for trial := 0; trial < 4000; trial++ {
		var s, tail, window time.Duration
		if trial%4 == 3 {
			// Tiny services: w = s − tail ranges over [−2, s].
			s = 1 + time.Duration(rng.Intn(6))
			tail = s - time.Duration(rng.Intn(int(s)+1)) + time.Duration(rng.Intn(3))
			window = time.Duration(rng.Intn(400))
		} else {
			drift := 0.5 + rng.Float64()
			stretch := func(d time.Duration) time.Duration { return time.Duration(float64(d) * drift) }
			s = stretch(timing.PacketServiceTime())
			tail = stretch(timing.AckRTT + timing.Processing)
			window = time.Duration(rng.Int63n(int64(600 * time.Millisecond)))
		}
		dataStart := time.Duration(rng.Int63n(int64(50 * time.Millisecond)))
		slotEnd := dataStart + window
		txPower := float64(rng.Intn(3))

		var flt fault.Slot
		switch rng.Intn(3) {
		case 1:
			flt.NoisePower = txPower + 1 // kills every packet
		case 2:
			flt.NoisePower = txPower // at the Tx power: survivable
		}
		if rng.Intn(2) == 0 {
			flt.FlipProb = 0.004 * rng.Float64()
			flt.DropSymbols = rng.Intn(3) * rng.Intn(40)
		}

		spans := randomSpans(rng, dataStart, slotEnd)
		block := rng.Intn(2)
		closed.wheel.build(spans, block, txPower)
		naive.wheel.build(spans, block, txPower)
		closed.pktIdx = int64(trial)
		naive.pktIdx = int64(trial)

		var got, want SlotStats
		closed.fixedData(&got, flt, dataStart, slotEnd, s, tail, txPower)
		naive.naiveFixedData(&want, flt, dataStart, slotEnd, s, tail, txPower)
		if got != want || closed.pktIdx != naive.pktIdx {
			t.Fatalf("trial %d (s=%v tail=%v data=[%v,%v) flt=%+v block=%d tx=%v spans=%v):\nclosed %+v pktIdx %d\nnaive  %+v pktIdx %d",
				trial, s, tail, dataStart, slotEnd, flt, block, txPower, spans, got, closed.pktIdx, want, naive.pktIdx)
		}
		if k := got.Attempted - got.Delivered - got.FrameLosses; k > 0 && k < got.Attempted {
			partial++
		}
	}
	if partial < 500 {
		t.Errorf("only %d of 4000 trials killed part of a slot; the generator is too tame to test killed", partial)
	}
}

// TestKilledEdges pins killed on hand-checked schedules: packets of service
// 10 with a 6-unit on-air window starting at 0.
func TestKilledEdges(t *testing.T) {
	for _, tc := range []struct {
		name   string
		spans  []jamSpan
		n, out int
	}{
		{"none", nil, 5, 0},
		{"inside one window", []jamSpan{{start: 2, end: 3}}, 5, 1},
		{"in a gap only", []jamSpan{{start: 6, end: 10}}, 5, 0},
		{"ends where a window starts", []jamSpan{{start: 7, end: 10}}, 5, 0},
		{"starts where a window ends", []jamSpan{{start: 16, end: 20}}, 5, 0},
		{"bridges two windows", []jamSpan{{start: 5, end: 11}}, 5, 2},
		{"before the first packet", []jamSpan{{start: -50, end: 1}}, 5, 1},
		{"clips the last packet", []jamSpan{{start: 45, end: 99}}, 5, 1},
		{"past the last packet", []jamSpan{{start: 46, end: 99}}, 5, 0},
		{"covers everything", []jamSpan{{start: -1, end: 1000}}, 5, 5},
		{"shared packet counted once", []jamSpan{{start: 21, end: 22}, {start: 24, end: 25}}, 5, 1},
	} {
		var w slotWheel
		for i := range tc.spans {
			tc.spans[i].power = 1
		}
		w.build(tc.spans, 0, 0)
		if got := w.killed(0, 10, 6, tc.n); got != tc.out {
			t.Errorf("%s: killed = %d, want %d", tc.name, got, tc.out)
		}
	}
}
