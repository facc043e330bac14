package iot

import "time"

// interval is a half-open time interval [start, end).
type interval struct {
	start, end time.Duration
}

// slotWheel is the per-slot event index of the discrete-event engine. The
// jammer's emissions arrive as a sorted span list (advanceJammer appends at
// monotonically increasing slot boundaries); the wheel collapses the spans
// that can actually kill a packet — same channel block, power above the
// victim's — into a merged interval union once per Tx slot. A packet
// overlaps some strong span iff it overlaps their union. Two queries read
// the union:
//
//   - killed counts, for a fixed-service schedule, how many packets the
//     union kills, in O(intervals) whatever the packet count;
//   - hits asks of one packet at a time, for the CSMA loop, with a cursor
//     that only moves forward, so a slot of P packets against S spans costs
//     O(P+S) instead of the O(P·S) of rescanning the span list per packet.
//     Packets advance monotonically in time within a slot, so a passed
//     interval can never matter again.
type slotWheel struct {
	strong []interval
	cursor int
}

// build recomputes the merged strong-emission union for one Tx slot. spans
// must be sorted by start time (the cluster maintains this invariant);
// adjacent or overlapping qualifying spans coalesce. The backing array is
// reused across slots.
func (w *slotWheel) build(spans []jamSpan, victimBlock int, txPower float64) {
	w.strong = w.strong[:0]
	w.cursor = 0
	for _, sp := range spans {
		if sp.block != victimBlock || sp.power <= txPower {
			continue
		}
		if n := len(w.strong); n > 0 && sp.start <= w.strong[n-1].end {
			if sp.end > w.strong[n-1].end {
				w.strong[n-1].end = sp.end
			}
			continue
		}
		w.strong = append(w.strong, interval{start: sp.start, end: sp.end})
	}
}

// hits reports whether [t0, t1) overlaps any strong emission. Successive
// calls within one slot must present non-decreasing t0 — the packet loop
// walks forward in time — which lets the cursor retire intervals that ended
// before t0 permanently.
func (w *slotWheel) hits(t0, t1 time.Duration) bool {
	for w.cursor < len(w.strong) && w.strong[w.cursor].end <= t0 {
		w.cursor++
	}
	return w.cursor < len(w.strong) && w.strong[w.cursor].start < t1
}

// killed counts the packets of a fixed-service schedule that overlap a
// strong emission: packet k, for 0 ≤ k < n, is on air over
// [d+k·s, d+k·s+onAir) with s > 0. It returns what n calls
// hits(d+k·s, d+k·s+onAir) in order would count true. Packet k meets
// interval [a, b) iff a−onAir < d+k·s < b, so each interval kills the
// contiguous range
//
//	lo = ⌊(a−d−onAir)/s⌋+1 ≤ k < ⌈(b−d)/s⌉ = hi.
//
// Both bounds grow with the interval's position in the sorted union, so the
// killed ranges are summed in one pass without counting a packet twice.
func (w *slotWheel) killed(d, s, onAir time.Duration, n int) int {
	total, covered := 0, 0
	for _, iv := range w.strong {
		lo := int(floorDiv(iv.start-d-onAir, s)) + 1
		if lo >= n {
			break
		}
		hi := int(-floorDiv(d-iv.end, s)) // ⌈(b−d)/s⌉
		if lo < covered {
			lo = covered
		}
		if hi > n {
			hi = n
		}
		if hi > lo {
			total += hi - lo
			covered = hi
		}
	}
	return total
}

// floorDiv returns ⌊a/b⌋ for b > 0 (Go's / truncates toward zero).
func floorDiv(a, b time.Duration) time.Duration {
	q := a / b
	if a%b != 0 && a < 0 {
		q--
	}
	return q
}
