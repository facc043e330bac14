package iot

import (
	"math/rand"
	"testing"
	"time"
)

// naiveHit is the exhaustive per-packet scan the slot wheel replaced: does
// [t0, t1) overlap any qualifying span?
func naiveHit(spans []jamSpan, victimBlock int, txPower float64, t0, t1 time.Duration) bool {
	for _, sp := range spans {
		if sp.block != victimBlock || sp.power <= txPower {
			continue
		}
		if overlap(t0, t1, sp.start, sp.end) > 0 {
			return true
		}
	}
	return false
}

// TestSlotWheelMatchesExhaustiveScan drives the wheel against randomized
// sorted span lists and monotone packet queries — the exact access pattern of
// runSlot — and requires every answer to match the naive scan.
func TestSlotWheelMatchesExhaustiveScan(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	var w slotWheel
	for trial := 0; trial < 200; trial++ {
		// Random sorted spans across 3 blocks with mixed powers.
		spans := make([]jamSpan, rng.Intn(20))
		start := time.Duration(0)
		for i := range spans {
			start += time.Duration(rng.Intn(50)) * time.Millisecond
			spans[i] = jamSpan{
				start: start,
				end:   start + time.Duration(1+rng.Intn(80))*time.Millisecond,
				block: rng.Intn(3),
				power: float64(rng.Intn(20)),
			}
		}
		victimBlock := rng.Intn(3)
		txPower := float64(rng.Intn(20))
		w.build(spans, victimBlock, txPower)

		// Monotone non-decreasing queries, as the packet loop issues them.
		t0 := time.Duration(0)
		for q := 0; q < 50; q++ {
			t0 += time.Duration(rng.Intn(30)) * time.Millisecond
			t1 := t0 + time.Duration(1+rng.Intn(40))*time.Millisecond
			got := w.hits(t0, t1)
			want := naiveHit(spans, victimBlock, txPower, t0, t1)
			if got != want {
				t.Fatalf("trial %d query [%v,%v): wheel=%v naive=%v (block=%d tx=%v spans=%v)",
					trial, t0, t1, got, want, victimBlock, txPower, spans)
			}
		}
	}
}

// TestSlotWheelCoalesces checks overlapping and adjacent qualifying spans
// merge into one interval, and that build filters by block and power.
func TestSlotWheelCoalesces(t *testing.T) {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	spans := []jamSpan{
		{start: ms(0), end: ms(10), block: 0, power: 5},  // qualifying
		{start: ms(5), end: ms(20), block: 0, power: 5},  // overlaps -> merges
		{start: ms(20), end: ms(30), block: 0, power: 5}, // adjacent -> merges
		{start: ms(25), end: ms(40), block: 1, power: 5}, // wrong block
		{start: ms(35), end: ms(45), block: 0, power: 1}, // too weak
		{start: ms(50), end: ms(60), block: 0, power: 5}, // separate interval
	}
	var w slotWheel
	w.build(spans, 0, 2)
	want := []interval{{start: ms(0), end: ms(30)}, {start: ms(50), end: ms(60)}}
	if len(w.strong) != len(want) {
		t.Fatalf("built %d intervals %v, want %v", len(w.strong), w.strong, want)
	}
	for i := range want {
		if w.strong[i] != want[i] {
			t.Fatalf("interval %d = %v, want %v", i, w.strong[i], want[i])
		}
	}

	// Cursor retirement: a query past an interval's end retires it for good.
	if w.hits(ms(30), ms(50)) {
		t.Error("gap query reported a hit")
	}
	if !w.hits(ms(55), ms(56)) {
		t.Error("query inside the second interval missed")
	}
	if w.cursor == 0 {
		t.Error("cursor never advanced past the first interval")
	}
}

// TestSlotWheelReuse checks build reuses the backing array across slots and
// rewinds the cursor.
func TestSlotWheelReuse(t *testing.T) {
	var w slotWheel
	spans := []jamSpan{{start: 0, end: time.Millisecond, block: 0, power: 5}}
	w.build(spans, 0, 1)
	if !w.hits(0, time.Millisecond) {
		t.Fatal("first build missed its span")
	}
	w.build(nil, 0, 1)
	if len(w.strong) != 0 || w.cursor != 0 {
		t.Fatalf("rebuild left strong=%v cursor=%d", w.strong, w.cursor)
	}
	if w.hits(0, time.Millisecond) {
		t.Error("empty wheel reported a hit")
	}
}
