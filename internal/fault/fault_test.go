package fault

import (
	"errors"
	"math"
	"testing"
)

func TestInjectorsAreDeterministic(t *testing.T) {
	inj := Chain{
		BurstNoise{Seed: 3, Prob: 0.2, Len: 4, Power: 25},
		AckLoss{Seed: 3, Prob: 0.1},
		ClockDrift{Seed: 3, Max: 0.05, Period: 10},
		SymbolFaults{Seed: 3, TruncProb: 0.2, MaxDrop: 8, FlipProb: 0.05},
	}
	for slot := int64(0); slot < 500; slot++ {
		var a, b Slot
		inj.Apply(slot, &a)
		inj.Apply(slot, &b)
		if a != b {
			t.Fatalf("slot %d: repeated application differs: %+v vs %+v", slot, a, b)
		}
	}
}

// Applying injectors out of order or restarting mid-sequence must not change
// any slot's faults — the property checkpoint/resume relies on.
func TestInjectorsAreStateless(t *testing.T) {
	inj := Chain{
		BurstNoise{Seed: 9, Prob: 0.3, Len: 8, Power: 30},
		AckLoss{Seed: 9, Prob: 0.2},
	}
	forward := make([]Slot, 200)
	for slot := range forward {
		inj.Apply(int64(slot), &forward[slot])
	}
	for slot := len(forward) - 1; slot >= 0; slot-- {
		var f Slot
		inj.Apply(int64(slot), &f)
		if f != forward[slot] {
			t.Fatalf("slot %d: reverse-order application differs", slot)
		}
	}
}

func TestBurstNoiseRate(t *testing.T) {
	b := BurstNoise{Seed: 1, Prob: 0.25, Len: 8, Power: 25}
	const slots = 80000
	noisy := 0
	for slot := int64(0); slot < slots; slot++ {
		var f Slot
		b.Apply(slot, &f)
		if f.NoisePower > 0 {
			noisy++
		}
	}
	rate := float64(noisy) / slots
	if rate < 0.2 || rate > 0.3 {
		t.Fatalf("burst rate %.3f far from configured 0.25", rate)
	}
	// Bursts must come in frames: count transitions; independent slots
	// would transition ~2*p*(1-p)*slots times, frames 1/Len as often.
	transitions := 0
	prev := false
	for slot := int64(0); slot < slots; slot++ {
		var f Slot
		b.Apply(slot, &f)
		on := f.NoisePower > 0
		if on != prev {
			transitions++
		}
		prev = on
	}
	indep := 2 * 0.25 * 0.75 * slots
	if float64(transitions) > indep/2 {
		t.Fatalf("%d transitions: bursts look independent (indep ~%.0f), not framed", transitions, indep)
	}
}

func TestAckLossRate(t *testing.T) {
	a := AckLoss{Seed: 2, Prob: 0.1}
	const slots = 50000
	lost := 0
	for slot := int64(0); slot < slots; slot++ {
		var f Slot
		a.Apply(slot, &f)
		if f.AckLoss {
			lost++
		}
	}
	rate := float64(lost) / slots
	if rate < 0.08 || rate > 0.12 {
		t.Fatalf("ack loss rate %.3f far from configured 0.1", rate)
	}
}

func TestClockDriftBoundedAndSmooth(t *testing.T) {
	d := ClockDrift{Seed: 4, Max: 0.05, Period: 20}
	var prev float64
	for slot := int64(0); slot < 5000; slot++ {
		var f Slot
		d.Apply(slot, &f)
		if math.Abs(f.ClockDrift) > d.Max {
			t.Fatalf("slot %d: drift %v exceeds max %v", slot, f.ClockDrift, d.Max)
		}
		if slot > 0 {
			// Piecewise-linear interpolation bounds the per-slot jump
			// by 2*Max/Period.
			if jump := math.Abs(f.ClockDrift - prev); jump > 2*d.Max/float64(d.Period)+1e-12 {
				t.Fatalf("slot %d: drift jump %v too abrupt", slot, jump)
			}
		}
		prev = f.ClockDrift
	}
}

func TestCorruptSymbols(t *testing.T) {
	stream := make([]uint8, 64)
	for i := range stream {
		stream[i] = uint8(i % 16)
	}

	// No faults: identical copy, input untouched.
	out := CorruptSymbols(Slot{}, 1, 0, stream)
	if len(out) != len(stream) {
		t.Fatalf("no-fault corruption changed length %d -> %d", len(stream), len(out))
	}
	for i := range out {
		if out[i] != stream[i] {
			t.Fatalf("no-fault corruption changed symbol %d", i)
		}
	}

	// Truncation drops trailing symbols; over-truncation clamps to empty.
	if out := CorruptSymbols(Slot{DropSymbols: 10}, 1, 0, stream); len(out) != 54 {
		t.Fatalf("truncated length %d, want 54", len(out))
	}
	if out := CorruptSymbols(Slot{DropSymbols: 1000}, 1, 0, stream); len(out) != 0 {
		t.Fatalf("over-truncated length %d, want 0", len(out))
	}

	// Flips change symbols, stay in [0,16), are deterministic, and never
	// produce an identical symbol at a flipped position.
	f := Slot{FlipProb: 0.5}
	a := CorruptSymbols(f, 7, 3, stream)
	b := CorruptSymbols(f, 7, 3, stream)
	flips := 0
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("flip at %d not deterministic", i)
		}
		if a[i] > 15 {
			t.Fatalf("corrupted symbol %d out of range: %d", i, a[i])
		}
		if a[i] != stream[i] {
			flips++
		}
	}
	if flips == 0 {
		t.Fatal("FlipProb=0.5 flipped nothing in 64 symbols")
	}
	if c := CorruptSymbols(f, 8, 3, stream); equalU8(a, c) {
		t.Fatal("different seeds produced identical corruption")
	}
}

func equalU8(a, b []uint8) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestParseRoundTrip(t *testing.T) {
	inj, err := Parse("burst:p=0.1,len=4,power=30;ack:p=0.2;drift:max=0.02,period=25;symbols:trunc=0.1,drop=4,flip=0.02", 11)
	if err != nil {
		t.Fatal(err)
	}
	chain, ok := inj.(Chain)
	if !ok || len(chain) != 4 {
		t.Fatalf("got %T %v, want 4-element Chain", inj, inj)
	}
	if chain.Name() != "burst+ack+drift+symbols" {
		t.Fatalf("chain name %q", chain.Name())
	}
	if b := chain[0].(BurstNoise); b != (BurstNoise{Seed: 11, Prob: 0.1, Len: 4, Power: 30}) {
		t.Fatalf("burst parsed as %+v", b)
	}
	if d := chain[2].(ClockDrift); d != (ClockDrift{Seed: 11, Max: 0.02, Period: 25}) {
		t.Fatalf("drift parsed as %+v", d)
	}
}

func TestParseDefaultsAndSeedOverride(t *testing.T) {
	inj, err := Parse("ack", 5)
	if err != nil {
		t.Fatal(err)
	}
	if a := inj.(AckLoss); a != (AckLoss{Seed: 5, Prob: 0.05}) {
		t.Fatalf("bare ack parsed as %+v", a)
	}
	inj, err = Parse("ack:seed=99,p=0.5", 5)
	if err != nil {
		t.Fatal(err)
	}
	if a := inj.(AckLoss); a != (AckLoss{Seed: 99, Prob: 0.5}) {
		t.Fatalf("seed-override ack parsed as %+v", a)
	}
	// A seed above 2^53 keeps its low bits.
	inj, err = Parse("ack:seed=9007199254740993", 5)
	if err != nil {
		t.Fatal(err)
	}
	if a := inj.(AckLoss); a.Seed != 1<<53+1 {
		t.Fatalf("seed 2^53+1 parsed as %d", a.Seed)
	}
}

func TestParseEmptyAndErrors(t *testing.T) {
	if inj, err := Parse("", 1); err != nil || inj != nil {
		t.Fatalf("empty spec: %v %v", inj, err)
	}
	if inj, err := Parse("  ;  ", 1); err != nil || inj != nil {
		t.Fatalf("blank clauses: %v %v", inj, err)
	}
	for _, bad := range []string{
		"nope",
		"burst:p=2",
		"burst:len=0",
		"ack:p=-0.1",
		"drift:max=0.9",
		"symbols:drop=0",
		"ack:frequency=3",
		"burst:p",
		"ack:p=abc",
		// Non-finite values slip past the range checks (every comparison
		// with NaN is false), so each kind rejects them at parse time.
		"burst:p=NaN",
		"burst:power=+Inf",
		"burst:len=Inf",
		"ack:p=NaN",
		"ack:seed=NaN",
		"drift:max=NaN",
		"drift:period=-Inf",
		"symbols:trunc=NaN",
		"symbols:flip=nan",
		"symbols:drop=inf",
		// Integer keys take an integer literal: a fraction, an exponent or
		// a value past the integer's range is rejected, not truncated.
		"symbols:drop=2.7",
		"burst:len=1.9",
		"burst:len=8.0",
		"drift:period=1e3",
		"ack:seed=1e300",
		"ack:seed=0.5",
		"ack:seed=9223372036854775808",
		"drift:period=99999999999999999999",
	} {
		if _, err := Parse(bad, 1); !errors.Is(err, ErrBadSpec) {
			t.Fatalf("spec %q: got %v, want ErrBadSpec", bad, err)
		}
	}
}
