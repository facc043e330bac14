package jammer

import (
	"math"
	"testing"

	"ctjam/internal/rng"
)

func newTestSweeper(t *testing.T, mode PowerMode, seed int64) *Sweeper {
	t.Helper()
	powers := []float64{11, 12, 13, 14, 15, 16, 17, 18, 19, 20}
	s, err := NewSweeper(16, 4, powers, mode, rng.NewSource(seed))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestNewSweeperValidation(t *testing.T) {
	src := rng.NewSource(1)
	powers := []float64{20}
	tests := []struct {
		name     string
		channels int
		width    int
		powers   []float64
		mode     PowerMode
		src      *rng.Source
	}{
		{"zero channels", 0, 1, powers, ModeMax, src},
		{"zero width", 16, 0, powers, ModeMax, src},
		{"width too big", 16, 17, powers, ModeMax, src},
		{"no powers", 16, 4, nil, ModeMax, src},
		{"bad mode", 16, 4, powers, PowerMode(0), src},
		{"nil rng", 16, 4, powers, ModeMax, nil},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := NewSweeper(tt.channels, tt.width, tt.powers, tt.mode, tt.src); err == nil {
				t.Fatal("expected error")
			}
		})
	}
}

func TestBlocksAndBlockOf(t *testing.T) {
	s := newTestSweeper(t, ModeMax, 2)
	if s.Blocks() != 4 {
		t.Fatalf("Blocks = %d, want 4 (16 channels / 4 width)", s.Blocks())
	}
	tests := []struct{ ch, want int }{
		{0, 0}, {3, 0}, {4, 1}, {7, 1}, {12, 3}, {15, 3},
	}
	for _, tt := range tests {
		got, err := s.BlockOf(tt.ch)
		if err != nil {
			t.Fatal(err)
		}
		if got != tt.want {
			t.Fatalf("BlockOf(%d) = %d, want %d", tt.ch, got, tt.want)
		}
	}
	if _, err := s.BlockOf(-1); err == nil {
		t.Fatal("expected error")
	}
	if _, err := s.BlockOf(16); err == nil {
		t.Fatal("expected error")
	}
}

func TestUnevenBlocks(t *testing.T) {
	s, err := NewSweeper(10, 4, []float64{20}, ModeMax, rng.NewSource(3))
	if err != nil {
		t.Fatal(err)
	}
	if s.Blocks() != 3 {
		t.Fatalf("Blocks = %d, want ceil(10/4)=3", s.Blocks())
	}
	if b, _ := s.BlockOf(9); b != 2 {
		t.Fatalf("BlockOf(9) = %d, want 2", b)
	}
}

func TestSweepFindsStaticVictimWithinCycle(t *testing.T) {
	// A victim that never hops is found within one full sweep cycle.
	for seed := int64(0); seed < 30; seed++ {
		s := newTestSweeper(t, ModeMax, seed)
		found := false
		for slot := 0; slot < s.Blocks(); slot++ {
			jammed, power, err := s.Step(5)
			if err != nil {
				t.Fatal(err)
			}
			if jammed {
				if power != 20 {
					t.Fatalf("max mode power = %v, want 20", power)
				}
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("seed %d: victim not found within a sweep cycle", seed)
		}
	}
}

func TestLockPersistsWhileVictimStays(t *testing.T) {
	s := newTestSweeper(t, ModeMax, 4)
	// Drive until locked.
	for {
		jammed, _, err := s.Step(5)
		if err != nil {
			t.Fatal(err)
		}
		if jammed {
			break
		}
	}
	if !s.Locked() {
		t.Fatal("sweeper should be locked after jamming")
	}
	// Victim stays: jammed every following slot.
	for i := 0; i < 10; i++ {
		jammed, _, err := s.Step(6) // channel 6 is in the same block as 5
		if err != nil {
			t.Fatal(err)
		}
		if !jammed {
			t.Fatal("locked jammer must keep jamming the block")
		}
	}
}

func TestUnlockOnVictimEscape(t *testing.T) {
	s := newTestSweeper(t, ModeMax, 5)
	for {
		jammed, _, err := s.Step(5)
		if err != nil {
			t.Fatal(err)
		}
		if jammed {
			break
		}
	}
	// Victim hops to a different block (channel 12, block 3).
	if _, _, err := s.Step(12); err != nil {
		t.Fatal(err)
	}
	// The jammer either re-found the victim (relock) or resumed its
	// sweep; in both cases it must eventually find channel 12 again.
	found := false
	for slot := 0; slot < 2*s.Blocks(); slot++ {
		jammed, _, err := s.Step(12)
		if err != nil {
			t.Fatal(err)
		}
		if jammed {
			found = true
			break
		}
	}
	if !found {
		t.Fatal("jammer never re-found the victim after escape")
	}
}

func TestDiscoveryHazardMatchesPaperEq6(t *testing.T) {
	// Eq. (6): for a victim static since the cycle start, the per-slot
	// discovery probability after n safe slots is 1/(S-n) with S=4.
	const trials = 30000
	counts := make([]int, 5) // first-discovery slot 1..4
	src := rng.NewSource(6)
	for trial := 0; trial < trials; trial++ {
		s, err := NewSweeper(16, 4, []float64{20}, ModeMax, src)
		if err != nil {
			t.Fatal(err)
		}
		for slot := 1; slot <= 4; slot++ {
			jammed, _, err := s.Step(9)
			if err != nil {
				t.Fatal(err)
			}
			if jammed {
				counts[slot]++
				break
			}
		}
	}
	// Uniform discovery over the 4 slots of the cycle: hazard 1/(4-n).
	survivors := trials
	for slot := 1; slot <= 4; slot++ {
		hazard := float64(counts[slot]) / float64(survivors)
		want := 1.0 / float64(4-(slot-1))
		if math.Abs(hazard-want) > 0.02 {
			t.Fatalf("slot %d: hazard %.3f, want %.3f", slot, hazard, want)
		}
		survivors -= counts[slot]
	}
	if survivors != 0 {
		t.Fatalf("%d trials never discovered the victim", survivors)
	}
}

func TestPowerModes(t *testing.T) {
	sMax := newTestSweeper(t, ModeMax, 7)
	for i := 0; i < 50; i++ {
		if got := sMax.Power(); got != 20 {
			t.Fatalf("max mode power = %v", got)
		}
	}
	sRand := newTestSweeper(t, ModeRandom, 8)
	seen := make(map[float64]bool)
	for i := 0; i < 500; i++ {
		p := sRand.Power()
		if p < 11 || p > 20 {
			t.Fatalf("random power %v out of range", p)
		}
		seen[p] = true
	}
	if len(seen) < 8 {
		t.Fatalf("random mode only produced %d distinct levels", len(seen))
	}
	if sMax.MaxPower() != 20 || sRand.MaxPower() != 20 {
		t.Fatal("MaxPower should be 20")
	}
}

func TestPowerModeString(t *testing.T) {
	if ModeMax.String() != "max" || ModeRandom.String() != "random" {
		t.Fatal("mode strings wrong")
	}
	if PowerMode(9).String() != "PowerMode(9)" {
		t.Fatal("unknown mode string wrong")
	}
}

func TestResetClearsLock(t *testing.T) {
	s := newTestSweeper(t, ModeMax, 9)
	for {
		jammed, _, err := s.Step(5)
		if err != nil {
			t.Fatal(err)
		}
		if jammed {
			break
		}
	}
	s.Reset()
	if s.Locked() {
		t.Fatal("Reset must clear the lock")
	}
}

func BenchmarkSweeperStep(b *testing.B) {
	s, err := NewSweeper(16, 4, []float64{11, 20}, ModeRandom, rng.NewSource(10))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := s.Step(i % 16); err != nil {
			b.Fatal(err)
		}
	}
}
