package mac

import (
	"testing"
	"testing/quick"
	"time"

	"ctjam/internal/rng"
)

func TestParamsValidate(t *testing.T) {
	if err := DefaultParams().Validate(); err != nil {
		t.Fatal(err)
	}
	tests := []struct {
		name string
		p    Params
	}{
		{"negative minBE", Params{MinBE: -1, MaxBE: 5}},
		{"max < min", Params{MinBE: 5, MaxBE: 3}},
		{"huge maxBE", Params{MinBE: 3, MaxBE: 25}},
		{"negative backoffs", Params{MinBE: 3, MaxBE: 5, MaxBackoffs: -1}},
		{"negative retries", Params{MinBE: 3, MaxBE: 5, MaxRetries: -1}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if err := tt.p.Validate(); err == nil {
				t.Fatal("expected error")
			}
		})
	}
}

func TestDrawBackoffBoundsProperty(t *testing.T) {
	src := rng.NewSource(1)
	f := func(beSel uint8) bool {
		be := int(beSel % 8)
		d := DrawBackoff(be, src)
		if d < 0 {
			return false
		}
		maxD := time.Duration(1<<be-1) * UnitBackoffPeriod
		return d <= maxD && d%UnitBackoffPeriod == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestDrawBackoffZeroExponent(t *testing.T) {
	src := rng.NewSource(2)
	for i := 0; i < 20; i++ {
		if d := DrawBackoff(0, src); d != 0 {
			t.Fatalf("BE=0 backoff = %v, want 0", d)
		}
	}
}

func TestNewArbiterValidation(t *testing.T) {
	src := rng.NewSource(3)
	if _, err := NewArbiter(0, DefaultParams(), src); err == nil {
		t.Fatal("0 nodes: expected error")
	}
	if _, err := NewArbiter(3, Params{MinBE: 9, MaxBE: 2}, src); err == nil {
		t.Fatal("bad params: expected error")
	}
	if _, err := NewArbiter(3, DefaultParams(), nil); err == nil {
		t.Fatal("nil rng: expected error")
	}
}

func TestSingleNodeNeverCollides(t *testing.T) {
	a, err := NewArbiter(1, DefaultParams(), rng.NewSource(4))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		out, err := a.NextTransmission()
		if err != nil {
			t.Fatal(err)
		}
		if out.Winner != 0 || out.Collisions != 0 {
			t.Fatalf("single node outcome %+v", out)
		}
		// Delay is bounded by the max backoff plus CCA and turnaround.
		maxD := 7*UnitBackoffPeriod + CCADuration + TurnaroundTime
		if out.AccessDelay > maxD {
			t.Fatalf("delay %v exceeds single-attempt bound %v", out.AccessDelay, maxD)
		}
	}
}

func TestContentionFairness(t *testing.T) {
	const nodes = 4
	a, err := NewArbiter(nodes, DefaultParams(), rng.NewSource(5))
	if err != nil {
		t.Fatal(err)
	}
	wins := make([]int, nodes)
	const rounds = 4000
	for i := 0; i < rounds; i++ {
		out, err := a.NextTransmission()
		if err != nil {
			continue
		}
		wins[out.Winner]++
	}
	for i, w := range wins {
		frac := float64(w) / rounds
		if frac < 0.15 || frac > 0.35 {
			t.Fatalf("node %d won %.2f of rounds; CSMA should be fair (~0.25)", i, frac)
		}
	}
}

func TestCollisionRateGrowsWithContention(t *testing.T) {
	rate := func(nodes int) float64 {
		a, err := NewArbiter(nodes, DefaultParams(), rng.NewSource(6))
		if err != nil {
			t.Fatal(err)
		}
		_, cr, err := a.MeanAccessDelay(3000, 4*time.Millisecond)
		if err != nil {
			t.Fatal(err)
		}
		return cr
	}
	r1, r3, r8 := rate(1), rate(3), rate(8)
	if r1 != 0 {
		t.Fatalf("single node collision rate %v", r1)
	}
	if !(r8 > r3 && r3 > 0) {
		t.Fatalf("collision rate should grow with nodes: 3->%v 8->%v", r3, r8)
	}
}

func TestAccessDelayGrowsWithContention(t *testing.T) {
	delay := func(nodes int) time.Duration {
		a, err := NewArbiter(nodes, DefaultParams(), rng.NewSource(7))
		if err != nil {
			t.Fatal(err)
		}
		d, _, err := a.MeanAccessDelay(3000, 4*time.Millisecond)
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	if d1, d8 := delay(1), delay(8); d8 <= d1 {
		t.Fatalf("8-node delay %v should exceed 1-node %v", d8, d1)
	}
}

func TestMeanAccessDelayValidation(t *testing.T) {
	a, err := NewArbiter(2, DefaultParams(), rng.NewSource(8))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := a.MeanAccessDelay(0, 0); err == nil {
		t.Fatal("0 trials: expected error")
	}
	if _, _, err := a.MeanAccessDelay(10, -time.Second); err == nil {
		t.Fatal("negative collision cost: expected error")
	}
}

func TestSingleNodeTransactionMean(t *testing.T) {
	// Mean = E[U{0..7}] * 320us + CCA + turnaround ≈ 1.12ms + 0.32ms.
	src := rng.NewSource(9)
	var sum time.Duration
	const n = 20000
	for i := 0; i < n; i++ {
		sum += SingleNodeTransaction(DefaultParams(), src)
	}
	mean := sum / n
	lo := 1300 * time.Microsecond
	hi := 1600 * time.Microsecond
	if mean < lo || mean > hi {
		t.Fatalf("mean LBT transaction %v outside [%v,%v]", mean, lo, hi)
	}
}

func BenchmarkNextTransmission4Nodes(b *testing.B) {
	a, err := NewArbiter(4, DefaultParams(), rng.NewSource(10))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := a.NextTransmission(); err != nil {
			b.Fatal(err)
		}
	}
}
