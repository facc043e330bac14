package rng

import (
	"math"
	"math/rand"
	"testing"
)

// The whole point of the package: the stream must be bit-identical to the
// standard library's, for every rand.Rand method the codebase uses.
func TestStreamMatchesStdlib(t *testing.T) {
	for _, seed := range []int64{0, 1, 42, -3} {
		got, _ := New(seed)
		want := rand.New(rand.NewSource(seed))
		for i := 0; i < 2000; i++ {
			switch i % 5 {
			case 0:
				if g, w := got.Int63(), want.Int63(); g != w {
					t.Fatalf("seed %d draw %d: Int63 %d != %d", seed, i, g, w)
				}
			case 1:
				if g, w := got.Float64(), want.Float64(); g != w {
					t.Fatalf("seed %d draw %d: Float64 %v != %v", seed, i, g, w)
				}
			case 2:
				if g, w := got.Intn(97), want.Intn(97); g != w {
					t.Fatalf("seed %d draw %d: Intn %d != %d", seed, i, g, w)
				}
			case 3:
				if g, w := got.Uint64(), want.Uint64(); g != w {
					t.Fatalf("seed %d draw %d: Uint64 %d != %d", seed, i, g, w)
				}
			case 4:
				if g, w := got.NormFloat64(), want.NormFloat64(); g != w {
					t.Fatalf("seed %d draw %d: NormFloat64 %v != %v", seed, i, g, w)
				}
			}
		}
	}
}

func TestStateRoundTrip(t *testing.T) {
	r, src := New(99)
	for i := 0; i < 1234; i++ {
		r.Int63()
	}
	state := src.State()
	want := make([]float64, 100)
	for i := range want {
		want[i] = r.Float64()
	}

	r2, src2 := New(99)
	_ = r2
	src2.SetState(state)
	got := rand.New(src2)
	for i := range want {
		if g := got.Float64(); g != want[i] {
			t.Fatalf("draw %d after restore: %v != %v", i, g, want[i])
		}
	}
	if src2.State() == state {
		t.Fatal("state did not advance after drawing")
	}
}

func TestSeedResetsPosition(t *testing.T) {
	_, src := New(5)
	src.Int63()
	src.Int63()
	if src.State() != 2 {
		t.Fatalf("state = %d, want 2", src.State())
	}
	src.Seed(5)
	if src.State() != 0 {
		t.Fatalf("state after Seed = %d, want 0", src.State())
	}
}

// A stream that mixed Int63 and Uint64 draws must still restore exactly:
// the count tracks generator steps, not call sites.
func TestMixedDrawRestore(t *testing.T) {
	_, src := New(8)
	for i := 0; i < 50; i++ {
		if i%3 == 0 {
			src.Uint64()
		} else {
			src.Int63()
		}
	}
	state := src.State()
	want := []uint64{src.Uint64(), uint64(src.Int63()), src.Uint64()}

	_, src2 := New(8)
	src2.SetState(state)
	got := []uint64{src2.Uint64(), uint64(src2.Int63()), src2.Uint64()}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("draw %d after mixed-call restore: %d != %d", i, got[i], want[i])
		}
	}
}

// TestSourceDrawsMatchRand checks Source's own draws against rand.Rand's over
// the same stream: Intn with Float64 here, Int63n and NormFloat64 in their
// subtests. Intn takes every n in 1..64 (powers of two take the mask branch,
// the rest the rejection branch), large n on both the Int31n and the Int63n
// side, and n just above a power of two, where about half the raw draws are
// rejected.
func TestSourceDrawsMatchRand(t *testing.T) {
	t.Run("Int63n", testInt63nMatchesRand)
	t.Run("NormFloat64", testNormFloat64MatchesRand)
	ns := []int{1<<31 - 1, 1 << 31, 1<<31 + 1, 1<<40 + 7, 1 << 62, 1<<62 + 1, 3<<61 + 5, math.MaxInt64}
	for n := 1; n <= 64; n++ {
		ns = append(ns, n)
	}
	for k := 2; k < 31; k++ {
		ns = append(ns, 1<<k+1)
	}
	for seed := int64(-4); seed < 60; seed++ {
		got := NewSource(seed)
		want := rand.New(rand.NewSource(seed))
		for i := 0; i < 600; i++ {
			n := ns[(i+int(seed&0xff))%len(ns)]
			if g, w := got.Intn(n), want.Intn(n); g != w {
				t.Fatalf("seed %d draw %d: Intn(%d) %d != %d", seed, i, n, g, w)
			}
			if g, w := got.Float64(), want.Float64(); g != w {
				t.Fatalf("seed %d draw %d: Float64 %v != %v", seed, i, g, w)
			}
		}
		// The counted position must agree with the steps rand.Rand took.
		ref := NewSource(seed)
		r := rand.New(ref)
		for i := 0; i < 600; i++ {
			r.Intn(ns[(i+int(seed&0xff))%len(ns)])
			r.Float64()
		}
		if got.State() != ref.State() {
			t.Fatalf("seed %d: position %d after own draws, %d through rand.Rand", seed, got.State(), ref.State())
		}
	}
}

// testInt63nMatchesRand checks Source's Int63n against rand.Rand's over
// 64 seeds, value by value and position by position: n = 1, every power of
// two (the mask), every power of two plus one (about half the raw draws
// rejected near 2⁶²), the 900,000,000 ns range of the field's recovery waits
// and values above 2³¹.
func testInt63nMatchesRand(t *testing.T) {
	ns := []int64{1, 900_000_000, 1<<31 + 1, 1<<40 + 7, 3<<61 + 5, math.MaxInt64}
	for k := 1; k < 63; k++ {
		ns = append(ns, 1<<k, 1<<k+1)
	}
	for seed := int64(-4); seed < 60; seed++ {
		got := NewSource(seed)
		ref := NewSource(seed)
		want := rand.New(ref)
		for i := 0; i < 600; i++ {
			n := ns[(i+int(seed&0xff))%len(ns)]
			if g, w := got.Int63n(n), want.Int63n(n); g != w {
				t.Fatalf("seed %d draw %d: Int63n(%d) %d != %d", seed, i, n, g, w)
			}
			if got.State() != ref.State() {
				t.Fatalf("seed %d draw %d: Int63n(%d) position %d, rand.Rand's %d", seed, i, n, got.State(), ref.State())
			}
		}
	}
}

// testNormFloat64MatchesRand checks Source's NormFloat64 against
// rand.Rand's over 64 seeds, value by value and position by position. It
// classifies every draw by the first raw step it reads, as the ziggurat
// does, and requires both slow branches to be taken: the base strip
// (i = 0, an exponential tail sample) and the wedge (an Exp comparison).
func testNormFloat64MatchesRand(t *testing.T) {
	var fast, base, wedge int
	for seed := int64(-4); seed < 60; seed++ {
		got := NewSource(seed)
		ref := NewSource(seed)
		want := rand.New(ref)
		peek := NewSource(seed)
		for i := 0; i < 1500; i++ {
			for peek.State() < got.State() {
				peek.Int63()
			}
			j := int32(peek.Int63() >> 31)
			switch k := j & 0x7f; {
			case absInt32(j) < kn[k]:
				fast++
			case k == 0:
				base++
			default:
				wedge++
			}
			if g, w := got.NormFloat64(), want.NormFloat64(); g != w {
				t.Fatalf("seed %d draw %d: NormFloat64 %v != %v", seed, i, g, w)
			}
			if got.State() != ref.State() {
				t.Fatalf("seed %d draw %d: NormFloat64 position %d, rand.Rand's %d", seed, i, got.State(), ref.State())
			}
		}
	}
	t.Logf("ziggurat branches: %d fast, %d base strip, %d wedge", fast, base, wedge)
	if base == 0 || wedge == 0 {
		t.Fatalf("ziggurat branches: %d fast, %d base strip, %d wedge; want both slow branches taken", fast, base, wedge)
	}
}

// TestSourceIntnRejects checks that Intn takes the rejection branch at all:
// for n = 2³⁰+1 almost half of the raw 31-bit draws lie above the largest
// multiple of n, so many of 1000 draws must consume more than one step.
func TestSourceIntnRejects(t *testing.T) {
	src := NewSource(5)
	const n, draws = 1<<30 + 1, 1000
	for i := 0; i < draws; i++ {
		src.Intn(n)
	}
	if extra := src.State() - draws; extra < draws/4 {
		t.Fatalf("%d rejected draws in %d, want about %d", extra, draws, draws/2)
	}
}

func TestSourceIntnPanics(t *testing.T) {
	for _, n := range []int{0, -1, math.MinInt64} {
		for name, draw := range map[string]func(*Source){
			"Intn":   func(s *Source) { s.Intn(n) },
			"Int63n": func(s *Source) { s.Int63n(int64(n)) },
		} {
			func() {
				defer func() {
					if recover() == nil {
						t.Fatalf("%s(%d) did not panic", name, n)
					}
				}()
				draw(NewSource(1))
			}()
		}
	}
}

// BenchmarkIntn compares one Intn(3) draw on the concrete Source with the
// same draw through rand.Rand.
func BenchmarkIntn(b *testing.B) {
	b.Run("source", func(b *testing.B) {
		src := NewSource(1)
		for i := 0; i < b.N; i++ {
			src.Intn(3)
		}
	})
	b.Run("rand", func(b *testing.B) {
		r, _ := New(1)
		for i := 0; i < b.N; i++ {
			r.Intn(3)
		}
	})
}
