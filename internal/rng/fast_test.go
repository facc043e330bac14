package rng

import (
	"math"
	"math/rand"
	"testing"
)

// edgeSeeds cover the seed reduction's corners: zero (replaced by a fixed
// seed), ±1, both sides of the 2³¹−1 modulus, large and extreme int64s.
var edgeSeeds = []int64{
	0, 1, -1,
	int32max - 1, int32max, int32max + 1, -int32max, -int32max - 1,
	1 << 40, -1 << 40,
	math.MinInt64, math.MaxInt64, math.MinInt64 + 1,
	2 * int32max, 89482311,
}

// seeded returns a Fast seeded with seed.
func seeded(seed int64) *Fast {
	f := &Fast{}
	f.Seed(seed)
	return f
}

// TestFastRawStreamMatchesStdlib compares the raw Int63/Uint64 steps,
// interleaved, against rand.NewSource at every edge seed.
func TestFastRawStreamMatchesStdlib(t *testing.T) {
	for _, seed := range edgeSeeds {
		got := seeded(seed)
		want := rand.NewSource(seed).(rand.Source64)
		for i := 0; i < 20000; i++ {
			if i%3 == 1 {
				if g, w := got.Int63(), want.Int63(); g != w {
					t.Fatalf("seed %d draw %d: Int63 %d != %d", seed, i, g, w)
				}
				continue
			}
			if g, w := got.Uint64(), want.Uint64(); g != w {
				t.Fatalf("seed %d draw %d: Uint64 %d != %d", seed, i, g, w)
			}
		}
	}
}

// TestFastManySeeds checks the first draws past one full register turn at
// many seeds, so every cooked word meets many seed words.
func TestFastManySeeds(t *testing.T) {
	seeds := rand.New(rand.NewSource(2024))
	f := &Fast{}
	for n := 0; n < 2000; n++ {
		seed := int64(seeds.Uint64())
		f.Seed(seed)
		want := rand.NewSource(seed).(rand.Source64)
		for i := 0; i < 700; i++ {
			if g, w := f.Uint64(), want.Uint64(); g != w {
				t.Fatalf("seed %d draw %d: %d != %d", seed, i, g, w)
			}
		}
	}
}

// TestFastThroughRand checks stream identity through the rand.Rand methods
// the codebase draws with, including the rejection-sampling ones.
func TestFastThroughRand(t *testing.T) {
	for _, seed := range []int64{0, 1, 7, -3, math.MaxInt64} {
		got := rand.New(seeded(seed))
		want := rand.New(rand.NewSource(seed))
		for i := 0; i < 3000; i++ {
			switch i % 6 {
			case 0:
				if g, w := got.Intn(97), want.Intn(97); g != w {
					t.Fatalf("seed %d draw %d: Intn %d != %d", seed, i, g, w)
				}
			case 1:
				if g, w := got.Int63n(1<<40+7), want.Int63n(1<<40+7); g != w {
					t.Fatalf("seed %d draw %d: Int63n %d != %d", seed, i, g, w)
				}
			case 2:
				if g, w := got.Float64(), want.Float64(); g != w {
					t.Fatalf("seed %d draw %d: Float64 %v != %v", seed, i, g, w)
				}
			case 3:
				if g, w := got.NormFloat64(), want.NormFloat64(); g != w {
					t.Fatalf("seed %d draw %d: NormFloat64 %v != %v", seed, i, g, w)
				}
			case 4:
				g, w := got.Perm(17), want.Perm(17)
				for k := range g {
					if g[k] != w[k] {
						t.Fatalf("seed %d draw %d: Perm %v != %v", seed, i, g, w)
					}
				}
			case 5:
				if g, w := got.Uint64(), want.Uint64(); g != w {
					t.Fatalf("seed %d draw %d: Uint64 %d != %d", seed, i, g, w)
				}
			}
		}
	}
}

// TestFastReseedInPlace checks that reseeding a used Fast through
// rand.Rand.Seed restarts the stream exactly.
func TestFastReseedInPlace(t *testing.T) {
	r := rand.New(seeded(3))
	for i := 0; i < 1000; i++ {
		r.Int63()
	}
	r.Seed(11)
	want := rand.New(rand.NewSource(11))
	for i := 0; i < 1000; i++ {
		if g, w := r.Float64(), want.Float64(); g != w {
			t.Fatalf("draw %d after reseed: %v != %v", i, g, w)
		}
	}
}

// TestSeedAllocs guards the point of Fast: reseeding a Fast, or a Source,
// and restoring a Source allocate nothing.
func TestSeedAllocs(t *testing.T) {
	f := seeded(1)
	s := NewSource(1)
	seed := int64(0)
	for name, fn := range map[string]func(){
		"Fast.Seed":      func() { seed++; f.Seed(seed) },
		"Source.Seed":    func() { seed++; s.Seed(seed) },
		"Source.Restore": func() { seed++; s.Restore(seed, 100) },
	} {
		if n := testing.AllocsPerRun(20, fn); n != 0 {
			t.Errorf("%s: %v allocs, want 0", name, n)
		}
	}
}

func BenchmarkFastSeed(b *testing.B) {
	f := &Fast{}
	for i := 0; i < b.N; i++ {
		f.Seed(int64(i))
	}
}

func BenchmarkStdlibSeed(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	for i := 0; i < b.N; i++ {
		r.Seed(int64(i))
	}
}
