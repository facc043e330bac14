// Package rng provides math/rand-compatible random sources that reproduce
// the standard library's stream bit for bit: Fast, a drop-in for
// rand.NewSource that reseeds in place without allocating, and Source, which
// adds a single exportable stream position for bit-identical checkpoint and
// resume of long simulations. Source also draws Intn, Int63n, Float64 and
// NormFloat64 itself, exactly as a rand.Rand over it would, for hot loops
// that should not pay rand.Rand's interface call per step.
//
// The standard library's generator hides its internal state (607 words of
// lagged-Fibonacci history), which would make snapshotting impossible;
// Source solves this without changing the stream: it counts the draws
// consumed, so its state is just (seed, count). Restoring reseeds the
// generator and replays count draws — a few nanoseconds each, negligible
// against the cost of the training run being resumed — after which the
// stream continues exactly where it left off.
//
// Keeping the standard stream (rather than swapping in a small open-state
// generator like SplitMix64) matters: every statistical band and fixed-seed
// expectation in the test suite was calibrated against it, and short
// reinforcement-learning runs are chaotic enough that changing the stream
// reshuffles which (seed, length) cells collapse.
//
// Fast reimplements the standard additive lagged-Fibonacci generator
// (x_n = x_{n-607} + x_{n-273} mod 2⁶⁴). Seeding XORs a seed-derived word
// u_i(seed) into each word of a fixed 607-word "cooked" table. The standard
// library builds the u_i by walking the Lehmer sequence
// x_n = 48271ⁿ·s mod M, M = 2³¹−1, from the reduced seed s one dependent
// multiplication at a time: 20 warm-up steps, then x_{21+3i}, x_{22+3i} and
// x_{23+3i} make u_i = x_{21+3i}<<40 ^ x_{22+3i}<<20 ^ x_{23+3i}. Fast instead
// keeps a table of the powers 48271^(21+3i+k) built once at init, so every
// x it needs is one product s·48271ⁿ mod M and no word depends on another.
//
// Seeding runs in one of three tiers, picked once at init from CPUID and
// XCR0: on amd64 an AVX-512F kernel computes eight words per instruction, an
// AVX2 kernel four, and the portable loop serves every other build (and the
// noasm tag) as well as the 607 mod 8 words the kernels leave. Both kernels
// read the one power table in groups of eight words. Fast keeps its register
// as its first field, so a Source, allocated in a size class of 64-byte
// slots, hands the kernels a cache-line-aligned register whose 64-byte
// stores never split a line. The kernels run no legacy-SSE instruction (a
// non-VEX MOVQ into an X register, say) after a VEX.256 or EVEX.512 one:
// with the upper register halves dirty such an instruction costs an SSE/AVX
// state transition, about 190 ns per seeding on an AVX-512 Xeon.
// scripts/check.sh rejects such a mix.
//
// A product p = s·P is reduced mod M by one Mersenne fold,
// t = (p & M) + (p >> 31), and one correction. One fold suffices: with
// 0 < s, P < M the product is below M·2³¹, so t < 2M, and t ≠ M because the
// prime M divides neither factor. The kernels then pick t or t − M: the
// AVX2 one on the sign of t − M, the AVX-512 one as the unsigned minimum of
// t and t − M, which wraps above t when t < M. The portable loop folds t
// once more, which maps such a t to t mod M without a branch. All three
// yield exactly the value of the standard library's Schrage division.
//
// The cooked table is not copied from the standard library: init recovers
// it from the first 607 Uint64 draws of rand.NewSource(1). Draw j (1-based)
// adds the register word at the tap index −j mod 607 to the one at the feed
// index 334−j mod 607 and stores the sum at the feed index, so with V the
// register right after seeding:
//
//   - for j = 274…607 the tap word was written by draw j−273, which gives
//     V[(334−j) mod 607] = x_j − x_{j−273};
//   - for j = 1…273 the tap word is still V[607−j], known from the first
//     step, which gives V[334−j] = x_j − V[607−j];
//
// and cooked[i] = V[i] ^ u_i(1).
package rng

import "math/rand"

const (
	regLen   = 607 // register length: the long lag
	regTap   = 273 // the short lag
	int32max = 1<<31 - 1
)

// cooked is the standard generator's 607-word seeding table, recovered
// once from the standard stream.
var cooked = recoverCooked()

// recoverCooked inverts the first 607 draws of rand.NewSource(1) back into
// the register they came from, then strips seed 1's words (see the package
// doc).
func recoverCooked() *[regLen]uint64 {
	src := rand.NewSource(1).(rand.Source64)
	var x [regLen + 1]uint64 // x[j] is draw j, 1-based
	for j := 1; j <= regLen; j++ {
		x[j] = src.Uint64()
	}
	var v [regLen]uint64
	for j := regTap + 1; j <= regLen; j++ {
		v[(regLen-regTap-j+regLen)%regLen] = x[j] - x[j-regTap]
	}
	for j := 1; j <= regTap; j++ {
		v[regLen-regTap-j] = x[j] - v[regLen-j]
	}
	seedPortable(&v, &v, 1, 0)
	return &v
}

// lehmer is the seeding multiplier.
const lehmer = 48271

// seedLanes is the number of register words per power-table group: one
// 512-bit vector of the AVX-512 kernel, two 256-bit ones of the AVX2 kernel.
const seedLanes = 8

// powGroup holds the Lehmer powers of seedLanes consecutive register words:
// powGroup[k][j] is 48271^(21+3i+k) mod 2³¹−1 for word i = 8g+j of group g.
// Both kernels load it one 64-byte row per k.
type powGroup [3][seedLanes]uint64

// seedGroups is the number of whole groups; the remaining regLen%seedLanes
// words sit in a final, partly used group.
const seedGroups = regLen / seedLanes

// seedPow is the power table every seeding reads (about 14.6 KB).
var seedPow = func() (t [seedGroups + 1]powGroup) {
	x := uint64(1)
	for n := 0; n < 20; n++ {
		x = mulmod(x, lehmer)
	}
	for i := 0; i < regLen; i++ {
		for k := range t[i/seedLanes] {
			x = mulmod(x, lehmer)
			t[i/seedLanes][k][i%seedLanes] = x
		}
	}
	return t
}()

// mulmod returns x·k mod 2³¹−1 for x, k < 2³¹−1. The first Mersenne fold
// leaves t < 2M with t ≠ M (see the package doc); the second maps such a t
// to t mod M without a branch.
func mulmod(x, k uint64) uint64 {
	p := x * k
	p = p&int32max + p>>31
	return p&int32max + p>>31
}

// reduceSeed maps a seed to the Lehmer start value the standard generator
// uses: seed mod 2³¹−1 in [1, 2³¹−1), with 0 replaced by a fixed seed.
func reduceSeed(seed int64) uint64 {
	seed %= int32max
	if seed < 0 {
		seed += int32max
	}
	if seed == 0 {
		seed = 89482311
	}
	return uint64(seed)
}

// seedPortable writes base[i] ^ u_i(s) into dst[i] for the register words
// i ≥ from, s being a reduced seed. dst and base may be the same array. It is
// the reference the kernels are tested against, the tail they leave, and
// the whole seeding on builds without them.
func seedPortable(dst, base *[regLen]uint64, s uint64, from int) {
	for i := from; i < regLen; i++ {
		p := &seedPow[i/seedLanes]
		j := i % seedLanes
		dst[i] = base[i] ^ mulmod(s, p[0][j])<<40 ^ mulmod(s, p[1][j])<<20 ^ mulmod(s, p[2][j])
	}
}

// seedTier names a seeding kernel.
type seedTier int

const (
	tierPortable seedTier = iota
	tierAVX2
	tierAVX512
)

// seedTierUsed is the fastest tier the CPU runs, picked once at init.
var seedTierUsed = bestSeedTier()

func bestSeedTier() seedTier {
	switch {
	case hasAVX512:
		return tierAVX512
	case hasAVX2:
		return tierAVX2
	}
	return tierPortable
}

// seedRegister writes cooked ^ u(s) into vec, through tier's kernel for the
// whole groups and seedPortable for the rest.
func seedRegister(tier seedTier, vec *[regLen]uint64, s uint64) {
	from := 0
	switch tier {
	case tierAVX512:
		seedAVX512(&vec[0], &cooked[0], &seedPow[0][0][0], s, seedGroups)
		from = seedLanes * seedGroups
	case tierAVX2:
		seedAVX2(&vec[0], &cooked[0], &seedPow[0][0][0], s, seedGroups)
		from = seedLanes * seedGroups
	}
	seedPortable(vec, cooked, s, from)
}

// Fast is a rand.Source64 whose stream is bit-identical to
// rand.NewSource(seed)'s. Seed reinitializes it in place and allocates
// nothing, so one Fast can serve many short seeded runs. The zero value
// must be seeded before use. Not safe for concurrent use.
type Fast struct {
	// vec comes first: a Source is allocated in a size class whose slots
	// are 64-byte aligned, so the kernels' stores never split a cache line.
	vec       [regLen]uint64
	tap, feed int
}

var _ rand.Source64 = (*Fast)(nil)

// Seed implements rand.Source.
func (f *Fast) Seed(seed int64) {
	f.tap = 0
	f.feed = regLen - regTap
	seedRegister(seedTierUsed, &f.vec, reduceSeed(seed))
}

// Uint64 implements rand.Source64: one generator step.
func (f *Fast) Uint64() uint64 {
	f.tap--
	if f.tap < 0 {
		f.tap += regLen
	}
	f.feed--
	if f.feed < 0 {
		f.feed += regLen
	}
	x := f.vec[f.feed] + f.vec[f.tap]
	f.vec[f.feed] = x
	return x
}

// Int63 implements rand.Source: the same step as Uint64, top bit cleared.
func (f *Fast) Int63() int64 {
	return int64(f.Uint64() &^ (1 << 63))
}

// Source is a Fast that counts its steps so the stream position can be
// exported and restored. It implements rand.Source64. Not safe for
// concurrent use.
type Source struct {
	fast  Fast
	seed  int64
	count uint64
}

var _ rand.Source64 = (*Source)(nil)

// NewSource returns a Source seeded with seed, producing exactly the stream
// of rand.NewSource(seed).
func NewSource(seed int64) *Source {
	s := &Source{}
	s.Seed(seed)
	return s
}

// New returns a rand.Rand driven by a fresh Source, plus the Source itself
// for state capture. The caller must not use rand.Rand.Read, whose buffered
// byte cache lives outside the Source (all other rand.Rand methods draw
// directly from the source).
func New(seed int64) (*rand.Rand, *Source) {
	src := NewSource(seed)
	return rand.New(src), src
}

// Seed implements rand.Source, reseeding in place and resetting the stream
// position to zero.
func (s *Source) Seed(seed int64) {
	s.seed = seed
	s.fast.Seed(seed)
	s.count = 0
}

// Int63 implements rand.Source. One call is one generator step.
func (s *Source) Int63() int64 {
	s.count++
	return s.fast.Int63()
}

// Uint64 implements rand.Source64. Int63 masks the same 64-bit word, so one
// call is also one counted step.
func (s *Source) Uint64() uint64 {
	s.count++
	return s.fast.Uint64()
}

// Intn returns a value in [0, n), exactly as rand.New(s).Intn(n) would: the
// same Int31n/Int63n masking and rejection sampling, so the stream position
// advances by the same steps. It panics if n <= 0.
func (s *Source) Intn(n int) int {
	if n <= 0 {
		panic("rng: invalid argument to Intn")
	}
	if n <= 1<<31-1 {
		n := int32(n)
		if n&(n-1) == 0 { // a power of two: mask
			return int(int32(s.Int63()>>32) & (n - 1))
		}
		max := int32(1<<31 - 1 - (1<<31)%uint32(n))
		v := int32(s.Int63() >> 32)
		for v > max {
			v = int32(s.Int63() >> 32)
		}
		return int(v % n)
	}
	return int(s.Int63n(int64(n)))
}

// Int63n returns a value in [0, n), exactly as rand.New(s).Int63n(n) would:
// a mask for a power of two, rejection sampling otherwise. It panics if
// n <= 0.
func (s *Source) Int63n(n int64) int64 {
	if n <= 0 {
		panic("rng: invalid argument to Int63n")
	}
	if n&(n-1) == 0 {
		return s.Int63() & (n - 1)
	}
	max := int64(1<<63 - 1 - (1<<63)%uint64(n))
	v := s.Int63()
	for v > max {
		v = s.Int63()
	}
	return v % n
}

// Float64 returns a value in [0, 1), exactly as rand.New(s).Float64() would,
// redrawing in the (rare) case the division rounds up to 1.
func (s *Source) Float64() float64 {
	for {
		if f := float64(s.Int63()) / (1 << 63); f < 1 {
			return f
		}
	}
}

// State returns the stream position: the number of generator steps
// consumed since seeding.
func (s *Source) State() uint64 { return s.count }

// SetState repositions the stream to a position previously returned by
// State, by reseeding and replaying that many steps. Int63 and Uint64 both
// advance the generator exactly one step, so replaying is step-exact
// whichever the caller mixed.
func (s *Source) SetState(count uint64) {
	s.Restore(s.seed, count)
}

// SeedUsed returns the seed the stream was last seeded with, for callers
// that persist the full (seed, position) pair.
func (s *Source) SeedUsed() int64 { return s.seed }

// Restore reseeds the stream with seed and replays count steps, so the pair
// (SeedUsed, State) fully round-trips even across a Source constructed with
// a different seed.
func (s *Source) Restore(seed int64, count uint64) {
	s.Seed(seed)
	s.count = count
	for i := uint64(0); i < count; i++ {
		s.fast.Uint64()
	}
}
