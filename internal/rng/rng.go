// Package rng provides math/rand-compatible random sources that reproduce
// the standard library's stream bit for bit: Fast, a drop-in for
// rand.NewSource that reseeds in place without allocating, and Source, which
// adds a single exportable stream position for bit-identical checkpoint and
// resume of long simulations.
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
// u_i(seed), built from the Lehmer sequence x ← 48271·x mod (2³¹−1), into
// each word of a fixed 607-word "cooked" table. The table is not copied from
// the standard library: init recovers it from the first 607 Uint64 draws of
// rand.NewSource(1). Draw j (1-based) adds the register word at the tap
// index −j mod 607 to the one at the feed index 334−j mod 607 and stores
// the sum at the feed index, so with V the register right after seeding:
//
//   - for j = 274…607 the tap word was written by draw j−273, which gives
//     V[(334−j) mod 607] = x_j − x_{j−273};
//   - for j = 1…273 the tap word is still V[607−j], known from the first
//     step, which gives V[334−j] = x_j − V[607−j];
//
// and cooked[i] = V[i] ^ u_i(1). The Lehmer products are reduced mod
// M = 2³¹−1 by folding, p ≡ (p & M) + (p >> 31), which yields exactly the
// value of the standard library's Schrage division.
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
	var u, out [regLen]uint64
	seedWords(&u, 1)
	for i := range out {
		out[i] = v[i] ^ u[i]
	}
	return &out
}

// lehmer is the seeding multiplier; lehmerPow[n] is lehmer^n mod 2³¹−1.
const lehmer = 48271

var lehmerPow = func() (p [21]uint64) {
	p[0] = 1
	for n := 1; n < len(p); n++ {
		p[n] = mulmod(p[n-1], lehmer)
	}
	return p
}()

// mulmod returns x·k mod 2³¹−1 for x, k < 2³¹, by Mersenne reduction.
func mulmod(x, k uint64) uint64 {
	p := x * k
	p = p&int32max + p>>31
	p = p&int32max + p>>31
	if p >= int32max {
		p -= int32max
	}
	return p
}

// seedWords writes u_i(seed), the seed-derived words the standard generator
// XORs into its cooked table, into u. The standard generator walks the
// Lehmer sequence x_n = 48271ⁿ·x_0 one step at a time (20 warm-up steps,
// then x_{21+3i}, x_{22+3i}, x_{23+3i} make word i); this takes each word's
// three values straight from x_{20+3i} so consecutive words depend on each
// other through one multiplication, not three.
func seedWords(u *[regLen]uint64, seed int64) {
	seed %= int32max
	if seed < 0 {
		seed += int32max
	}
	if seed == 0 {
		seed = 89482311
	}
	x := mulmod(uint64(seed), lehmerPow[20])
	for i := range u {
		a := mulmod(x, lehmer)
		b := mulmod(x, lehmerPow[2])
		x = mulmod(x, lehmerPow[3])
		u[i] = a<<40 ^ b<<20 ^ x
	}
}

// Fast is a rand.Source64 whose stream is bit-identical to
// rand.NewSource(seed)'s. Seed reinitializes it in place and allocates
// nothing, so one Fast can serve many short seeded runs. The zero value
// must be seeded before use. Not safe for concurrent use.
type Fast struct {
	tap, feed int
	vec       [regLen]uint64
}

var _ rand.Source64 = (*Fast)(nil)

// Seed implements rand.Source.
func (f *Fast) Seed(seed int64) {
	f.tap = 0
	f.feed = regLen - regTap
	seedWords(&f.vec, seed)
	for i := range f.vec {
		f.vec[i] ^= cooked[i]
	}
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
