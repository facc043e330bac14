package jammer

import (
	"reflect"
	"testing"

	"ctjam/internal/rng"
)

// conformanceSpecs is the shared roster of the cross-strategy conformance
// suite: every registered kind, with both default and explicitly
// parameterized variants, including nested energy-budgeted wrappers.
func conformanceSpecs() []string {
	return []string{
		"sweep",
		"reactive",
		"reactive:delay=0",
		"reactive:delay=2,miss=0.2,hold=3",
		"adaptive",
		"adaptive:alpha=0.5,explore=0",
		"budget",
		"budget:duty=0.25,burst=4,over=(reactive:delay=1,miss=0.1)",
		"budget:duty=0.75,over=(adaptive:alpha=0.2)",
	}
}

var conformancePowers = []float64{11, 12, 13, 14, 15, 16, 17, 18, 19, 20}

// buildStrategy constructs the spec'd strategy over the paper's geometry
// (16 channels, width 4) with the given RNG.
func buildStrategy(t testing.TB, spec string, src *rng.Source) Strategy {
	t.Helper()
	s, err := New(spec, 16, 4, conformancePowers, ModeRandom, src)
	if err != nil {
		t.Fatalf("build %q: %v", spec, err)
	}
	return s
}

// victimWalk returns a deterministic pseudo-random victim channel sequence.
func victimWalk(seed int64, slots int) []int {
	src := rng.NewSource(seed)
	walk := make([]int, slots)
	ch := src.Intn(16)
	for i := range walk {
		// The victim stays put most slots and hops occasionally, like a
		// defending agent would.
		if src.Float64() < 0.3 {
			ch = src.Intn(16)
		}
		walk[i] = ch
	}
	return walk
}

type stepObs struct {
	jammed bool
	power  float64
	focus  int
	fOK    bool
}

func observe(t testing.TB, s Strategy, victim int) stepObs {
	t.Helper()
	jammed, power, err := s.Step(victim)
	if err != nil {
		t.Fatal(err)
	}
	f, ok := s.Focus()
	return stepObs{jammed: jammed, power: power, focus: f, fOK: ok}
}

// TestStrategyKinds pins the registry: every kind in Kinds() builds from its
// bare name and reports that name back from Kind().
func TestStrategyKinds(t *testing.T) {
	kinds := Kinds()
	want := []string{KindSweep, KindReactive, KindAdaptive, KindBudget}
	if !reflect.DeepEqual(kinds, want) {
		t.Fatalf("Kinds() = %v, want %v", kinds, want)
	}
	for _, k := range kinds {
		s := buildStrategy(t, k, rng.NewSource(1))
		if s.Kind() != k {
			t.Errorf("spec %q built a %q strategy", k, s.Kind())
		}
	}
}

// TestStrategyMidRunRoundTrip is the conformance suite's headline guarantee:
// for every registered strategy, capturing State mid-run and restoring it
// into a freshly built instance (sharing the original RNG stream) continues
// bit-identically with the uninterrupted run.
func TestStrategyMidRunRoundTrip(t *testing.T) {
	const pre, post = 150, 150
	walk := victimWalk(99, pre+post)
	for _, spec := range conformanceSpecs() {
		t.Run(spec, func(t *testing.T) {
			// Uninterrupted reference run.
			ref := buildStrategy(t, spec, rng.NewSource(7))
			var want []stepObs
			for i, ch := range walk {
				o := observe(t, ref, ch)
				if i >= pre {
					want = append(want, o)
				}
			}

			// Interrupted run: snapshot at slot pre, restore into a fresh
			// instance built over the same (advanced) RNG.
			src := rng.NewSource(7)
			a := buildStrategy(t, spec, src)
			for _, ch := range walk[:pre] {
				observe(t, a, ch)
			}
			snap := a.State()
			b := buildStrategy(t, spec, src)
			if err := b.SetState(snap); err != nil {
				t.Fatalf("SetState: %v", err)
			}
			for i, ch := range walk[pre:] {
				if got := observe(t, b, ch); got != want[i] {
					t.Fatalf("slot %d after restore: %+v != %+v", pre+i, got, want[i])
				}
			}
		})
	}
}

// TestStrategyStateRoundTripExact pins that State -> SetState -> State is the
// identity for every strategy, from both fresh and mid-run snapshots.
func TestStrategyStateRoundTripExact(t *testing.T) {
	walk := victimWalk(5, 80)
	for _, spec := range conformanceSpecs() {
		t.Run(spec, func(t *testing.T) {
			s := buildStrategy(t, spec, rng.NewSource(3))
			for _, ch := range walk {
				observe(t, s, ch)
			}
			snap := s.State()
			s2 := buildStrategy(t, spec, rng.NewSource(4))
			if err := s2.SetState(snap); err != nil {
				t.Fatalf("SetState: %v", err)
			}
			if got := s2.State(); !reflect.DeepEqual(got, snap) {
				t.Fatalf("state round trip drifted:\ngot  %+v\nwant %+v", got, snap)
			}
		})
	}
}

// TestStrategyRejectsForeignState pins the kind check: a snapshot from one
// strategy kind must not restore into another.
func TestStrategyRejectsForeignState(t *testing.T) {
	kinds := Kinds()
	for _, from := range kinds {
		snap := buildStrategy(t, from, rng.NewSource(1)).State()
		for _, to := range kinds {
			if to == from {
				continue
			}
			s := buildStrategy(t, to, rng.NewSource(2))
			if err := s.SetState(snap); err == nil {
				t.Errorf("%s accepted a %s snapshot", to, from)
			}
		}
	}
}

// TestStrategyResetRestartsCleanly pins that Reset returns every strategy to
// a state equivalent to fresh construction (the RNG stream aside).
func TestStrategyResetRestartsCleanly(t *testing.T) {
	walk := victimWalk(11, 60)
	for _, spec := range conformanceSpecs() {
		t.Run(spec, func(t *testing.T) {
			fresh := buildStrategy(t, spec, rng.NewSource(8)).State()
			s := buildStrategy(t, spec, rng.NewSource(8))
			for _, ch := range walk {
				observe(t, s, ch)
			}
			s.Reset()
			if got := s.State(); !reflect.DeepEqual(got, fresh) {
				t.Fatalf("Reset state != fresh state:\ngot  %+v\nwant %+v", got, fresh)
			}
		})
	}
}

// TestStrategyStepDrawBound pins MaxStepDraws: over a long victim walk no
// Step of any strategy, an exploring adaptive jammer included, takes more
// generator steps from the shared RNG.
func TestStrategyStepDrawBound(t *testing.T) {
	walk := victimWalk(31, 2000)
	for _, spec := range append(conformanceSpecs(), "adaptive:explore=0.9", "budget:duty=0.9,over=(adaptive:explore=0.9)") {
		t.Run(spec, func(t *testing.T) {
			src := rng.NewSource(4)
			s := buildStrategy(t, spec, src)
			if src.State() != 0 {
				t.Fatalf("construction took %d draws", src.State())
			}
			for i, ch := range walk {
				before := src.State()
				observe(t, s, ch)
				if n := src.State() - before; n > MaxStepDraws {
					t.Fatalf("slot %d: Step took %d draws, MaxStepDraws is %d", i, n, MaxStepDraws)
				}
			}
		})
	}
}

// TestStrategyStepNoAllocs is the zoo-wide benchmark guard: at steady state,
// no strategy's Step may allocate.
func TestStrategyStepNoAllocs(t *testing.T) {
	walk := victimWalk(21, 200)
	for _, spec := range conformanceSpecs() {
		t.Run(spec, func(t *testing.T) {
			s := buildStrategy(t, spec, rng.NewSource(6))
			// Prime past any lazily grown buffers.
			for _, ch := range walk {
				observe(t, s, ch)
			}
			i := 0
			avg := testing.AllocsPerRun(1000, func() {
				if _, _, err := s.Step(walk[i%len(walk)]); err != nil {
					t.Fatal(err)
				}
				i++
			})
			if avg != 0 {
				t.Fatalf("Step allocates %.1f times per call at steady state", avg)
			}
		})
	}
}

// BenchmarkStrategyStep measures every registered strategy's Step; the
// 0 allocs/op expectation is enforced by TestStrategyStepNoAllocs.
func BenchmarkStrategyStep(b *testing.B) {
	for _, spec := range conformanceSpecs() {
		b.Run(spec, func(b *testing.B) {
			s := buildStrategy(b, spec, rng.NewSource(10))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := s.Step(i % 16); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
