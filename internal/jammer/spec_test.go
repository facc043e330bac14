package jammer

import (
	"reflect"
	"strings"
	"testing"

	"ctjam/internal/rng"
)

func TestParseSpecCanonical(t *testing.T) {
	tests := []struct{ in, want string }{
		{"", "sweep"},
		{"sweep", "sweep"},
		{" sweep ", "sweep"},
		{"reactive", "reactive:delay=1,miss=0,hold=0"},
		{"reactive:delay=2", "reactive:delay=2,miss=0,hold=0"},
		{"reactive:hold=3,delay=0,miss=0.20", "reactive:delay=0,miss=0.2,hold=3"},
		{"reactive: delay = 2 , miss = 0.1 ", "reactive:delay=2,miss=0.1,hold=0"},
		{"adaptive", "adaptive:alpha=0.1,explore=0.05"},
		{"adaptive:explore=0,alpha=0.5", "adaptive:alpha=0.5,explore=0"},
		{"budget", "budget:duty=0.5,burst=1,over=(sweep)"},
		{"budget:over=(reactive:delay=2),duty=0.25", "budget:duty=0.25,burst=1,over=(reactive:delay=2,miss=0,hold=0)"},
		{"budget:over=(budget:over=(adaptive))", "budget:duty=0.5,burst=1,over=(budget:duty=0.5,burst=1,over=(adaptive:alpha=0.1,explore=0.05))"},
	}
	for _, tt := range tests {
		got, err := Canonical(tt.in)
		if err != nil {
			t.Errorf("Canonical(%q): %v", tt.in, err)
			continue
		}
		if got != tt.want {
			t.Errorf("Canonical(%q) = %q, want %q", tt.in, got, tt.want)
		}
		// The canonical form is a fixed point.
		again, err := Canonical(got)
		if err != nil {
			t.Errorf("Canonical(%q): %v", got, err)
			continue
		}
		if again != got {
			t.Errorf("canonical form not a fixed point: %q -> %q", got, again)
		}
	}
}

func TestParseSpecRejectsMalformed(t *testing.T) {
	tests := []struct{ name, in string }{
		{"unknown kind", "pulse"},
		{"empty params", "reactive:"},
		{"blank params", "reactive:  "},
		{"bare param", "reactive:delay"},
		{"empty key", "reactive:=2"},
		{"empty value", "reactive:delay="},
		{"unknown key", "reactive:speed=2"},
		{"sweep param", "sweep:delay=1"},
		{"wrong kind key", "adaptive:delay=1"},
		{"duplicate key", "reactive:delay=1,delay=2"},
		{"non-integer", "reactive:delay=1.5"},
		{"non-number", "adaptive:alpha=fast"},
		{"nan", "adaptive:alpha=NaN"},
		{"inf", "adaptive:alpha=1e300"},
		{"delay negative", "reactive:delay=-1"},
		{"delay too big", "reactive:delay=100000"},
		{"miss one", "reactive:miss=1"},
		{"hold too big", "reactive:hold=2000000"},
		{"alpha zero", "adaptive:alpha=0"},
		{"alpha above one", "adaptive:alpha=1.5"},
		{"explore one", "adaptive:explore=1"},
		{"duty zero", "budget:duty=0"},
		{"duty above one", "budget:duty=2"},
		{"burst zero", "budget:burst=0"},
		{"burst too big", "budget:burst=2000000"},
		{"over not parenthesized", "budget:over=sweep"},
		{"over unbalanced open", "budget:over=(sweep"},
		{"over unbalanced close", "budget:over=sweep)"},
		{"over inner malformed", "budget:over=(pulse)"},
		{"too deep", "budget:over=(budget:over=(budget:over=(budget:over=(sweep))))"},
		{"too long", "reactive:delay=1," + strings.Repeat(" ", maxSpecLen) + "miss=0"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if sp, err := ParseSpec(tt.in); err == nil {
				t.Fatalf("ParseSpec(%q) accepted: %+v", tt.in, sp)
			}
			// The package constructor surfaces the same rejection.
			if _, err := New(tt.in, 16, 4, conformancePowers, ModeMax, rng.NewSource(1)); err == nil {
				t.Fatalf("New(%q) accepted a malformed spec", tt.in)
			}
		})
	}
}

// TestSpecSemanticEquality pins the canonical-string contract the cache keys
// rely on: differently written but semantically equal specs canonicalize to
// byte-equal strings, and semantically different specs never collide.
func TestSpecSemanticEquality(t *testing.T) {
	equal := [][2]string{
		{"", "sweep"},
		{"reactive", "reactive:delay=1"},
		{"reactive:miss=0.1,delay=2", "reactive:delay=2,miss=0.10"},
		{"budget", "budget:duty=0.5,burst=1,over=(sweep)"},
	}
	for _, pair := range equal {
		a, err := Canonical(pair[0])
		if err != nil {
			t.Fatal(err)
		}
		b, err := Canonical(pair[1])
		if err != nil {
			t.Fatal(err)
		}
		if a != b {
			t.Errorf("Canonical(%q)=%q != Canonical(%q)=%q", pair[0], a, pair[1], b)
		}
	}

	distinct := conformanceSpecs()
	seen := make(map[string]string, len(distinct))
	for _, s := range distinct {
		c, err := Canonical(s)
		if err != nil {
			t.Fatal(err)
		}
		if prev, ok := seen[c]; ok {
			t.Errorf("specs %q and %q collide on canonical %q", prev, s, c)
		}
		seen[c] = s
	}
}

func TestGenerateScenariosDeterministic(t *testing.T) {
	ss := ScenarioSpec{Seed: 42, Count: 12}
	a, err := GenerateScenarios(ss)
	if err != nil {
		t.Fatal(err)
	}
	b, err := GenerateScenarios(ss)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("equal ScenarioSpecs generated different scenario lists")
	}
	c, err := GenerateScenarios(ScenarioSpec{Seed: 43, Count: 12})
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds generated identical scenario lists")
	}
}

func TestGenerateScenariosRoundRobinAndValid(t *testing.T) {
	scs, err := GenerateScenarios(ScenarioSpec{Seed: 7, Count: 10})
	if err != nil {
		t.Fatal(err)
	}
	kinds := Kinds()
	perKind := make(map[string]int)
	for i, sc := range scs {
		wantKind := kinds[i%len(kinds)]
		if sc.Spec.Kind != wantKind {
			t.Errorf("scenario %d kind %q, want round-robin %q", i, sc.Spec.Kind, wantKind)
		}
		perKind[sc.Spec.Kind]++
		wantLabel := wantKind + "#" + string(rune('0'+perKind[wantKind]))
		if sc.Label != wantLabel {
			t.Errorf("scenario %d label %q, want %q", i, sc.Label, wantLabel)
		}
		if sc.SlotPhase < 0 || sc.SlotPhase >= 4 {
			t.Errorf("scenario %d SlotPhase %d out of [0,4)", i, sc.SlotPhase)
		}
		// Every sampled spec round-trips through the grammar and builds.
		canon := sc.Spec.String()
		if got, err := Canonical(canon); err != nil || got != canon {
			t.Errorf("scenario %d spec %q does not round-trip: %q, %v", i, canon, got, err)
		}
		if _, err := sc.Spec.New(16, 4, conformancePowers, ModeMax, rng.NewSource(1)); err != nil {
			t.Errorf("scenario %d spec %q does not build: %v", i, canon, err)
		}
	}
}

func TestGenerateScenariosValidation(t *testing.T) {
	if _, err := GenerateScenarios(ScenarioSpec{Seed: 1, Count: 0}); err == nil {
		t.Error("count 0 accepted")
	}
	if _, err := GenerateScenarios(ScenarioSpec{Seed: 1, Count: maxScenarioCount + 1}); err == nil {
		t.Error("count beyond the cap accepted")
	}
	if _, err := GenerateScenarios(ScenarioSpec{Seed: 1, Count: 2, Kinds: []string{"pulse"}}); err == nil {
		t.Error("unknown kind accepted")
	}
	only, err := GenerateScenarios(ScenarioSpec{Seed: 1, Count: 6, Kinds: []string{KindReactive}})
	if err != nil {
		t.Fatal(err)
	}
	for _, sc := range only {
		if sc.Spec.Kind != KindReactive {
			t.Errorf("restricted generation produced kind %q", sc.Spec.Kind)
		}
	}
}
