package jammer

import (
	"testing"

	"ctjam/internal/rng"
)

// FuzzJammerSpec fuzzes the spec/scenario grammar end to end: any input must
// either be rejected with an error — never a panic, and with work bounded by
// the length/depth caps — or parse into a spec whose canonical rendering is a
// grammar fixed point and whose strategy constructs successfully. The
// committed corpus (testdata/fuzz/FuzzJammerSpec) replays on every ordinary
// `go test` run; scripts/check.sh smokes the target and the nightly CI
// campaign runs it long-form, promoting new finds via
// scripts/promote-corpus.sh.
func FuzzJammerSpec(f *testing.F) {
	for _, s := range []string{
		"",
		"sweep",
		"reactive",
		"reactive:delay=2,miss=0.1,hold=3",
		"adaptive:alpha=0.2,explore=0.1",
		"budget:duty=0.25,burst=4,over=(reactive:delay=1)",
		"budget:over=(budget:over=(adaptive))",
		"reactive:delay=1,delay=2",
		"budget:over=(sweep",
		"sweep:delay=1",
		"adaptive:alpha=NaN",
		"reactive:delay=9999999999999999999",
		"budget:over=(budget:over=(budget:over=(budget:over=(sweep))))",
		" reactive : delay = 2 ",
		"reactive:miss=5e-1",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		sp, err := ParseSpec(s)
		if err != nil {
			return // rejected without panicking: fine
		}
		canon := sp.String()
		if len(canon) > maxSpecLen {
			t.Fatalf("canonical form of %q is %d bytes, beyond the %d parse cap", s, len(canon), maxSpecLen)
		}
		sp2, err := ParseSpec(canon)
		if err != nil {
			t.Fatalf("canonical form %q of accepted spec %q does not reparse: %v", canon, s, err)
		}
		if again := sp2.String(); again != canon {
			t.Fatalf("canonical form not a fixed point: %q -> %q -> %q", s, canon, again)
		}
		// A spec that parses must construct: validate mirrors the
		// constructors exactly.
		if _, err := sp.New(16, 4, []float64{11, 20}, ModeMax, rng.NewSource(1)); err != nil {
			t.Fatalf("accepted spec %q does not construct: %v", s, err)
		}
	})
}
