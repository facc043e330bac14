package jammer

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ctjam/internal/rng"
)

// Golden traces for one scenario per new attacker: a fixed victim walk
// stepped through the strategy, every slot's outcome recorded. Any change to
// a strategy's decision sequence — RNG draw order, state layout, parameter
// semantics — shows up as a trace diff. Regenerate intentional changes with
//
//	go test ./internal/jammer -run TestGoldenTraces -update
var updateTraces = flag.Bool("update", false, "rewrite golden strategy traces")

// goldenScenarios pins one representative sampled scenario per new kind
// (the sweeper's behaviour is pinned by the §II-C suite in jammer_test.go).
var goldenScenarios = []struct{ name, spec string }{
	{"reactive", "reactive:delay=2,miss=0.1,hold=1"},
	{"adaptive", "adaptive:alpha=0.2,explore=0.05"},
	{"budget", "budget:duty=0.5,burst=2,over=(reactive:delay=1,miss=0,hold=0)"},
}

// traceStrategy renders the canonical trace: one line per slot with the
// victim's channel, the jam outcome and the strategy's focus after the step.
func traceStrategy(t *testing.T, spec string, slots int) string {
	t.Helper()
	s := buildStrategy(t, spec, rng.NewSource(31))
	walk := victimWalk(17, slots)
	var b strings.Builder
	fmt.Fprintf(&b, "spec %s\n", spec)
	for i, ch := range walk {
		jammed, power, err := s.Step(ch)
		if err != nil {
			t.Fatal(err)
		}
		focus, ok := s.Focus()
		if !ok {
			focus = -1
		}
		fmt.Fprintf(&b, "slot=%03d victim=%02d jammed=%t power=%g focus=%d\n",
			i, ch, jammed, power, focus)
	}
	return b.String()
}

func TestGoldenTraces(t *testing.T) {
	for _, sc := range goldenScenarios {
		t.Run(sc.name, func(t *testing.T) {
			got := traceStrategy(t, sc.spec, 120)
			path := filepath.Join("testdata", "golden", sc.name+".trace")
			if *updateTraces {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden trace (run with -update to create): %v", err)
			}
			if got != string(want) {
				t.Errorf("%s drifted from golden trace %s.\ngot:\n%s\nwant:\n%s\nRun with -update if the change is intended.",
					sc.spec, path, got, want)
			}
		})
	}
}
