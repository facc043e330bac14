package jammer

import (
	"ctjam/internal/rng"
	"fmt"
	"strconv"
	"strings"
)

// Spec grammar and canonicalization. A jammer spec is a human-writable string
//
//	name[:key=value,...]
//
// selecting a strategy and its parameters, e.g.
//
//	sweep
//	reactive:delay=2,miss=0.1,hold=3
//	adaptive:alpha=0.2,explore=0.1
//	budget:duty=0.25,burst=4,over=(reactive:delay=1)
//
// Omitted parameters take the kind's defaults; the budget wrapper's inner
// strategy is a parenthesized nested spec. ParseSpec rejects malformed input
// with bounded work (length, depth and parameter caps), and Spec.String
// renders the canonical form — all parameters, fixed order, shortest float
// rendering — so that two specs are semantically equal iff their canonical
// strings are byte-equal. Cache keys, scheme keys and the dist wire format
// all key on the canonical form.

// Spec limits enforced by ParseSpec.
const (
	maxSpecLen   = 256
	maxSpecDepth = 4
)

// Default parameters per kind.
const (
	DefaultReactiveDelay = 1
	DefaultReactiveMiss  = 0.0
	DefaultReactiveHold  = 0
	DefaultAdaptiveAlpha = 0.1
	DefaultAdaptiveExpl  = 0.05
	DefaultBudgetDuty    = 0.5
	DefaultBudgetBurst   = 1
)

// Spec is a parsed jammer strategy specification. Only the fields of the
// selected Kind are meaningful.
type Spec struct {
	Kind string

	// Reactive parameters.
	Delay int
	Miss  float64
	Hold  int

	// Adaptive parameters.
	Alpha   float64
	Explore float64

	// Budget parameters. Inner is the wrapped strategy's spec.
	Duty  float64
	Burst int
	Inner *Spec
}

// Kinds returns the registered strategy kinds in canonical order.
func Kinds() []string {
	return []string{KindSweep, KindReactive, KindAdaptive, KindBudget}
}

// ParseSpec parses and validates a jammer spec string. The empty string means
// the default attacker, the paper's sweeper.
func ParseSpec(s string) (Spec, error) {
	if len(s) > maxSpecLen {
		return Spec{}, fmt.Errorf("jammer: spec longer than %d bytes", maxSpecLen)
	}
	return parseSpec(s, 1)
}

// Canonical parses a spec string and returns its canonical rendering.
func Canonical(s string) (string, error) {
	sp, err := ParseSpec(s)
	if err != nil {
		return "", err
	}
	return sp.String(), nil
}

func parseSpec(s string, depth int) (Spec, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return Spec{Kind: KindSweep}, nil
	}
	name, params := s, ""
	hasParams := false
	if i := strings.IndexByte(s, ':'); i >= 0 {
		name, params, hasParams = strings.TrimSpace(s[:i]), s[i+1:], true
	}
	sp, err := defaultSpec(name)
	if err != nil {
		return Spec{}, err
	}
	// A wrapper's inner spec, given or default, sits one level deeper.
	if sp.Inner != nil && depth >= maxSpecDepth {
		return Spec{}, fmt.Errorf("jammer: spec nested deeper than %d", maxSpecDepth)
	}
	if hasParams {
		if strings.TrimSpace(params) == "" {
			return Spec{}, fmt.Errorf("jammer: spec %q has an empty parameter list", s)
		}
		fields, err := splitTop(params)
		if err != nil {
			return Spec{}, err
		}
		seen := make(map[string]bool, len(fields))
		for _, f := range fields {
			key, val, err := splitParam(f)
			if err != nil {
				return Spec{}, err
			}
			if seen[key] {
				return Spec{}, fmt.Errorf("jammer: duplicate parameter %q", key)
			}
			seen[key] = true
			if err := sp.setParam(key, val, depth); err != nil {
				return Spec{}, err
			}
		}
	}
	if err := sp.validate(); err != nil {
		return Spec{}, err
	}
	return sp, nil
}

// defaultSpec returns the named kind with its default parameters.
func defaultSpec(name string) (Spec, error) {
	switch name {
	case KindSweep:
		return Spec{Kind: KindSweep}, nil
	case KindReactive:
		return Spec{Kind: KindReactive, Delay: DefaultReactiveDelay, Miss: DefaultReactiveMiss, Hold: DefaultReactiveHold}, nil
	case KindAdaptive:
		return Spec{Kind: KindAdaptive, Alpha: DefaultAdaptiveAlpha, Explore: DefaultAdaptiveExpl}, nil
	case KindBudget:
		return Spec{Kind: KindBudget, Duty: DefaultBudgetDuty, Burst: DefaultBudgetBurst, Inner: &Spec{Kind: KindSweep}}, nil
	default:
		return Spec{}, fmt.Errorf("jammer: unknown strategy kind %q (known: %s)", name, strings.Join(Kinds(), ", "))
	}
}

// splitTop splits a parameter list on commas at parenthesis depth zero.
func splitTop(s string) ([]string, error) {
	var parts []string
	depth, start := 0, 0
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '(':
			depth++
		case ')':
			depth--
			if depth < 0 {
				return nil, fmt.Errorf("jammer: unbalanced ')' in spec parameters %q", s)
			}
		case ',':
			if depth == 0 {
				parts = append(parts, s[start:i])
				start = i + 1
			}
		}
	}
	if depth != 0 {
		return nil, fmt.Errorf("jammer: unbalanced '(' in spec parameters %q", s)
	}
	return append(parts, s[start:]), nil
}

func splitParam(f string) (key, val string, err error) {
	i := strings.IndexByte(f, '=')
	if i < 0 {
		return "", "", fmt.Errorf("jammer: parameter %q is not key=value", strings.TrimSpace(f))
	}
	key = strings.TrimSpace(f[:i])
	val = strings.TrimSpace(f[i+1:])
	if key == "" || val == "" {
		return "", "", fmt.Errorf("jammer: parameter %q is not key=value", strings.TrimSpace(f))
	}
	return key, val, nil
}

func (sp *Spec) setParam(key, val string, depth int) error {
	switch sp.Kind {
	case KindSweep:
		return fmt.Errorf("jammer: sweep takes no parameters, got %q", key)
	case KindReactive:
		switch key {
		case "delay":
			return parseInt(key, val, &sp.Delay)
		case "miss":
			return parseFloat(key, val, &sp.Miss)
		case "hold":
			return parseInt(key, val, &sp.Hold)
		}
	case KindAdaptive:
		switch key {
		case "alpha":
			return parseFloat(key, val, &sp.Alpha)
		case "explore":
			return parseFloat(key, val, &sp.Explore)
		}
	case KindBudget:
		switch key {
		case "duty":
			return parseFloat(key, val, &sp.Duty)
		case "burst":
			return parseInt(key, val, &sp.Burst)
		case "over":
			if len(val) < 2 || val[0] != '(' || val[len(val)-1] != ')' {
				return fmt.Errorf("jammer: budget over value %q must be a parenthesized spec", val)
			}
			inner, err := parseSpec(val[1:len(val)-1], depth+1)
			if err != nil {
				return err
			}
			sp.Inner = &inner
			return nil
		}
	}
	return fmt.Errorf("jammer: unknown parameter %q for strategy %q", key, sp.Kind)
}

func parseInt(key, val string, out *int) error {
	n, err := strconv.Atoi(val)
	if err != nil {
		return fmt.Errorf("jammer: parameter %s=%q is not an integer", key, val)
	}
	*out = n
	return nil
}

func parseFloat(key, val string, out *float64) error {
	f, err := strconv.ParseFloat(val, 64)
	if err != nil || f != f || f > 1e18 || f < -1e18 {
		return fmt.Errorf("jammer: parameter %s=%q is not a finite number", key, val)
	}
	*out = f
	return nil
}

// validate checks parameter ranges, mirroring the constructors so a spec that
// parses always constructs.
func (sp Spec) validate() error {
	switch sp.Kind {
	case KindSweep:
		return nil
	case KindReactive:
		if sp.Delay < 0 || sp.Delay > maxReactiveDelay {
			return fmt.Errorf("jammer: reactive delay %d out of range [0,%d]", sp.Delay, maxReactiveDelay)
		}
		if sp.Miss < 0 || sp.Miss >= 1 {
			return fmt.Errorf("jammer: reactive miss %v out of range [0,1)", sp.Miss)
		}
		if sp.Hold < 0 || sp.Hold > maxReactiveHold {
			return fmt.Errorf("jammer: reactive hold %d out of range [0,%d]", sp.Hold, maxReactiveHold)
		}
		return nil
	case KindAdaptive:
		if sp.Alpha <= 0 || sp.Alpha > 1 {
			return fmt.Errorf("jammer: adaptive alpha %v out of range (0,1]", sp.Alpha)
		}
		if sp.Explore < 0 || sp.Explore >= 1 {
			return fmt.Errorf("jammer: adaptive explore %v out of range [0,1)", sp.Explore)
		}
		return nil
	case KindBudget:
		if sp.Duty <= 0 || sp.Duty > 1 {
			return fmt.Errorf("jammer: budget duty %v out of range (0,1]", sp.Duty)
		}
		if sp.Burst < 1 || sp.Burst > maxBudgetBurst {
			return fmt.Errorf("jammer: budget burst %d out of range [1,%d]", sp.Burst, maxBudgetBurst)
		}
		if sp.Inner == nil {
			return fmt.Errorf("jammer: budget spec missing inner strategy")
		}
		return sp.Inner.validate()
	default:
		return fmt.Errorf("jammer: unknown strategy kind %q", sp.Kind)
	}
}

// String renders the canonical form: all parameters, fixed order, shortest
// float rendering. Two valid specs are semantically equal iff their canonical
// strings are byte-equal; the default attacker canonicalizes to "sweep".
func (sp Spec) String() string {
	switch sp.Kind {
	case "", KindSweep:
		return KindSweep
	case KindReactive:
		return fmt.Sprintf("reactive:delay=%d,miss=%s,hold=%d", sp.Delay, ftoa(sp.Miss), sp.Hold)
	case KindAdaptive:
		return fmt.Sprintf("adaptive:alpha=%s,explore=%s", ftoa(sp.Alpha), ftoa(sp.Explore))
	case KindBudget:
		inner := Spec{Kind: KindSweep}
		if sp.Inner != nil {
			inner = *sp.Inner
		}
		return fmt.Sprintf("budget:duty=%s,burst=%d,over=(%s)", ftoa(sp.Duty), sp.Burst, inner.String())
	default:
		return fmt.Sprintf("invalid(%s)", sp.Kind)
	}
}

func ftoa(f float64) string { return strconv.FormatFloat(f, 'g', -1, 64) }

// New builds the strategy the spec describes over the given channel geometry,
// power table and shared stream. Construction draws nothing from it.
func (sp Spec) New(channels, width int, powers []float64, mode PowerMode, src *rng.Source) (Strategy, error) {
	switch sp.Kind {
	case "", KindSweep:
		return NewSweeper(channels, width, powers, mode, src)
	case KindReactive:
		return NewReactive(channels, width, powers, mode, src, sp.Delay, sp.Miss, sp.Hold)
	case KindAdaptive:
		return NewAdaptive(channels, width, powers, mode, src, sp.Alpha, sp.Explore)
	case KindBudget:
		inner := Spec{Kind: KindSweep}
		if sp.Inner != nil {
			inner = *sp.Inner
		}
		in, err := inner.New(channels, width, powers, mode, src)
		if err != nil {
			return nil, err
		}
		return NewBudget(in, sp.Duty, sp.Burst)
	default:
		return nil, fmt.Errorf("jammer: unknown strategy kind %q", sp.Kind)
	}
}

// New parses a spec string and builds the described strategy. The empty
// string builds the default sweeper.
func New(spec string, channels, width int, powers []float64, mode PowerMode, src *rng.Source) (Strategy, error) {
	sp, err := ParseSpec(spec)
	if err != nil {
		return nil, err
	}
	return sp.New(channels, width, powers, mode, src)
}
