package fault

import (
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"
)

// ErrBadSpec is returned (wrapped) by Parse for malformed fault specs.
var ErrBadSpec = errors.New("fault: bad injector spec")

// Parse builds an injector chain from a CLI spec. The grammar is
//
//	spec     := clause (';' clause)*
//	clause   := kind (':' key '=' value (',' key '=' value)*)?
//	kind     := "burst" | "ack" | "drift" | "symbols"
//
// for example
//
//	burst:p=0.05,len=8,power=25;ack:p=0.1;drift:max=0.02,period=50
//
// len, period, drop and seed take base-10 integers, every other key a
// finite number. Unset keys take the defaults documented per kind below.
// seed seeds every injector that does not set its own seed= key; injectors
// of different kinds draw independent streams from the same seed. An empty
// spec returns a nil Injector (no faults).
//
// Defaults: burst p=0.05 len=8 power=25 | ack p=0.05 |
// drift max=0.01 period=50 | symbols trunc=0.05 drop=16 flip=0.01.
func Parse(spec string, seed int64) (Injector, error) {
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return nil, nil
	}
	var chain Chain
	for _, clause := range strings.Split(spec, ";") {
		clause = strings.TrimSpace(clause)
		if clause == "" {
			continue
		}
		kind, params, _ := strings.Cut(clause, ":")
		kind = strings.TrimSpace(kind)
		a, err := parseArgs(params)
		if err != nil {
			return nil, fmt.Errorf("%w: clause %q: %v", ErrBadSpec, clause, err)
		}
		injSeed := a.integer("seed", seed, 64)
		var inj Injector
		switch kind {
		case "burst":
			inj = BurstNoise{
				Seed:  injSeed,
				Prob:  a.float("p", 0.05),
				Len:   int(a.integer("len", 8, strconv.IntSize)),
				Power: a.float("power", 25),
			}
		case "ack":
			inj = AckLoss{Seed: injSeed, Prob: a.float("p", 0.05)}
		case "drift":
			inj = ClockDrift{
				Seed:   injSeed,
				Max:    a.float("max", 0.01),
				Period: int(a.integer("period", 50, strconv.IntSize)),
			}
		case "symbols":
			inj = SymbolFaults{
				Seed:      injSeed,
				TruncProb: a.float("trunc", 0.05),
				MaxDrop:   int(a.integer("drop", 16, strconv.IntSize)),
				FlipProb:  a.float("flip", 0.01),
			}
		default:
			return nil, fmt.Errorf("%w: unknown kind %q (want burst, ack, drift or symbols)", ErrBadSpec, kind)
		}
		if a.err != nil {
			return nil, fmt.Errorf("%w: clause %q: %v", ErrBadSpec, clause, a.err)
		}
		for k := range a.kv {
			return nil, fmt.Errorf("%w: unknown key %q for %q", ErrBadSpec, k, kind)
		}
		if err := validate(inj); err != nil {
			return nil, fmt.Errorf("%w: clause %q: %v", ErrBadSpec, clause, err)
		}
		chain = append(chain, inj)
	}
	if len(chain) == 0 {
		return nil, nil
	}
	if len(chain) == 1 {
		return chain[0], nil
	}
	return chain, nil
}

// args is one clause's key=value pairs. Each take removes its key; the first
// value that does not parse is kept in err.
type args struct {
	kv  map[string]string
	err error
}

// parseArgs splits "k=v,k=v" into trimmed keys and values.
func parseArgs(s string) (*args, error) {
	a := &args{kv: make(map[string]string)}
	s = strings.TrimSpace(s)
	if s == "" {
		return a, nil
	}
	for _, pair := range strings.Split(s, ",") {
		k, v, ok := strings.Cut(pair, "=")
		if !ok {
			return nil, fmt.Errorf("want key=value, got %q", pair)
		}
		a.kv[strings.TrimSpace(k)] = strings.TrimSpace(v)
	}
	return a, nil
}

// take removes and returns the text of key. It reports false when the key
// is unset, and after a failed value, so that err keeps the first failure.
func (a *args) take(key string) (string, bool) {
	v, ok := a.kv[key]
	delete(a.kv, key)
	return v, ok && a.err == nil
}

// float returns key's value, or def when absent. Values must be finite: NaN
// fails every range check in validate, and an infinite power is meaningless,
// so neither may reach an injector.
func (a *args) float(key string, def float64) float64 {
	v, ok := a.take(key)
	if !ok {
		return def
	}
	x, err := strconv.ParseFloat(v, 64)
	if err == nil && (math.IsNaN(x) || math.IsInf(x, 0)) {
		err = fmt.Errorf("%v is not finite", x)
	}
	if err != nil {
		a.err = fmt.Errorf("key %q: %v", key, err)
	}
	return x
}

// integer returns key's value, a base-10 integer that fits in bits bits, or
// def when absent. An integer key takes no fraction or exponent, so every
// accepted value is the integer its text spells, a seed above 2^53 included.
func (a *args) integer(key string, def int64, bits int) int64 {
	v, ok := a.take(key)
	if !ok {
		return def
	}
	n, err := strconv.ParseInt(v, 10, bits)
	if err != nil {
		a.err = fmt.Errorf("key %q: %v", key, err)
	}
	return n
}

// validate sanity-checks one injector's parameters.
func validate(inj Injector) error {
	switch v := inj.(type) {
	case BurstNoise:
		if v.Prob < 0 || v.Prob > 1 {
			return fmt.Errorf("burst p %v outside [0,1]", v.Prob)
		}
		if v.Len < 1 {
			return fmt.Errorf("burst len %d must be >= 1", v.Len)
		}
		if v.Power < 0 {
			return fmt.Errorf("burst power %v must be >= 0", v.Power)
		}
	case AckLoss:
		if v.Prob < 0 || v.Prob > 1 {
			return fmt.Errorf("ack p %v outside [0,1]", v.Prob)
		}
	case ClockDrift:
		if v.Max < 0 || v.Max >= 0.5 {
			return fmt.Errorf("drift max %v outside [0,0.5)", v.Max)
		}
		if v.Period < 1 {
			return fmt.Errorf("drift period %d must be >= 1", v.Period)
		}
	case SymbolFaults:
		if v.TruncProb < 0 || v.TruncProb > 1 {
			return fmt.Errorf("symbols trunc %v outside [0,1]", v.TruncProb)
		}
		if v.FlipProb < 0 || v.FlipProb > 1 {
			return fmt.Errorf("symbols flip %v outside [0,1]", v.FlipProb)
		}
		if v.MaxDrop < 1 {
			return fmt.Errorf("symbols drop %d must be >= 1", v.MaxDrop)
		}
	}
	return nil
}
