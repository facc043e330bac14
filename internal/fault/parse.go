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
// Unset keys take the defaults documented per kind below. seed seeds every
// injector that does not set its own seed= key; injectors of different kinds
// draw independent streams from the same seed. An empty spec returns a nil
// Injector (no faults).
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
		kind, args, _ := strings.Cut(clause, ":")
		kind = strings.TrimSpace(kind)
		kv, err := parseArgs(args)
		if err != nil {
			return nil, fmt.Errorf("%w: clause %q: %v", ErrBadSpec, clause, err)
		}
		injSeed := seed
		if s, ok := kv["seed"]; ok {
			injSeed = int64(s)
			delete(kv, "seed")
		}
		var inj Injector
		switch kind {
		case "burst":
			inj = BurstNoise{
				Seed:  injSeed,
				Prob:  take(kv, "p", 0.05),
				Len:   int(take(kv, "len", 8)),
				Power: take(kv, "power", 25),
			}
		case "ack":
			inj = AckLoss{Seed: injSeed, Prob: take(kv, "p", 0.05)}
		case "drift":
			inj = ClockDrift{
				Seed:   injSeed,
				Max:    take(kv, "max", 0.01),
				Period: int(take(kv, "period", 50)),
			}
		case "symbols":
			inj = SymbolFaults{
				Seed:      injSeed,
				TruncProb: take(kv, "trunc", 0.05),
				MaxDrop:   int(take(kv, "drop", 16)),
				FlipProb:  take(kv, "flip", 0.01),
			}
		default:
			return nil, fmt.Errorf("%w: unknown kind %q (want burst, ack, drift or symbols)", ErrBadSpec, kind)
		}
		for k := range kv {
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

// parseArgs parses "k=v,k=v" into a map. Values must be finite: NaN fails
// every range check in validate, and an infinite power, length or seed is
// meaningless, so neither may reach an injector.
func parseArgs(args string) (map[string]float64, error) {
	kv := make(map[string]float64)
	args = strings.TrimSpace(args)
	if args == "" {
		return kv, nil
	}
	for _, pair := range strings.Split(args, ",") {
		k, v, ok := strings.Cut(pair, "=")
		if !ok {
			return nil, fmt.Errorf("want key=value, got %q", pair)
		}
		x, err := strconv.ParseFloat(strings.TrimSpace(v), 64)
		if err != nil {
			return nil, fmt.Errorf("key %q: %v", k, err)
		}
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return nil, fmt.Errorf("key %q: %v is not finite", k, x)
		}
		kv[strings.TrimSpace(k)] = x
	}
	return kv, nil
}

// take removes and returns kv[key], or def when absent.
func take(kv map[string]float64, key string, def float64) float64 {
	if v, ok := kv[key]; ok {
		delete(kv, key)
		return v
	}
	return def
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
