package fault

import (
	"math"
	"math/big"
	"reflect"
	"strings"
	"testing"
)

// FuzzFaultParse pins Parse's contract on arbitrary specs: it never panics,
// every injector it accepts has only finite parameters and passes validate,
// and every integer field set in the spec (len, period, drop, seed) equals
// the integer its text spells. Fault specs arrive from the command line and,
// inside a wire config, from the distributed coordinator, so an accepted
// spec must always describe a well-formed impairment.
func FuzzFaultParse(f *testing.F) {
	f.Add("burst:p=0.05,len=8,power=25;ack:p=0.1;drift:max=0.02,period=50", int64(1))
	f.Add("symbols:trunc=0.1,drop=4,flip=0.02", int64(11))
	f.Add("drift:max=NaN", int64(1))
	f.Add("symbols:drop=2.7;ack:seed=9007199254740993", int64(1))
	f.Fuzz(func(t *testing.T, spec string, seed int64) {
		inj, err := Parse(spec, seed)
		if err != nil || inj == nil {
			return
		}
		chain, ok := inj.(Chain)
		if !ok {
			chain = Chain{inj}
		}
		clauses := clauseArgs(spec)
		if len(clauses) != len(chain) {
			t.Fatalf("spec %q: %d injectors from %d clauses", spec, len(chain), len(clauses))
		}
		for c, one := range chain {
			v := reflect.ValueOf(one)
			if _, set := clauses[c]["seed"]; !set && v.FieldByName("Seed").Int() != seed {
				t.Fatalf("spec %q: %s.Seed = %d, want the spec seed %d", spec, one.Name(), v.FieldByName("Seed").Int(), seed)
			}
			for key, field := range map[string]string{"seed": "Seed", "len": "Len", "period": "Period", "drop": "MaxDrop"} {
				text, set := clauses[c][key]
				fv := v.FieldByName(field)
				if !set || !fv.IsValid() {
					continue
				}
				want, ok := new(big.Int).SetString(text, 10)
				if !ok || !want.IsInt64() || fv.Int() != want.Int64() {
					t.Fatalf("spec %q: %s.%s = %d, but its text is %q", spec, one.Name(), field, fv.Int(), text)
				}
			}
			for i := 0; i < v.NumField(); i++ {
				if fv := v.Field(i); fv.Kind() == reflect.Float64 {
					if x := fv.Float(); math.IsNaN(x) || math.IsInf(x, 0) {
						t.Fatalf("spec %q: %s.%s = %v is not finite", spec, one.Name(), v.Type().Field(i).Name, x)
					}
				}
			}
			if err := validate(one); err != nil {
				t.Fatalf("spec %q: accepted injector %+v fails validate: %v", spec, one, err)
			}
		}
	})
}

// clauseArgs splits spec as Parse does and returns, per non-blank clause,
// the trimmed text of every key it sets (the last one when a key repeats).
func clauseArgs(spec string) []map[string]string {
	var out []map[string]string
	for _, clause := range strings.Split(strings.TrimSpace(spec), ";") {
		if clause = strings.TrimSpace(clause); clause == "" {
			continue
		}
		kv := make(map[string]string)
		if _, args, ok := strings.Cut(clause, ":"); ok && strings.TrimSpace(args) != "" {
			for _, pair := range strings.Split(args, ",") {
				k, v, _ := strings.Cut(pair, "=")
				kv[strings.TrimSpace(k)] = strings.TrimSpace(v)
			}
		}
		out = append(out, kv)
	}
	return out
}
