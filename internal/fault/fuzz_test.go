package fault

import (
	"math"
	"reflect"
	"testing"
)

// FuzzFaultParse pins Parse's contract on arbitrary specs: it never panics,
// and every injector it accepts has only finite parameters and passes
// validate. Fault specs arrive from the command line and, inside a wire
// config, from the distributed coordinator, so an accepted spec must always
// describe a well-formed impairment.
func FuzzFaultParse(f *testing.F) {
	f.Add("burst:p=0.05,len=8,power=25;ack:p=0.1;drift:max=0.02,period=50", int64(1))
	f.Add("symbols:trunc=0.1,drop=4,flip=0.02", int64(11))
	f.Add("drift:max=NaN", int64(1))
	f.Fuzz(func(t *testing.T, spec string, seed int64) {
		inj, err := Parse(spec, seed)
		if err != nil || inj == nil {
			return
		}
		chain, ok := inj.(Chain)
		if !ok {
			chain = Chain{inj}
		}
		for _, one := range chain {
			v := reflect.ValueOf(one)
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
