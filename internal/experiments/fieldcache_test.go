package experiments

import (
	"reflect"
	"testing"
	"time"
)

// fieldPanelIDs are the experiments whose compute flows through the
// field-run cache.
var fieldPanelIDs = []string{"fig10a", "fig10b", "fig11a", "fig11b", "scale"}

// TestFieldCacheEquivalence pins the field-run analogue of the sweep-cache
// guarantee: the field panels run against one shared cache produce Results
// bit-identical to fresh uncached runs, and a second pass over the same
// cache recomputes nothing.
func TestFieldCacheEquivalence(t *testing.T) {
	o := cacheTestOptions()

	fresh := make([]*Result, len(fieldPanelIDs))
	for i, id := range fieldPanelIDs {
		res, err := Run(id, o)
		if err != nil {
			t.Fatalf("uncached %s: %v", id, err)
		}
		fresh[i] = res
	}

	shared := o
	shared.Cache = NewCache()
	for i, id := range fieldPanelIDs {
		res, err := Run(id, shared)
		if err != nil {
			t.Fatalf("cached %s: %v", id, err)
		}
		if !reflect.DeepEqual(res, fresh[i]) {
			t.Errorf("%s: cached result differs from uncached run", id)
		}
	}
	st := shared.Cache.Stats()
	if st.FieldMisses == 0 {
		t.Fatal("first pass computed no field runs")
	}

	missesAfterFirst := st.FieldMisses
	for i, id := range fieldPanelIDs {
		res, err := Run(id, shared)
		if err != nil {
			t.Fatalf("second pass %s: %v", id, err)
		}
		if !reflect.DeepEqual(res, fresh[i]) {
			t.Errorf("%s: second-pass result differs", id)
		}
	}
	st = shared.Cache.Stats()
	if st.FieldMisses != missesAfterFirst {
		t.Errorf("second pass recomputed %d field runs; want pure hits", st.FieldMisses-missesAfterFirst)
	}
	if st.FieldHits == 0 {
		t.Error("second pass recorded no field-cache hits")
	}
}

// TestFieldKeyFingerprints checks every spec dimension splits the key, and
// that the Options budget only reaches keys of the RL scheme (whose agent it
// actually parameterizes).
func TestFieldKeyFingerprints(t *testing.T) {
	o := cacheTestOptions()
	base := FieldSpec{
		Scheme: FieldSchemeRand, Jammer: true, Clusters: 2, Nodes: 3,
		SlotDuration: time.Second, JammerSlot: time.Second, Seed: 1, Slots: 50,
	}
	mutations := []func(*FieldSpec){
		func(s *FieldSpec) { s.Scheme = FieldSchemePSV },
		func(s *FieldSpec) { s.Jammer = false },
		func(s *FieldSpec) { s.Clusters = 4 },
		func(s *FieldSpec) { s.Nodes = 5 },
		func(s *FieldSpec) { s.SlotDuration = 2 * time.Second },
		func(s *FieldSpec) { s.JammerSlot = time.Second / 2 },
		func(s *FieldSpec) { s.Seed = 9 },
		func(s *FieldSpec) { s.Slots = 51 },
	}
	ref := FieldKey(o, base)
	for i, mut := range mutations {
		s := base
		mut(&s)
		if FieldKey(o, s) == ref {
			t.Errorf("mutation %d did not change the field key", i)
		}
	}

	// A non-RL key must ignore the sweep budget...
	o2 := o
	o2.TrainSlots *= 2
	o2.Seed++
	if FieldKey(o2, base) != ref {
		t.Error("rand-scheme key depends on options that cannot change its result")
	}
	// ...and an RL key must fingerprint it.
	rl := base
	rl.Scheme = FieldSchemeRL
	if FieldKey(o, rl) == FieldKey(o2, rl) {
		t.Error("rl-scheme key ignores the training budget that shapes its agent")
	}
}

func TestFieldSpecValidate(t *testing.T) {
	good := FieldSpec{Scheme: FieldSchemePSV, Clusters: 1, Nodes: 3, SlotDuration: time.Second, JammerSlot: time.Second, Slots: 10}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := good
	bad.Scheme = "nope"
	if err := bad.Validate(); err == nil {
		t.Error("unknown scheme accepted")
	}
	bad = good
	bad.Clusters = 0
	if err := bad.Validate(); err == nil {
		t.Error("0 clusters accepted")
	}
	bad = good
	bad.Slots = 0
	if err := bad.Validate(); err == nil {
		t.Error("0 slots accepted")
	}
}

// TestCacheFieldSpecsDeterministic checks the distributed work list is a
// sorted, deduplicated, pure function of (Options, ids).
func TestCacheFieldSpecsDeterministic(t *testing.T) {
	o := cacheTestOptions()
	a, err := CacheFieldSpecs(o, fieldPanelIDs)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) == 0 {
		t.Fatal("field panels yielded no specs")
	}
	b, err := CacheFieldSpecs(o, fieldPanelIDs)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Error("CacheFieldSpecs is not deterministic")
	}
	seen := make(map[string]bool)
	for i, sp := range a {
		if i > 0 && a[i-1].Key >= sp.Key {
			t.Fatalf("specs not strictly sorted at %d: %q >= %q", i, a[i-1].Key, sp.Key)
		}
		if seen[sp.Key] {
			t.Fatalf("duplicate key %q", sp.Key)
		}
		seen[sp.Key] = true
	}
	// fig10a and fig10b read the same 5 runs; the deduplicated list must
	// collapse them.
	both, err := CacheFieldSpecs(o, []string{"fig10a", "fig10b"})
	if err != nil {
		t.Fatal(err)
	}
	only, err := CacheFieldSpecs(o, []string{"fig10a"})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(both, only) {
		t.Error("fig10a and fig10b do not share their field runs")
	}
	// Non-field ids contribute nothing.
	none, err := CacheFieldSpecs(o, []string{"fig2b"})
	if err != nil {
		t.Fatal(err)
	}
	if len(none) != 0 {
		t.Errorf("fig2b yielded %d field specs, want 0", len(none))
	}
	if _, err := CacheFieldSpecs(o, []string{"no-such-id"}); err == nil {
		t.Error("unknown id accepted")
	}
}

// TestFieldRLSharesTableIScheme pins that every RL FH field run plays the
// Table I scheme from the shared scheme memo: fig11a and fig11b run their
// 11 RL specs concurrently through one fresh cache and the DQN is trained
// exactly once, and a following table1 run trains nothing more.
func TestFieldRLSharesTableIScheme(t *testing.T) {
	o := Options{
		Slots:      100,
		Engine:     EngineDQN,
		TrainSlots: 300,
		FieldSlots: 10,
		Seed:       1,
		Workers:    4,
		Cache:      NewCache(),
	}
	for _, id := range []string{"fig11a", "fig11b"} {
		if _, err := Run(id, o); err != nil {
			t.Fatalf("%s: %v", id, err)
		}
	}
	if got := o.Cache.Stats().SchemeBuilds; got != 1 {
		t.Fatalf("fig11a+fig11b trained %d schemes, want 1", got)
	}
	if _, err := Run("table1", o); err != nil {
		t.Fatal(err)
	}
	// table1 adds only its random-power-jammer scheme.
	if got := o.Cache.Stats().SchemeBuilds; got != 2 {
		t.Errorf("after table1: %d schemes trained, want 2", got)
	}
}
