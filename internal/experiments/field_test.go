package experiments

import (
	"reflect"
	"testing"
)

// fieldPanelIDs are the experiments that run the field simulator.
var fieldPanelIDs = []string{"fig10a", "fig10b", "fig11a", "fig11b", "scale"}

// TestFieldCacheEquivalence pins that the field panels run against one
// shared cache, whose scheme memo serves their schemes, produce Results
// bit-identical to fresh runs on private caches, on a first pass and on a
// second one.
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
	for i, id := range fieldPanelIDs {
		res, err := Run(id, shared)
		if err != nil {
			t.Fatalf("second pass %s: %v", id, err)
		}
		if !reflect.DeepEqual(res, fresh[i]) {
			t.Errorf("%s: second-pass result differs", id)
		}
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
