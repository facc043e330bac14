package experiments

import (
	"context"
	"errors"
	"reflect"
	"sort"
	"testing"
	"time"

	"ctjam/internal/metrics"
	"ctjam/internal/policy"
)

func pointOptions() Options {
	return Options{
		Slots:      200,
		Engine:     EngineMDP,
		TrainSlots: 200,
		Seed:       1,
		Workers:    2,
	}
}

func TestCachePointsSortedAndDeduplicated(t *testing.T) {
	o := pointOptions()
	all, err := CachePoints(o, IDs())
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 115 {
		t.Errorf("full id set yields %d unique points, want 115", len(all))
	}
	if !sort.SliceIsSorted(all, func(i, j int) bool { return all[i].Key < all[j].Key }) {
		t.Error("CachePoints output is not sorted by key")
	}
	seen := make(map[string]bool)
	for _, sp := range all {
		if seen[sp.Key] {
			t.Errorf("duplicate key %s", sp.Key)
		}
		seen[sp.Key] = true
	}

	// All five metric panels of one sweep revisit exactly the same points.
	a, err := CachePoints(o, []string{"fig6a"})
	if err != nil {
		t.Fatal(err)
	}
	b, err := CachePoints(o, []string{"fig6a", "fig7a", "fig8a"})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Errorf("sibling metric panels added points: %d vs %d", len(a), len(b))
	}

	// Non-cache-backed experiments contribute nothing; unknown ids fail.
	none, err := CachePoints(o, []string{"stealth", "detect"})
	if err != nil {
		t.Fatal(err)
	}
	if len(none) != 0 {
		t.Errorf("non-cache-backed ids yielded %d points", len(none))
	}
	if _, err := CachePoints(o, []string{"no-such-id"}); !errors.Is(err, ErrUnknownExperiment) {
		t.Errorf("unknown id: err = %v, want ErrUnknownExperiment", err)
	}
}

func TestPointKeyMatchesCachePoints(t *testing.T) {
	o := pointOptions()
	specs, err := CachePoints(o, []string{"table1"})
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 2 {
		t.Fatalf("table1 yields %d points, want 2", len(specs))
	}
	for _, sp := range specs {
		if got := PointKey(o, Point{Config: sp.Config, Defense: sp.Defense}); got != sp.Key {
			t.Errorf("PointKey = %q, CachePoints key = %q", got, sp.Key)
		}
	}
}

func TestImportPointServesCacheHits(t *testing.T) {
	o := pointOptions()
	specs, err := CachePoints(o, []string{"table1"})
	if err != nil {
		t.Fatal(err)
	}
	pts := make([]Point, len(specs))
	for i, sp := range specs {
		pts[i] = Point{Config: sp.Config, Defense: sp.Defense}
	}

	o1 := o
	o1.Cache = NewCache()
	want, err := EvaluatePoints(o1, pts)
	if err != nil {
		t.Fatal(err)
	}

	imported := NewCache()
	for i, sp := range specs {
		imported.ImportPoint(sp.Key, want[i])
	}
	// Re-importing an existing key is a no-op: results are pure functions of
	// the key, the first import stands.
	imported.ImportPoint(specs[0].Key, metrics.Counters{Slots: -1})

	o2 := o
	o2.Cache = imported
	got, err := EvaluatePoints(o2, pts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("imported cache served different counters:\ngot  %+v\nwant %+v", got, want)
	}
	if st := imported.Stats(); st.PointMisses != 0 {
		t.Errorf("evaluation against a fully imported cache computed %d points", st.PointMisses)
	}
}

// TestRunPointsContextCancel pins the liveness contract of the claim/wait
// protocol: a waiter on a point claimed by a computation that never finishes
// (a dead process elsewhere) unblocks when its context ends instead of
// hanging forever.
func TestRunPointsContextCancel(t *testing.T) {
	o := pointOptions()
	specs, err := CachePoints(o, []string{"table1"})
	if err != nil {
		t.Fatal(err)
	}
	cache := NewCache()
	if _, claimed := cache.points.claim(specs[0].Key); !claimed {
		t.Fatal("first claim not granted")
	}
	// The claimant above never fills its entry.
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	o.Cache = cache
	o.Context = ctx
	pts := make([]Point, len(specs))
	for i, sp := range specs {
		pts[i] = Point{Config: sp.Config, Defense: sp.Defense}
	}
	_, err = EvaluatePoints(o, pts)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("waiting on a dead claimant: err = %v, want deadline exceeded", err)
	}
}

// TestSchemeWaitContextCancel pins the same contract for the scheme layer.
func TestSchemeWaitContextCancel(t *testing.T) {
	cache := NewCache()
	release := make(chan struct{})
	defer close(release)
	go cache.scheme(context.Background(), "stuck-key", func() (*policy.Scheme, []byte, error) {
		<-release
		return nil, nil, errors.New("never used")
	})
	// Wait until the builder holds the claim.
	for i := 0; cache.Stats().Schemes == 0; i++ {
		if i > 1000 {
			t.Fatal("builder never claimed the scheme entry")
		}
		time.Sleep(time.Millisecond)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	_, err := cache.scheme(ctx, "stuck-key", func() (*policy.Scheme, []byte, error) {
		t.Error("second builder invoked for an in-flight key")
		return nil, nil, nil
	})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("waiting on a stuck scheme build: err = %v, want deadline exceeded", err)
	}
}
