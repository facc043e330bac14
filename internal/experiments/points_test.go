package experiments

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sort"
	"testing"
	"time"

	"ctjam/internal/metrics"
	"ctjam/internal/policy"
)

// evalPoints evaluates pts under o through the point memo, as Run does.
func evalPoints(o Options, pts []Point) ([]metrics.Counters, error) {
	return runPoints(o.withFloor(), pts, func(i int) string { return fmt.Sprintf("point %d", i) })
}

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
		if got := pointKey(o.withFloor(), Point{Config: sp.Config, Defense: sp.Defense}); got != sp.Key {
			t.Errorf("pointKey = %q, CachePoints key = %q", got, sp.Key)
		}
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
	_, err = evalPoints(o, pts)
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
