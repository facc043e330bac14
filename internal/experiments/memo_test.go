package experiments

import (
	"context"
	"testing"

	"ctjam/internal/env"
	"ctjam/internal/metrics"
)

// TestResolvedWaitIgnoresCancelledContext pins the wait half of the memo
// protocol for both tables: a lookup of a key that is already resolved
// returns its value even when the caller's context has ended. The
// context only bounds waits on entries still in flight.
func TestResolvedWaitIgnoresCancelledContext(t *testing.T) {
	o := pointOptions().withFloor()
	cfg := env.DefaultConfig()
	dead, cancel := context.WithCancel(context.Background())
	cancel()
	cancelled := o
	cancelled.Context = dead

	for _, tc := range []struct {
		name    string
		resolve func(c *Cache) error
		lookup  func(c *Cache) error
	}{
		{
			name: "point",
			resolve: func(c *Cache) error {
				c.ImportPoint(pointKey(o, Point{Config: cfg}), metrics.Counters{Slots: 7})
				return nil
			},
			lookup: func(c *Cache) error {
				_, err := EvaluatePoints(cancelled, []Point{{Config: cfg}})
				return err
			},
		},
		{
			name: "scheme",
			resolve: func(c *Cache) error {
				_, _, err := c.TrainScheme(context.Background(), o, cfg)
				return err
			},
			lookup: func(c *Cache) error {
				_, _, err := c.TrainScheme(dead, o, cfg)
				return err
			},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := NewCache()
			o.Cache, cancelled.Cache = c, c
			if err := tc.resolve(c); err != nil {
				t.Fatal(err)
			}
			failures := 0
			for i := 0; i < 200; i++ {
				if err := tc.lookup(c); err != nil {
					failures++
				}
			}
			if failures > 0 {
				t.Errorf("%d of 200 lookups of a resolved %s failed under a cancelled context", failures, tc.name)
			}
		})
	}
}

// TestImportLeavesInFlightKeyToClaimant pins the import half: importing a
// key that another caller has claimed but not filled neither resolves it
// nor counts as an import, and waiters then see the claimant's value.
func TestImportLeavesInFlightKeyToClaimant(t *testing.T) {
	o := pointOptions().withFloor()
	cfg := env.DefaultConfig()
	blob := func(c *Cache) []byte {
		_, b, err := c.TrainScheme(context.Background(), o, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}(NewCache())

	t.Run("point", func(t *testing.T) {
		c := NewCache()
		o := o
		o.Cache = c
		key := pointKey(o, Point{Config: cfg})
		e, _ := c.points.claim(key)
		c.ImportPoint(key, metrics.Counters{Slots: 1})
		if e.resolved() {
			t.Fatal("ImportPoint resolved an in-flight key")
		}
		e.fill(metrics.Counters{Slots: 2}, nil)
		got, err := EvaluatePoints(o, []Point{{Config: cfg}})
		if err != nil {
			t.Fatal(err)
		}
		if got[0].Slots != 2 {
			t.Errorf("waiter read Slots=%d, want the claimant's 2", got[0].Slots)
		}
	})
	t.Run("scheme", func(t *testing.T) {
		c := NewCache()
		key := SchemeKey(o, cfg)
		e, _ := c.schemes.claim(key)
		if err := c.ImportScheme(key, blob); err != nil {
			t.Fatal(err)
		}
		if e.resolved() || c.Stats().SchemeImports != 0 {
			t.Fatal("ImportScheme took over an in-flight key")
		}
		own := append([]byte(nil), blob...)
		e.fill(builtScheme{blob: own}, nil)
		if got, ok := c.SchemeBytes(key); !ok || &got[0] != &own[0] {
			t.Error("resolved scheme does not hold the claimant's checkpoint")
		}
	})
}
