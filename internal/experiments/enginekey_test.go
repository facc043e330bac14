package experiments

import (
	"strings"
	"testing"

	"ctjam/internal/env"
)

// Regression tests for the cache-key engine contract: the numeric engine
// choice (MDP vs DQN, and exact vs fast32 inference) must be part of every
// point and scheme fingerprint, so a fast-path evaluation can never be
// served from — or poison — an exact-path cache entry.

func TestCacheKeysIncludeEngineChoice(t *testing.T) {
	cfg := env.DefaultConfig()
	base := cacheTestOptions()
	base.Engine = EngineDQN

	fast := base
	fast.Fast32 = true

	if pointKey(base, Point{Config: cfg}) == pointKey(fast, Point{Config: cfg}) {
		t.Fatalf("point keys must differ by fast32 flag: %q", pointKey(base, Point{Config: cfg}))
	}
	if schemeKey(base, Point{Config: cfg}) == schemeKey(fast, Point{Config: cfg}) {
		t.Fatalf("scheme keys must differ by fast32 flag: %q", schemeKey(base, Point{Config: cfg}))
	}

	mdp := base
	mdp.Engine = EngineMDP
	if pointKey(base, Point{Config: cfg}) == pointKey(mdp, Point{Config: cfg}) {
		t.Fatalf("point keys must differ by engine: %q", pointKey(base, Point{Config: cfg}))
	}

	// A shared cache keeps the two engine variants as distinct entries.
	c := NewCache()
	if _, claimed := c.points.claim(pointKey(base, Point{Config: cfg})); !claimed {
		t.Fatal("first exact-point claim should miss")
	}
	if _, claimed := c.points.claim(pointKey(fast, Point{Config: cfg})); !claimed {
		t.Fatal("fast32 point must not be served from the exact entry")
	}
	if _, claimed := c.points.claim(pointKey(base, Point{Config: cfg})); claimed {
		t.Fatal("repeat exact-point claim should hit")
	}
}

// TestFast32NormalizedForNonDQN pins the withFloor canonicalization: Fast32
// only affects DQN inference, so for other engines the flag is stripped
// before it can split identical computations into distinct cache entries.
func TestFast32NormalizedForNonDQN(t *testing.T) {
	cfg := env.DefaultConfig()
	o := cacheTestOptions() // EngineMDP
	o.Fast32 = true
	of := o.withFloor()
	if of.Fast32 {
		t.Fatal("withFloor must clear Fast32 for non-DQN engines")
	}
	o2 := cacheTestOptions()
	if pointKey(of, Point{Config: cfg}) != pointKey(o2.withFloor(), Point{Config: cfg}) {
		t.Fatal("MDP point keys must be identical regardless of the fast32 flag")
	}

	dqn := cacheTestOptions()
	dqn.Engine = EngineDQN
	dqn.Fast32 = true
	if !dqn.withFloor().Fast32 {
		t.Fatal("withFloor must keep Fast32 for EngineDQN")
	}
}

// TestPointKeyCarriesFast32Tag guards the wire contract: distributed workers
// recompute PointKey from decoded payloads and compare strings, so the tag's
// presence (not just key inequality) is what version drift trips over.
func TestPointKeyCarriesFast32Tag(t *testing.T) {
	cfg := env.DefaultConfig()
	o := cacheTestOptions()
	o.Engine = EngineDQN
	o.Fast32 = true
	key := PointKey(o, Point{Config: cfg})
	if !strings.Contains(key, "fast=true") {
		t.Fatalf("point key %q does not carry the fast32 tag", key)
	}
	o.Fast32 = false
	if !strings.Contains(PointKey(o, Point{Config: cfg}), "fast=false") {
		t.Fatalf("point key %q does not carry the fast32 tag", PointKey(o, Point{Config: cfg}))
	}
}
