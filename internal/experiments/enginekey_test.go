package experiments

import (
	"fmt"
	"testing"
	"time"

	"ctjam/internal/core"
	"ctjam/internal/env"
)

// Regression tests for the cache-key engine contract: the engine choice (MDP
// vs DQN) must be part of every point and scheme fingerprint, and the bytes
// of the keys and of a trained scheme's checkpoint must not move, since
// caches, spools and distributed workers compare them as stored.

func TestCacheKeysIncludeEngineChoice(t *testing.T) {
	cfg := env.DefaultConfig()
	base := cacheTestOptions()
	base.Engine = EngineDQN

	mdp := base
	mdp.Engine = EngineMDP
	if pointKey(base, Point{Config: cfg}) == pointKey(mdp, Point{Config: cfg}) {
		t.Fatalf("point keys must differ by engine: %q", pointKey(base, Point{Config: cfg}))
	}
	if schemeKey(base, Point{Config: cfg}) == schemeKey(mdp, Point{Config: cfg}) {
		t.Fatalf("scheme keys must differ by engine: %q", schemeKey(base, Point{Config: cfg}))
	}

	// A shared cache keeps the two engine variants as distinct entries.
	c := NewCache()
	if _, claimed := c.points.claim(pointKey(base, Point{Config: cfg})); !claimed {
		t.Fatal("first DQN-point claim should miss")
	}
	if _, claimed := c.points.claim(pointKey(mdp, Point{Config: cfg})); !claimed {
		t.Fatal("MDP point must not be served from the DQN entry")
	}
	if _, claimed := c.points.claim(pointKey(base, Point{Config: cfg})); claimed {
		t.Fatal("repeat DQN-point claim should hit")
	}
}

// TestEngineKeysPinned pins the external bytes of one fixed EngineDQN
// configuration: the literal point, scheme and field cache keys (which
// distributed workers recompute and compare as strings, and which spools
// store on disk) and the SHA-256 of the trained scheme's CTSC encoding
// (which workers ship inline and fingerprint). The keys keep the historical
// fast=false field so existing caches and spools stay valid.
func TestEngineKeysPinned(t *testing.T) {
	const cfgFP = "k=16,m=4,jm=1,lh=50,lj=100,seed=%d,tx=6;7;8;9;10;11;12;13;14;15,jp=11;12;13;14;15;16;17;18;19;20"
	cfg := env.DefaultConfig()
	o := cacheTestOptions()
	o.Engine = EngineDQN
	o.TrainSlots = 600
	p := Point{Config: cfg}
	fs := FieldSpec{Scheme: FieldSchemeRL, Jammer: true, Clusters: 4, Nodes: 3,
		SlotDuration: time.Second, JammerSlot: 200 * time.Millisecond, Seed: 9, Slots: 40}
	for _, c := range []struct{ name, got, want string }{
		{"point", PointKey(o, p), "pt|" + fmt.Sprintf(cfgFP, 1) + "|eng=2|fast=false|train=600|seed=5|slots=600"},
		{"scheme", schemeKey(o.withFloor(), p), "sc|" + fmt.Sprintf(cfgFP, 0) + "|eng=2|fast=false|train=600|seed=5"},
		{"field", FieldKey(o, fs), "fd|sch=rl|jam=true|cl=4|n=3|slot=1000000000|jslot=200000000|seed=9|slots=40|eng=2|fast=false|train=600|oseed=5"},
	} {
		if c.got != c.want {
			t.Errorf("%s key\n got %q\nwant %q", c.name, c.got, c.want)
		}
	}

	ck, _, err := schemeCheckpoint(o.withFloor(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	data, err := ck.Encode()
	if err != nil {
		t.Fatal(err)
	}
	const wantCTSC = "cf4cb1157dc4370bcaa1ef771acd3678a8e96831a12efcd7c879c98cdee224e6"
	if got := core.SchemeFingerprint(data); got != wantCTSC {
		t.Fatalf("CTSC SHA-256 of the trained DQN scheme = %s, want %s (%d bytes)", got, wantCTSC, len(data))
	}
}
