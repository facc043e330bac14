package experiments

import (
	"context"
	"fmt"
	"sort"
	"sync/atomic"

	"ctjam/internal/core"
	"ctjam/internal/env"
	"ctjam/internal/metrics"
	"ctjam/internal/parallel"
	"ctjam/internal/policy"
)

// Cache memoizes sweep-point compute across experiment runs. The 20 metric
// panels of Figs. 6-8 are 4 parameter sweeps crossed with 5 Table I metrics:
// every metric panel of one sweep revisits exactly the same (config, engine,
// budget, seed) points, and ST/AH/SH/AP/SP are all pure functions of one
// counter set — so a run that shares a Cache trains and evaluates each unique
// point exactly once and the remaining panels read the memoized Counters.
// Table I itself coincides with the sweep points that evaluate
// env.DefaultConfig (L_J = 100, lower bound 6) and is deduplicated the same
// way.
//
// Two tables are memoized, each keyed by a canonical fingerprint
// (env.Config.Fingerprint plus the Options fields that feed the result):
//
//   - points: the Table I Counters of one evaluated sweep point;
//   - schemes: the trained/solved policy.Scheme a point evaluates. Training
//     never reads the evaluation seed (the DQN trains in a Seed+1000
//     environment), so points differing only in evaluation seed share one
//     trained scheme and are evaluated in lockstep through env.BatchRun.
//     The field panels' RL FH runs play the Table I scheme from here too
//     (see runFieldSpecs); the field runs themselves are cheap and not
//     memoized.
//
// Both are instances of one memo table type, so they share one
// claim/fill/wait protocol and one pair of hit/miss counters each.
//
// A Cache is safe for concurrent use from any number of experiment runs.
// Each entry is computed exactly once: concurrent requests for an in-flight
// key block until the first requester fills it or their context ends.
// Memoization is exact — keys include every input that determines the
// result — so cached results are bit-identical to recomputation, and a Cache
// may be shared across runs with different budgets or engines (their keys
// differ).
type Cache struct {
	points  memo[metrics.Counters]
	schemes memo[builtScheme]

	schemeBuilds  atomic.Int64
	schemeImports atomic.Int64
}

// builtScheme is one memoized trained/solved scheme. blob is the scheme's
// canonical CTSC checkpoint (see internal/core DecodeScheme): locally built
// schemes keep the bytes they were rebuilt from, imported ones the bytes
// they were installed from, so any resolved entry can be exported. Baseline
// schemes carry no blob.
type builtScheme struct {
	s    *policy.Scheme
	blob []byte
}

// NewCache returns an empty cache, ready to be shared across experiment runs
// via Options.Cache.
func NewCache() *Cache { return &Cache{} }

// CacheStats reports cache effectiveness for one or more runs.
type CacheStats struct {
	// PointHits counts point lookups served from memoized Counters
	// (including waits on a point another goroutine was computing).
	PointHits int64
	// PointMisses counts points this cache had to compute.
	PointMisses int64
	// Schemes counts unique trained/solved schemes held.
	Schemes int
	// SchemeBuilds counts schemes this cache trained or solved locally.
	// Deterministic baseline schemes (Point.Defense != "") are excluded:
	// they carry no checkpoint, every process rebuilds them from the config
	// in microseconds, and counting them would break the fleet accounting.
	// SchemeImports counts schemes installed from an external checkpoint
	// (a coordinator's scheme store or a merged spool) instead of training.
	// Fleet-wide, the sum of SchemeBuilds across workers equals the number
	// of unique trainable scheme keys when checkpoint distribution works.
	SchemeBuilds  int64
	SchemeImports int64
}

// Stats returns a snapshot of the cache counters.
func (c *Cache) Stats() CacheStats {
	return CacheStats{
		PointHits:     c.points.hits.Load(),
		PointMisses:   c.points.misses.Load(),
		Schemes:       c.schemes.len(),
		SchemeBuilds:  c.schemeBuilds.Load(),
		SchemeImports: c.schemeImports.Load(),
	}
}

// scheme returns the memoized scheme for key, building it on first request.
// Concurrent requests for an in-flight key block until the build finishes or
// their context ends — a dead builder elsewhere must not wedge waiters. The
// build also yields the scheme's canonical checkpoint bytes, kept alongside
// the entry for export.
func (c *Cache) scheme(ctx context.Context, key string, build func() (*policy.Scheme, []byte, error)) (*policy.Scheme, error) {
	e, claimed := c.schemes.claim(key)
	if claimed {
		s, blob, err := build()
		if blob != nil {
			// Only checkpoint-bearing (trained/solved) schemes count toward
			// the fleet-wide build accounting; blobless baseline schemes are
			// rebuilt wherever needed.
			c.schemeBuilds.Add(1)
		}
		e.fill(builtScheme{s: s, blob: blob}, err)
	}
	b, err := e.wait(ctx, "scheme")
	return b.s, err
}

// SchemeBytes returns the canonical checkpoint of a resolved scheme entry,
// or false if the key is unknown, still in flight, failed, or a baseline.
// The returned slice is the cache's own copy and must not be mutated.
func (c *Cache) SchemeBytes(key string) ([]byte, bool) {
	b, _ := c.schemes.get(key)
	return b.blob, b.blob != nil
}

// ImportScheme installs an externally trained scheme checkpoint under its
// canonical key (see SchemeKey), so points evaluating that scheme skip
// training. The blob is decoded and rebuilt before the entry is claimed, so
// a corrupt checkpoint never poisons the cache. Scheme construction is a
// pure function of the key, so importing an already resolved or in-flight
// key is a no-op: the existing entry is identical by construction.
func (c *Cache) ImportScheme(key string, blob []byte) error {
	ck, err := core.DecodeScheme(blob)
	if err != nil {
		return err
	}
	s, err := ck.Scheme()
	if err != nil {
		return err
	}
	if c.schemes.put(key, builtScheme{s: s, blob: append([]byte(nil), blob...)}) {
		c.schemeImports.Add(1)
	}
	return nil
}

// SchemeBlob is one exported scheme checkpoint: the canonical cache key and
// the CTSC bytes resolving it.
type SchemeBlob struct {
	Key  string
	Data []byte
}

// ExportSchemes returns every resolved scheme checkpoint the cache holds,
// sorted by key. Static-mode spool shards persist these so a merge can
// complete the run's train units without retraining.
func (c *Cache) ExportSchemes() []SchemeBlob {
	var out []SchemeBlob
	for k, b := range c.schemes.values() {
		if b.blob != nil {
			out = append(out, SchemeBlob{Key: k, Data: b.blob})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

// SchemeKey returns the canonical scheme cache key of one RL FH sweep point
// under o, applying the same option defaulting Run does. This is the unit key
// of distributed train units: the coordinator derives it from CachePoints
// specs and workers recompute it from the wire-decoded pair before training.
// Baseline-defense points never train, so this only covers the RL scheme.
func SchemeKey(o Options, cfg env.Config) string {
	return schemeKey(o.withFloor(), Point{Config: cfg})
}

// TrainScheme trains (or solves) the scheme one sweep point evaluates and
// returns its canonical key and checkpoint bytes. The result is installed in
// the cache, so a worker that later evaluates points of the same scheme
// reuses it without a fetch. If the key is already resolved — trained
// earlier, or imported — the held checkpoint is returned without retraining.
func (c *Cache) TrainScheme(ctx context.Context, o Options, cfg env.Config) (key string, blob []byte, err error) {
	o = o.withFloor()
	if ctx == nil {
		ctx = context.Background()
	}
	key = schemeKey(o, Point{Config: cfg})
	if _, err := c.scheme(ctx, key, func() (*policy.Scheme, []byte, error) {
		return buildScheme(o, cfg)
	}); err != nil {
		return key, nil, err
	}
	blob, ok := c.SchemeBytes(key)
	if !ok {
		return key, nil, fmt.Errorf("experiments: scheme %s resolved without checkpoint bytes", key)
	}
	return key, blob, nil
}

// ImportPoint installs an externally computed point result — a distributed
// worker's Counters — under its canonical key (see PointKey). Point results
// are pure functions of their keys, so importing a key that is already
// resolved is a no-op (the stored value is identical by construction), and a
// key that is locally in flight is left for its claimant to fill.
func (c *Cache) ImportPoint(key string, counters metrics.Counters) {
	c.points.put(key, counters)
}

// pointKey is the canonical fingerprint of one sweep point: everything that
// determines its Counters. cfg.Fingerprint covers the environment (including
// the evaluation seed and the attacker spec); Engine/TrainSlots/Seed pin the
// scheme construction (see schemeCheckpoint) and Slots the evaluation length.
// The defense tag joins the key only when it deviates from the default RL FH,
// so every pre-matchup key stays byte-identical. The literal fast=false field
// once named the inference engine; it stays (here and in schemeKey) so keys
// in existing caches and spools keep their bytes.
func pointKey(o Options, p Point) string {
	key := fmt.Sprintf("pt|%s|eng=%d|fast=false|train=%d|seed=%d|slots=%d",
		p.Config.Fingerprint(), int(o.Engine), o.TrainSlots, o.Seed, o.Slots)
	if p.Defense != "" {
		key += "|def=" + p.Defense
	}
	return key
}

// schemeKey fingerprints the trained/solved scheme a point evaluates. Scheme
// construction never reads the evaluation seed — the DQN trains in a copy of
// cfg reseeded to o.Seed+1000 and draws its own randomness from o.Seed, and
// the MDP model is seed-free — so the evaluation seed is zeroed out of the
// key and points differing only in it share one scheme. Baseline defenses are
// pure functions of the config (no engine, no training), so their keys carry
// the defense tag instead of the engine fields.
func schemeKey(o Options, p Point) string {
	cfg := p.Config
	cfg.Seed = 0
	if p.Defense != "" {
		return fmt.Sprintf("sc|def=%s|%s", p.Defense, cfg.Fingerprint())
	}
	return fmt.Sprintf("sc|%s|eng=%d|fast=false|train=%d|seed=%d",
		cfg.Fingerprint(), int(o.Engine), o.TrainSlots, o.Seed)
}

// schemeCheckpoint trains/solves the engine-selected scheme of the paper's
// "RL FH" defense for one environment configuration and captures it as a
// distributable CTSC checkpoint, alongside the live learner it came from
// (the trained DQN agent, or a single-link agent of the solved MDP) for
// tests that pin the batched engine against serial play. This is the
// expensive compute memoized by Cache.scheme and deduplicated fleet-wide by
// distributed train units.
func schemeCheckpoint(o Options, cfg env.Config) (*core.SchemeCheckpoint, env.Agent, error) {
	switch o.Engine {
	case EngineDQN:
		agent, err := core.NewTrainingDQNAgent(cfg, o.Seed, o.TrainSlots)
		if err != nil {
			return nil, nil, err
		}
		trainCfg := cfg
		trainCfg.Seed = o.Seed + 1000
		trainEnv, err := env.New(trainCfg)
		if err != nil {
			return nil, nil, err
		}
		if _, err := agent.Train(trainEnv, o.TrainSlots); err != nil {
			return nil, nil, err
		}
		ck, err := agent.SchemeCheckpoint()
		return ck, agent, err
	case EngineMDP:
		model, err := core.NewModel(core.ParamsFromEnv(cfg))
		if err != nil {
			return nil, nil, err
		}
		sol, err := model.Solve(0.9)
		if err != nil {
			return nil, nil, err
		}
		ck, err := core.NewMDPSchemeCheckpoint("MDP*", model, sol.Policy, cfg.Channels, cfg.SweepWidth)
		if err != nil {
			return nil, nil, err
		}
		agent, err := core.NewMDPAgent(model, sol, cfg.Channels, cfg.SweepWidth)
		return ck, agent, err
	default:
		return nil, nil, fmt.Errorf("experiments: unknown engine %v", o.Engine)
	}
}

// baselineScheme builds one of the deterministic baseline defenses. They
// carry no learned state, so there is no checkpoint blob: a nil blob keeps
// them out of scheme exports and checkpoint shipping, and every process
// rebuilds them identically from the config alone.
func baselineScheme(defense string, cfg env.Config) (*policy.Scheme, error) {
	switch defense {
	case DefensePassive:
		return policy.PassiveFHScheme(cfg.Channels, cfg.SweepWidth, core.DefaultJamThreshold)
	case DefenseRandom:
		return policy.RandomFHScheme(cfg.Channels, cfg.SweepWidth, len(cfg.TxPowers))
	case DefenseStatic:
		return policy.StaticScheme(), nil
	default:
		return nil, fmt.Errorf("experiments: unknown defense %q", defense)
	}
}

// buildSchemeFor builds the scheme one point evaluates: the engine-selected
// RL FH for an empty defense tag, a deterministic baseline otherwise.
func buildSchemeFor(o Options, p Point) (*policy.Scheme, []byte, error) {
	if p.Defense == "" {
		return buildScheme(o, p.Config)
	}
	s, err := baselineScheme(p.Defense, p.Config)
	return s, nil, err
}

// buildScheme trains the scheme and returns it together with its canonical
// checkpoint bytes. The returned scheme is rebuilt from the encoded blob —
// not taken from the live trainer — so a local trainer and a remote worker
// installing the same checkpoint run byte-identical schemes by construction.
func buildScheme(o Options, cfg env.Config) (*policy.Scheme, []byte, error) {
	ck, _, err := schemeCheckpoint(o, cfg)
	if err != nil {
		return nil, nil, err
	}
	blob, err := ck.Encode()
	if err != nil {
		return nil, nil, err
	}
	dec, err := core.DecodeScheme(blob)
	if err != nil {
		return nil, nil, fmt.Errorf("experiments: checkpoint does not round-trip: %w", err)
	}
	s, err := dec.Scheme()
	if err != nil {
		return nil, nil, err
	}
	return s, blob, nil
}

// runPoints evaluates one Table I counter set per config through the shared
// point cache. Configs are grouped by scheme fingerprint; each group's
// not-yet-cached points are evaluated together in lockstep through
// policy.Scheme.Run / env.BatchRun, so one batched network forward per slot
// carries every sibling point of a shared agent. Groups fan out over
// o.Workers goroutines.
//
// Determinism: point results are pure functions of their keys, BatchRun is
// bit-identical to serial runs at any batch size, and counters are collected
// into a slice indexed by config — so the output is bit-for-bit independent
// of worker count, group composition and prior cache state. label(i)
// describes config i in error messages.
func runPoints(o Options, pts []Point, label func(i int) string) ([]metrics.Counters, error) {
	cache := o.Cache
	if cache == nil {
		// withFloor normally installs a private cache; a nil cache here
		// means a direct internal call, which still wants intra-call dedup.
		cache = NewCache()
	}
	ctx := o.Context
	if ctx == nil {
		ctx = context.Background()
	}

	// Group points by the scheme they evaluate, preserving first-appearance
	// order so work distribution is deterministic.
	var order []string
	groups := make(map[string][]int, len(pts))
	for i, p := range pts {
		k := schemeKey(o, p)
		if _, ok := groups[k]; !ok {
			order = append(order, k)
		}
		groups[k] = append(groups[k], i)
	}

	entries := make([]*memoEntry[metrics.Counters], len(pts))
	err := parallel.ForEach(o.Workers, len(order), func(g int) error {
		idxs := groups[order[g]]
		// Claim the group's uncached points. Duplicate keys inside the group
		// (identical points) resolve to one claim; the rest read the entry.
		claimed := idxs[:0:0]
		for _, i := range idxs {
			e, claim := cache.points.claim(pointKey(o, pts[i]))
			entries[i] = e
			if claim {
				claimed = append(claimed, i)
			}
		}
		if len(claimed) == 0 {
			return nil
		}
		// A claimed entry must always be filled, or waiters deadlock.
		fill := func(cs []metrics.Counters, err error) {
			for j, i := range claimed {
				var c metrics.Counters
				if err == nil {
					c = cs[j]
				}
				entries[i].fill(c, err)
			}
		}
		scheme, err := cache.scheme(ctx, order[g], func() (*policy.Scheme, []byte, error) {
			return buildSchemeFor(o, pts[claimed[0]])
		})
		if err != nil {
			fill(nil, err)
			return nil
		}
		envs := make([]*env.Environment, len(claimed))
		for j, i := range claimed {
			if envs[j], err = env.New(pts[i].Config); err != nil {
				fill(nil, err)
				return nil
			}
		}
		cs, err := scheme.Run(envs, o.Slots)
		fill(cs, err)
		return nil
	})
	if err != nil {
		return nil, err
	}

	out := make([]metrics.Counters, len(pts))
	var firstErr error
	for i, e := range entries {
		// Entries claimed by a concurrent run may still be in flight; the
		// wait is context-bounded so a claimant that died elsewhere (e.g. a
		// lost distributed worker) cannot wedge this caller forever.
		c, werr := e.wait(ctx, "sweep point")
		if werr != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("%s: %w", label(i), werr)
			}
			if ctx.Err() != nil {
				// The context is gone: every remaining in-flight wait would
				// fail the same way, so stop collecting.
				return nil, firstErr
			}
			continue
		}
		out[i] = c
	}
	if firstErr != nil {
		return nil, firstErr
	}
	return out, nil
}
