package experiments

import (
	"context"
	"fmt"
	"sort"
	"time"

	"ctjam/internal/env"
	"ctjam/internal/iot"
	"ctjam/internal/parallel"
	"ctjam/internal/policy"
)

// Field-simulator scheme tags. A FieldSpec names its anti-jamming scheme by
// tag so the spec stays a pure value: workers rebuild the scheme from the tag
// and the Options budget, which the field key fingerprints. The tags double
// as the Point.Defense tags of the scheme each run plays (see Point).
const (
	// FieldSchemePSV is the paper's passive FH baseline.
	FieldSchemePSV = "psv"
	// FieldSchemeRand is the random FH baseline.
	FieldSchemeRand = "rand"
	// FieldSchemeRL is the RL FH defense (engine-selected, like sweeps).
	FieldSchemeRL = "rl"
	// FieldSchemeStatic never hops — the "w/o Jx" reference scheme.
	FieldSchemeStatic = "static"
)

// FieldSpec identifies one unique field-simulator run: the network layout,
// jammer setting, scheme tag, and run length. Together with the Options
// budget (fingerprinted into the cache key) it fully determines an
// iot.RunStats, so equal keys mean bit-identical results — the property the
// cache and the distributed field units rely on.
type FieldSpec struct {
	// Scheme is one of the FieldScheme tags.
	Scheme string
	// Jammer enables the cross-technology jammer.
	Jammer bool
	// Clusters is the number of independent hopping clusters of the field
	// engine (1 = the paper's single star network).
	Clusters int
	// Nodes is the peripheral-node count per cluster.
	Nodes int
	// SlotDuration / JammerSlot follow iot.Config.
	SlotDuration time.Duration
	JammerSlot   time.Duration
	// Seed is the base simulation seed (cluster streams derive from it).
	Seed int64
	// Slots is the run length in Tx slots per cluster.
	Slots int
}

// fieldKey is the canonical fingerprint of one field run under o. The RL
// scheme's agent depends on the sweep engine, training budget, and option
// seed; for the other schemes those fields are zeroed so an irrelevant flag
// cannot split the cache.
func fieldKey(o Options, s FieldSpec) string {
	eng, train, oseed := 0, 0, int64(0)
	if s.Scheme == FieldSchemeRL {
		eng, train, oseed = int(o.Engine), o.TrainSlots, o.Seed
	}
	return fmt.Sprintf("fd|sch=%s|jam=%t|cl=%d|n=%d|slot=%d|jslot=%d|seed=%d|slots=%d|eng=%d|fast=false|train=%d|oseed=%d",
		s.Scheme, s.Jammer, s.Clusters, s.Nodes, int64(s.SlotDuration), int64(s.JammerSlot),
		s.Seed, s.Slots, eng, train, oseed)
}

// FieldKey returns the canonical cache key of one field run under o,
// applying the same option defaulting Run does. Distributed workers
// recompute it from the wire-decoded (Options, FieldSpec) pair and compare
// against the coordinator's key, catching codec or version drift before a
// wrong result can be imported.
func FieldKey(o Options, s FieldSpec) string {
	return fieldKey(o.withFloor(), s)
}

// Validate checks the spec.
func (s FieldSpec) Validate() error {
	switch s.Scheme {
	case FieldSchemePSV, FieldSchemeRand, FieldSchemeRL, FieldSchemeStatic:
	default:
		return fmt.Errorf("experiments: unknown field scheme %q", s.Scheme)
	}
	if s.Clusters < 1 {
		return fmt.Errorf("experiments: field spec needs at least 1 cluster")
	}
	if s.Slots < 1 {
		return fmt.Errorf("experiments: field spec needs at least 1 slot")
	}
	return nil
}

// ImportFieldRun installs an externally computed field run — a distributed
// worker's RunStats — under its canonical key (see FieldKey). Like
// ImportPoint, importing an already-resolved key is a no-op and an in-flight
// key is left for its claimant.
func (c *Cache) ImportFieldRun(key string, stats iot.RunStats) {
	c.fields.put(key, stats)
}

// fieldConfig materializes the per-cluster iot.Config of a spec.
func fieldConfig(s FieldSpec) iot.Config {
	cfg := iot.DefaultConfig()
	cfg.Nodes = s.Nodes
	cfg.SlotDuration = s.SlotDuration
	cfg.JammerSlot = s.JammerSlot
	cfg.JammerEnabled = s.Jammer
	cfg.Seed = s.Seed
	return cfg
}

// Point returns the sweep point whose scheme the field run plays: the
// paper's default environment (the field simulator's channel and power
// layout) with the spec's scheme tag as its defense. The RL FH field runs
// thereby share the Table I scheme of the sweep-point cache instead of
// training their own.
func (s FieldSpec) Point() Point {
	cfg := env.DefaultConfig()
	cfg.Seed = s.Seed
	p := Point{Config: cfg}
	if s.Scheme != FieldSchemeRL {
		p.Defense = s.Scheme
	}
	return p
}

// computeFieldSpec executes one field run on the field engine, one agent of
// the spec's scheme per cluster (a 1-cluster engine is the paper's single
// star network). The result is a pure function of (o, spec) — o.Workers
// only shards the engine and never changes results.
func computeFieldSpec(ctx context.Context, cache *Cache, o Options, s FieldSpec) (iot.RunStats, error) {
	if err := s.Validate(); err != nil {
		return iot.RunStats{}, err
	}
	p := s.Point()
	sch, err := cache.scheme(ctx, schemeKey(o, p), func() (*policy.Scheme, []byte, error) {
		return buildSchemeFor(o, p)
	})
	if err != nil {
		return iot.RunStats{}, err
	}
	eng, err := iot.NewEngine(iot.EngineConfig{Clusters: s.Clusters, Template: fieldConfig(s), Workers: o.Workers})
	if err != nil {
		return iot.RunStats{}, err
	}
	st, err := eng.Run(func(int) (env.Agent, error) { return sch.NewAgent(), nil }, s.Slots)
	if err != nil {
		return iot.RunStats{}, err
	}
	return st.RunStats(), nil
}

// runFieldSpecs evaluates one RunStats per spec through the shared field
// cache, fanning uncached specs out across o.Workers goroutines. Results are
// collected into a slice indexed by spec, so the output is bit-identical at
// any worker count and for any prior cache state. The fig10 panels share
// their 5 runs through this path (goodput and utilization read the same
// runs), as do repeated invocations of the fig11 panels.
func runFieldSpecs(o Options, specs []FieldSpec) ([]iot.RunStats, error) {
	cache := o.Cache
	if cache == nil {
		cache = NewCache()
	}
	ctx := o.Context
	if ctx == nil {
		ctx = context.Background()
	}
	entries := make([]*memoEntry[iot.RunStats], len(specs))
	claimed := make([]bool, len(specs))
	for i, s := range specs {
		entries[i], claimed[i] = cache.fields.claim(fieldKey(o, s))
	}
	err := parallel.ForEach(o.Workers, len(specs), func(i int) error {
		if !claimed[i] {
			return nil
		}
		entries[i].fill(computeFieldSpec(ctx, cache, o, specs[i]))
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := make([]iot.RunStats, len(specs))
	for i, e := range entries {
		st, werr := e.wait(ctx, "field run")
		if werr != nil {
			return nil, fmt.Errorf("field run %s: %w", specs[i].Scheme, werr)
		}
		out[i] = st
	}
	return out, nil
}

// CacheFieldSpecs enumerates the unique field runs the given experiment ids
// evaluate under o, sorted by Key — the field-run analogue of CachePoints
// and the work list internal/dist shards for whole-simulation replica units.
// Ids with no field-cache-backed compute contribute nothing; unknown ids
// return ErrUnknownExperiment.
func CacheFieldSpecs(o Options, ids []string) ([]FieldSpecKeyed, error) {
	o = o.withFloor()
	seen := make(map[string]bool)
	var out []FieldSpecKeyed
	for _, id := range ids {
		e, err := lookup(id)
		if err != nil {
			return nil, err
		}
		if e.fields == nil {
			continue
		}
		for _, s := range e.fields(o) {
			k := fieldKey(o, s)
			if seen[k] {
				continue
			}
			seen[k] = true
			out = append(out, FieldSpecKeyed{Key: k, Spec: s})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out, nil
}

// FieldSpecKeyed pairs a FieldSpec with its canonical cache key, mirroring
// PointSpec for the distributed work list.
type FieldSpecKeyed struct {
	// Key is the canonical field-run fingerprint — the Cache memoization
	// key. Equal keys mean bit-identical results.
	Key string
	// Spec describes the run.
	Spec FieldSpec
}

// EvaluateFieldSpecs computes the RunStats of the given field specs under o,
// through the shared field cache. This is the worker-side entry point of
// distributed field execution: results are bit-identical to the same specs'
// evaluation inside a single-process Run, because both paths are
// runFieldSpecs over canonical keys.
func EvaluateFieldSpecs(o Options, specs []FieldSpec) ([]iot.RunStats, error) {
	o = o.withFloor()
	return runFieldSpecs(o, specs)
}
