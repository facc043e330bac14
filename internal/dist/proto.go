// Package dist shards the cache-backed compute of the experiment harness
// across processes: a coordinator enumerates the unique work units of a set
// of experiment ids — the sweep points (experiments.CachePoints) and one
// train unit per RL FH scheme they play — serves them over a small
// HTTP/JSON protocol, and merges the returned Counters and scheme
// checkpoints back into an experiments.Cache, after which the experiments
// themselves run from cache — producing output bit-identical to a
// single-process run. Field-simulator panels are cheap and always run in
// the printing process; their RL FH runs read the Table I scheme the fleet
// trained. A static, networkless mode (RunShard) partitions the same sorted
// unit list across shard indices, keeping the units of one scheme on one
// shard, and exchanges results through atomically written spool files
// instead of sockets; a merge replays the spools into a coordinator's
// ledger (Coordinator.ReplaySpools), so one set of rules decides which
// results a run accepts, whichever way they arrived.
//
// Correctness rests on two properties the rest of the repo already
// guarantees. First, every point result is a pure function of its canonical
// key — configs carry explicit seeds, fault streams are counter-based, and
// evaluation is bit-identical at any batch size or worker count — so it does
// not matter which process computes a point, or whether retry computes it
// twice. Second, work assignment is deterministic: units are the sorted
// CachePoints list, shards own fixed groups of it dealt round-robin (see
// ShardUnits), and the coordinator hands out leases in sorted-key order,
// never arrival order.
// Workers verify each unit's key by recomputing it from the decoded payload,
// so codec or version drift between processes is an error, not a silent
// wrong answer.
package dist

import (
	"context"
	"fmt"
	"runtime"
	"sort"

	"ctjam/internal/core"
	"ctjam/internal/env"
	"ctjam/internal/experiments"
	"ctjam/internal/fault"
	"ctjam/internal/jammer"
	"ctjam/internal/metrics"
)

// WireConfig is the JSON form of env.Config. Fault injectors travel as their
// internal/fault flag-grammar spec; the sweep points distributed today never
// carry any, but the field keeps the format ready for configs that do.
type WireConfig struct {
	Channels   int       `json:"channels"`
	SweepWidth int       `json:"sweep_width"`
	TxPowers   []float64 `json:"tx_powers"`
	JamPowers  []float64 `json:"jam_powers"`
	JammerMode int       `json:"jammer_mode"`
	Jammer     string    `json:"jammer,omitempty"`
	LossHop    float64   `json:"loss_hop"`
	LossJam    float64   `json:"loss_jam"`
	Seed       int64     `json:"seed"`
	FaultSpec  string    `json:"fault_spec,omitempty"`
}

// wireConfig converts an env.Config for the wire. Configs carrying live
// fault injectors are rejected: injectors have no spec back-formatter, and
// silently dropping them would change the point's meaning.
func wireConfig(cfg env.Config) (WireConfig, error) {
	if cfg.Faults != nil {
		return WireConfig{}, fmt.Errorf("dist: config with fault injector %q is not distributable", cfg.Faults.Name())
	}
	return WireConfig{
		Channels:   cfg.Channels,
		SweepWidth: cfg.SweepWidth,
		TxPowers:   cfg.TxPowers,
		JamPowers:  cfg.JamPowers,
		JammerMode: int(cfg.JammerMode),
		Jammer:     cfg.Jammer,
		LossHop:    cfg.LossHop,
		LossJam:    cfg.LossJam,
		Seed:       cfg.Seed,
	}, nil
}

// envConfig rebuilds the env.Config a WireConfig describes.
func (c WireConfig) envConfig() (env.Config, error) {
	cfg := env.Config{
		Channels:   c.Channels,
		SweepWidth: c.SweepWidth,
		TxPowers:   c.TxPowers,
		JamPowers:  c.JamPowers,
		JammerMode: jammer.PowerMode(c.JammerMode),
		Jammer:     c.Jammer,
		LossHop:    c.LossHop,
		LossJam:    c.LossJam,
		Seed:       c.Seed,
	}
	if c.FaultSpec != "" {
		inj, err := fault.Parse(c.FaultSpec, c.Seed)
		if err != nil {
			return env.Config{}, err
		}
		cfg.Faults = inj
	}
	if err := cfg.Validate(); err != nil {
		return env.Config{}, fmt.Errorf("dist: wire config invalid: %w", err)
	}
	return cfg, nil
}

// WireOptions pins the experiments.Options fields that feed a point's cache
// key. Worker-local fields (parallelism, cache, context) deliberately do not
// travel: they cannot change results.
type WireOptions struct {
	Engine     int   `json:"engine"`
	TrainSlots int   `json:"train_slots"`
	Seed       int64 `json:"seed"`
	Slots      int   `json:"slots"`
}

// wireOptions extracts the wire-relevant fields of o.
func wireOptions(o experiments.Options) WireOptions {
	return WireOptions{
		Engine:     int(o.Engine),
		TrainSlots: o.TrainSlots,
		Seed:       o.Seed,
		Slots:      o.Slots,
	}
}

// options rebuilds worker-side experiments.Options around the wire fields.
func (w WireOptions) options(ctx context.Context, cache *experiments.Cache, workers int) experiments.Options {
	return experiments.Options{
		Engine:     experiments.Engine(w.Engine),
		TrainSlots: w.TrainSlots,
		Seed:       w.Seed,
		Slots:      w.Slots,
		Workers:    workers,
		Cache:      cache,
		Context:    ctx,
	}
}

// Unit is one distributable work item: a sweep point, or a scheme training
// (Train true), plus the options pinning its cache key and the
// coordinator's canonical key for it.
type Unit struct {
	Key    string      `json:"key"`
	Opts   WireOptions `json:"opts"`
	Config WireConfig  `json:"config,omitempty"`

	// Defense is the point's defense scheme tag (experiments.Point.Defense):
	// "" for the engine-selected RL FH, or a deterministic baseline tag.
	// Baseline points carry no SchemeKey — their schemes are rebuilt from the
	// config alone on whatever worker evaluates them.
	Defense string `json:"defense,omitempty"`

	// Train marks a scheme-training unit: the worker trains/solves the
	// scheme the seed-zeroed Config selects under Opts and reports its CTSC
	// checkpoint as the unit's result instead of evaluating anything.
	Train bool `json:"train,omitempty"`
	// SchemeKey, on RL FH point units, is the canonical key of the scheme
	// the unit plays — the Key of its train unit. Such units are
	// only dispatched once that train unit is done.
	SchemeKey string `json:"scheme_key,omitempty"`
	// Scheme and SchemeFP carry the resolved checkpoint and its fingerprint
	// inline in every dispatched unit that has a SchemeKey, so the worker
	// verifies and installs the fleet-trained scheme instead of training.
	Scheme   []byte `json:"scheme,omitempty"`
	SchemeFP string `json:"scheme_fp,omitempty"`
}

// UnitResult reports one completed unit: its Counters (sweep points) or its
// CTSC checkpoint and fingerprint (train units), or the error that kept a
// worker from producing them.
type UnitResult struct {
	Key      string           `json:"key"`
	Counters metrics.Counters `json:"counters"`
	Scheme   []byte           `json:"scheme,omitempty"`
	SchemeFP string           `json:"scheme_fp,omitempty"`
	Err      string           `json:"err,omitempty"`
}

// payloadError reports why r's payload does not fit the kind of u, or ""
// when it does: a point result carries no scheme checkpoint, a train result
// carries one.
func payloadError(u Unit, r UnitResult) string {
	switch {
	case u.Train && r.Scheme == nil:
		return fmt.Sprintf("train unit %s: result missing scheme checkpoint", r.Key)
	case !u.Train && r.Scheme != nil:
		return fmt.Sprintf("point unit %s: result carries a scheme checkpoint", r.Key)
	}
	return ""
}

// fingerprintError reports why a train result's checkpoint bytes do not
// hash to the fingerprint it claims, or "" when they do: neither the
// coordinator nor a merge trusts the claimed identity.
func fingerprintError(r UnitResult) string {
	if fp := core.SchemeFingerprint(r.Scheme); fp != r.SchemeFP {
		return fmt.Sprintf("scheme %s: claimed fingerprint %s, bytes hash to %s", r.Key, r.SchemeFP, fp)
	}
	return ""
}

// UnitsFor enumerates the distributable work of the given experiment ids
// under o in one pass over their cache-backed points, each list sorted by
// key so every coordinator and shard derives it identically from identical
// inputs. units holds the sweep points ("pt|..." keys). trains holds one
// train unit per unique RL FH scheme key they evaluate: its Key is the
// scheme cache key itself ("sc|..."), and its Config is the seed-zeroed
// canonical form — scheme construction never reads the evaluation seed, so
// every config sharing a scheme reduces to the same wire payload. A
// coordinator leases both lists, so each unique scheme is trained exactly
// once fleet-wide; static shards split units only.
func UnitsFor(o experiments.Options, ids []string) (units, trains []Unit, err error) {
	specs, err := experiments.CachePoints(o, ids)
	if err != nil {
		return nil, nil, err
	}
	wo := wireOptions(o)
	seen := make(map[string]bool)
	for _, sp := range specs {
		wc, err := wireConfig(sp.Config)
		if err != nil {
			return nil, nil, err
		}
		u := Unit{Key: sp.Key, Opts: wo, Config: wc, Defense: sp.Defense}
		// An RL FH point names its scheme, and the first one to name it
		// adds the scheme's train unit; baseline schemes are deterministic
		// functions of the config, with nothing to train fleet-wide.
		if sp.Defense == experiments.DefenseRL {
			u.SchemeKey = experiments.SchemeKey(o, sp.Config)
			if !seen[u.SchemeKey] {
				seen[u.SchemeKey] = true
				tc := wc
				tc.Seed = 0
				trains = append(trains, Unit{Key: u.SchemeKey, Opts: wo, Config: tc, Train: true})
			}
		}
		units = append(units, u)
	}
	sort.Slice(trains, func(i, j int) bool { return trains[i].Key < trains[j].Key })
	return units, trains, nil
}

// importResult installs one completed result into cache under its
// canonical key, dispatching on the kind of its unit u: Counters into the
// point cache, a checkpoint into the scheme cache. Only a checkpoint import
// can fail (it decodes the scheme).
func importResult(cache *experiments.Cache, u Unit, r UnitResult) error {
	if u.Train {
		return cache.ImportScheme(r.Key, r.Scheme)
	}
	cache.ImportPoint(r.Key, r.Counters)
	return nil
}

// evaluate computes every point unit's result against the local cache,
// grouping units that share WireOptions into one EvaluatePoints call so
// sibling points of a shared scheme evaluate in lockstep through the batched
// inference engine. Each unit's key is recomputed from the decoded payload
// first; a mismatch (or any evaluation error) is reported per unit rather
// than failing the batch silently. The returned slice is index-aligned with
// units.
func evaluate(ctx context.Context, units []Unit, cache *experiments.Cache, workers int) []UnitResult {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	out := make([]UnitResult, len(units))
	for i, u := range units {
		out[i] = UnitResult{Key: u.Key}
	}

	// Group by wire options, preserving order inside a group.
	var order []WireOptions
	groups := make(map[WireOptions][]int)
	for i, u := range units {
		if _, ok := groups[u.Opts]; !ok {
			order = append(order, u.Opts)
		}
		groups[u.Opts] = append(groups[u.Opts], i)
	}

	for _, wo := range order {
		idxs := groups[wo]
		o := wo.options(ctx, cache, workers)
		pts := make([]experiments.Point, 0, len(idxs))
		ok := idxs[:0:0]
		for _, i := range idxs {
			cfg, err := units[i].Config.envConfig()
			if err != nil {
				out[i].Err = err.Error()
				continue
			}
			p := experiments.Point{Config: cfg, Defense: units[i].Defense}
			if got := experiments.PointKey(o, p); got != units[i].Key {
				out[i].Err = fmt.Sprintf("dist: key mismatch: coordinator sent %q, worker derives %q", units[i].Key, got)
				continue
			}
			ok = append(ok, i)
			pts = append(pts, p)
		}
		if len(ok) == 0 {
			continue
		}
		counters, err := experiments.EvaluatePoints(o, pts)
		for j, i := range ok {
			if err != nil {
				out[i].Err = err.Error()
			} else {
				out[i].Counters = counters[j]
			}
		}
	}
	return out
}
