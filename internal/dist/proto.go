// Package dist shards the expensive half of the experiment harness across
// processes: training (or solving) the RL FH schemes that the cache-backed
// sweep points play. A coordinator enumerates one train unit per unique
// scheme key of a set of experiment ids, serves them over a small HTTP/JSON
// protocol, and imports the returned CTSC checkpoints into an
// experiments.Cache. The printing process then runs the experiments against
// that cache: it evaluates every sweep point itself through the point memo,
// playing the imported schemes, so its output is bit-identical to a
// single-process run. Point evaluation and the field-simulator panels cost a
// few percent of a run and never leave that process. A static, networkless
// mode (RunShard) deals the same sorted unit list round-robin across shard
// indices and exchanges checkpoints through atomically written spool files
// instead of sockets; a merge replays the spools into a coordinator's ledger
// (Coordinator.ReplaySpools), so one set of rules decides which checkpoints
// a run accepts, whichever way they arrived.
//
// Correctness rests on two properties the rest of the repo already
// guarantees. First, a scheme is a pure function of its canonical key —
// training reads only the config, engine, budget and seed the key names, and
// the CTSC encoding is canonical — so it does not matter which process trains
// a scheme, or whether retry trains it twice. Second, work assignment is
// deterministic: units are sorted by key, shards own fixed positions of that
// list (see ShardUnits), and the coordinator hands out leases in sorted-key
// order, never arrival order. Workers verify each unit's key by recomputing
// it from the decoded payload, so codec or version drift between processes
// is an error, not a silent wrong answer.
package dist

import (
	"context"
	"fmt"
	"sort"

	"ctjam/internal/core"
	"ctjam/internal/env"
	"ctjam/internal/experiments"
	"ctjam/internal/jammer"
)

// WireConfig is the JSON form of env.Config.
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
}

// wireConfig converts an env.Config for the wire. Configs carrying live
// fault injectors are rejected: injectors have no spec back-formatter, and
// silently dropping them would change the scheme's meaning.
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

// envConfig rebuilds and validates the env.Config a WireConfig describes.
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
	if err := cfg.Validate(); err != nil {
		return env.Config{}, fmt.Errorf("dist: wire config invalid: %w", err)
	}
	return cfg, nil
}

// WireOptions pins the experiments.Options fields that feed a scheme key.
// Worker-local fields (parallelism, cache, context) and the evaluation
// length deliberately do not travel: they cannot change a scheme.
type WireOptions struct {
	Engine     int   `json:"engine"`
	TrainSlots int   `json:"train_slots"`
	Seed       int64 `json:"seed"`
}

// wireOptions extracts the wire-relevant fields of o.
func wireOptions(o experiments.Options) WireOptions {
	return WireOptions{Engine: int(o.Engine), TrainSlots: o.TrainSlots, Seed: o.Seed}
}

// options rebuilds the experiments.Options the wire fields describe.
func (w WireOptions) options() experiments.Options {
	return experiments.Options{Engine: experiments.Engine(w.Engine), TrainSlots: w.TrainSlots, Seed: w.Seed}
}

// Unit is one distributable work item: the training (or solve) of one RL
// FH scheme. Key is the scheme cache key ("sc|..."), Opts the options
// feeding it, and Config the seed-zeroed canonical config: scheme
// construction never reads the evaluation seed, so every sweep point
// sharing the scheme reduces to the same payload.
type Unit struct {
	Key    string      `json:"key"`
	Opts   WireOptions `json:"opts"`
	Config WireConfig  `json:"config"`
}

// UnitResult reports one completed unit: its CTSC checkpoint and
// fingerprint, or the error that kept a worker from producing them.
type UnitResult struct {
	Key      string `json:"key"`
	Scheme   []byte `json:"scheme,omitempty"`
	SchemeFP string `json:"scheme_fp,omitempty"`
	Err      string `json:"err,omitempty"`
}

// checkpointError reports why a result's checkpoint cannot be accepted, or
// "" when it can: it must be present, hash to the fingerprint it claims and
// decode. Neither the coordinator nor a merge trusts the claimed identity.
func checkpointError(r UnitResult) string {
	if r.Scheme == nil {
		return fmt.Sprintf("train unit %s: result missing scheme checkpoint", r.Key)
	}
	if fp := core.SchemeFingerprint(r.Scheme); fp != r.SchemeFP {
		return fmt.Sprintf("scheme %s: claimed fingerprint %s, bytes hash to %s", r.Key, r.SchemeFP, fp)
	}
	if _, err := core.DecodeScheme(r.Scheme); err != nil {
		return fmt.Sprintf("scheme %s: %v", r.Key, err)
	}
	return ""
}

// UnitsFor enumerates the distributable work of the given experiment ids
// under o: one train unit per unique RL FH scheme key among their
// cache-backed sweep points, sorted by key so every coordinator and shard
// derives the same list from the same inputs. Baseline defenses are
// deterministic functions of the config, with nothing to train.
func UnitsFor(o experiments.Options, ids []string) ([]Unit, error) {
	specs, err := experiments.CachePoints(o, ids)
	if err != nil {
		return nil, err
	}
	wo := wireOptions(o)
	seen := make(map[string]bool)
	var units []Unit
	for _, sp := range specs {
		if sp.Defense != experiments.DefenseRL {
			continue
		}
		key := experiments.SchemeKey(o, sp.Config)
		if seen[key] {
			continue
		}
		seen[key] = true
		cfg := sp.Config
		cfg.Seed = 0
		wc, err := wireConfig(cfg)
		if err != nil {
			return nil, err
		}
		units = append(units, Unit{Key: key, Opts: wo, Config: wc})
	}
	sort.Slice(units, func(i, j int) bool { return units[i].Key < units[j].Key })
	return units, nil
}

// train runs one unit against cache: it recomputes the scheme key from the
// decoded payload, refuses a mismatch, and trains the scheme (or returns the
// checkpoint cache already holds). Workers and static shards both train
// through here.
func train(ctx context.Context, cache *experiments.Cache, u Unit) UnitResult {
	cfg, err := u.Config.envConfig()
	if err != nil {
		return UnitResult{Key: u.Key, Err: err.Error()}
	}
	o := u.Opts.options()
	if got := experiments.SchemeKey(o, cfg); got != u.Key {
		return UnitResult{Key: u.Key, Err: fmt.Sprintf(
			"dist: key mismatch: coordinator sent %q, worker derives %q", u.Key, got)}
	}
	_, blob, err := cache.TrainScheme(ctx, o, cfg)
	if err != nil {
		return UnitResult{Key: u.Key, Err: err.Error()}
	}
	return UnitResult{Key: u.Key, Scheme: blob, SchemeFP: core.SchemeFingerprint(blob)}
}
