// Package dist shards the cache-backed compute of the experiment harness
// across processes: a coordinator enumerates the unique work units of a set
// of experiment ids — sweep points (experiments.CachePoints) and whole
// field-simulator replica runs (experiments.CacheFieldSpecs) — serves them
// over a small HTTP/JSON protocol, and merges the returned Counters and
// RunStats back into an experiments.Cache, after which the experiments
// themselves run entirely from cache — producing output bit-identical to a
// single-process run. A static, networkless mode (RunShard / MergeSpools)
// partitions the same sorted unit list round-robin across shard indices and
// exchanges results through atomically written spool files instead of
// sockets.
//
// Correctness rests on two properties the rest of the repo already
// guarantees. First, every point result is a pure function of its canonical
// key — configs carry explicit seeds, fault streams are counter-based, and
// evaluation is bit-identical at any batch size or worker count — so it does
// not matter which process computes a point, or whether retry computes it
// twice. Second, work assignment is deterministic: units are the sorted
// CachePoints list, shards own fixed round-robin slices of it, and the
// coordinator hands out leases in sorted-key order, never arrival order.
// Workers verify each unit's key by recomputing it from the decoded payload,
// so codec or version drift between processes is an error, not a silent
// wrong answer.
package dist

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"time"

	"ctjam/internal/core"
	"ctjam/internal/env"
	"ctjam/internal/experiments"
	"ctjam/internal/fault"
	"ctjam/internal/iot"
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
	Fast32     bool  `json:"fast32,omitempty"`
	TrainSlots int   `json:"train_slots"`
	Seed       int64 `json:"seed"`
	Slots      int   `json:"slots"`
}

// wireOptions extracts the wire-relevant fields of o.
func wireOptions(o experiments.Options) WireOptions {
	return WireOptions{
		Engine:     int(o.Engine),
		Fast32:     o.Fast32,
		TrainSlots: o.TrainSlots,
		Seed:       o.Seed,
		Slots:      o.Slots,
	}
}

// options rebuilds worker-side experiments.Options around the wire fields.
func (w WireOptions) options(ctx context.Context, cache *experiments.Cache, workers int) experiments.Options {
	return experiments.Options{
		Engine:     experiments.Engine(w.Engine),
		Fast32:     w.Fast32,
		TrainSlots: w.TrainSlots,
		Seed:       w.Seed,
		Slots:      w.Slots,
		Workers:    workers,
		Cache:      cache,
		Context:    ctx,
	}
}

// WireFieldSpec is the JSON form of experiments.FieldSpec: one whole
// field-simulator run (possibly a multi-cluster engine replica) as a
// distributable unit. Durations travel as nanoseconds.
type WireFieldSpec struct {
	Scheme       string `json:"scheme"`
	Jammer       bool   `json:"jammer"`
	Clusters     int    `json:"clusters"`
	Nodes        int    `json:"nodes"`
	SlotDuration int64  `json:"slot_duration_ns"`
	JammerSlot   int64  `json:"jammer_slot_ns"`
	Seed         int64  `json:"seed"`
	Slots        int    `json:"slots"`
}

// wireFieldSpec converts an experiments.FieldSpec for the wire.
func wireFieldSpec(s experiments.FieldSpec) WireFieldSpec {
	return WireFieldSpec{
		Scheme:       s.Scheme,
		Jammer:       s.Jammer,
		Clusters:     s.Clusters,
		Nodes:        s.Nodes,
		SlotDuration: int64(s.SlotDuration),
		JammerSlot:   int64(s.JammerSlot),
		Seed:         s.Seed,
		Slots:        s.Slots,
	}
}

// fieldSpec rebuilds the experiments.FieldSpec a WireFieldSpec describes.
func (s WireFieldSpec) fieldSpec() (experiments.FieldSpec, error) {
	spec := experiments.FieldSpec{
		Scheme:       s.Scheme,
		Jammer:       s.Jammer,
		Clusters:     s.Clusters,
		Nodes:        s.Nodes,
		SlotDuration: time.Duration(s.SlotDuration),
		JammerSlot:   time.Duration(s.JammerSlot),
		Seed:         s.Seed,
		Slots:        s.Slots,
	}
	if err := spec.Validate(); err != nil {
		return experiments.FieldSpec{}, fmt.Errorf("dist: wire field spec invalid: %w", err)
	}
	return spec, nil
}

// WireRunStats is the JSON form of iot.RunStats, the result payload of a
// field unit. MeanOverhead travels as nanoseconds.
type WireRunStats struct {
	Slots              int              `json:"slots"`
	Attempted          int              `json:"attempted"`
	Delivered          int              `json:"delivered"`
	FrameLosses        int              `json:"frame_losses,omitempty"`
	GoodputPktsPerSlot float64          `json:"goodput_pkts_per_slot"`
	MeanUtilization    float64          `json:"mean_utilization"`
	MeanOverhead       int64            `json:"mean_overhead_ns"`
	Counters           metrics.Counters `json:"counters"`
}

// wireRunStats converts an iot.RunStats for the wire.
func wireRunStats(r iot.RunStats) WireRunStats {
	return WireRunStats{
		Slots:              r.Slots,
		Attempted:          r.Attempted,
		Delivered:          r.Delivered,
		FrameLosses:        r.FrameLosses,
		GoodputPktsPerSlot: r.GoodputPktsPerSlot,
		MeanUtilization:    r.MeanUtilization,
		MeanOverhead:       int64(r.MeanOverhead),
		Counters:           r.Counters,
	}
}

// runStats rebuilds the iot.RunStats a WireRunStats describes.
func (r WireRunStats) runStats() iot.RunStats {
	return iot.RunStats{
		Slots:              r.Slots,
		Attempted:          r.Attempted,
		Delivered:          r.Delivered,
		FrameLosses:        r.FrameLosses,
		GoodputPktsPerSlot: r.GoodputPktsPerSlot,
		MeanUtilization:    r.MeanUtilization,
		MeanOverhead:       time.Duration(r.MeanOverhead),
		Counters:           r.Counters,
	}
}

// Unit is one distributable work item: a sweep point (Config set), a whole
// field-simulator replica run (Field set), or a scheme training (Config set,
// Train true), plus the options pinning its cache key and the coordinator's
// canonical key for it. Exactly one of Config/Field is meaningful; field
// units are recognizable by Field != nil, train units by Train.
type Unit struct {
	Key    string         `json:"key"`
	Opts   WireOptions    `json:"opts"`
	Config WireConfig     `json:"config,omitempty"`
	Field  *WireFieldSpec `json:"field,omitempty"`

	// Defense is the point's defense scheme tag (experiments.Point.Defense):
	// "" for the engine-selected RL FH, or a deterministic baseline tag.
	// Baseline points carry no SchemeKey — their schemes are rebuilt from the
	// config alone on whatever worker evaluates them.
	Defense string `json:"defense,omitempty"`

	// Train marks a scheme-training unit: the worker trains/solves the
	// scheme the seed-zeroed Config selects under Opts and reports its CTSC
	// checkpoint as the unit's result instead of evaluating anything.
	Train bool `json:"train,omitempty"`
	// SchemeKey, on RL FH point and field units, is the canonical key of
	// the scheme the unit plays — the Key of its train unit. Such units are
	// only dispatched once that train unit is done.
	SchemeKey string `json:"scheme_key,omitempty"`
	// Scheme and SchemeFP carry the resolved checkpoint and its fingerprint
	// inline in every dispatched unit that has a SchemeKey, so the worker
	// verifies and installs the fleet-trained scheme instead of training.
	Scheme   []byte `json:"scheme,omitempty"`
	SchemeFP string `json:"scheme_fp,omitempty"`
}

// kind names the unit's kind: "train", "field" or "point".
func (u Unit) kind() string {
	switch {
	case u.Train:
		return "train"
	case u.Field != nil:
		return "field"
	}
	return "point"
}

// UnitResult reports one completed unit: its Counters (sweep points), its
// RunStats (field units) or its CTSC checkpoint and fingerprint (train
// units), or the error that kept a worker from producing them.
type UnitResult struct {
	Key      string           `json:"key"`
	Counters metrics.Counters `json:"counters"`
	Field    *WireRunStats    `json:"field,omitempty"`
	Scheme   []byte           `json:"scheme,omitempty"`
	SchemeFP string           `json:"scheme_fp,omitempty"`
	Err      string           `json:"err,omitempty"`
}

// payloadError reports why r's payload does not fit the kind of u, or ""
// when it does: a point result carries neither field stats nor a scheme
// checkpoint, a field result field stats only, a train result a checkpoint
// only.
func payloadError(u Unit, r UnitResult) string {
	switch {
	case u.Field != nil && r.Field == nil:
		return fmt.Sprintf("field unit %s: result missing field stats", r.Key)
	case u.Train && r.Scheme == nil:
		return fmt.Sprintf("train unit %s: result missing scheme checkpoint", r.Key)
	case u.Field == nil && r.Field != nil:
		return fmt.Sprintf("%s unit %s: result carries field stats", u.kind(), r.Key)
	case !u.Train && r.Scheme != nil:
		return fmt.Sprintf("%s unit %s: result carries a scheme checkpoint", u.kind(), r.Key)
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

// UnitsFor enumerates the distributable work units of the given experiment
// ids under o — the cache-backed sweep points plus the field-simulator
// replica runs — sorted by key: the shared, deterministic work list every
// coordinator and shard derives identically from identical inputs. The
// "pt|" / "fd|" key prefixes keep the two unit kinds from ever colliding.
func UnitsFor(o experiments.Options, ids []string) ([]Unit, error) {
	specs, err := experiments.CachePoints(o, ids)
	if err != nil {
		return nil, err
	}
	fields, err := experiments.CacheFieldSpecs(o, ids)
	if err != nil {
		return nil, err
	}
	wo := wireOptions(o)
	units := make([]Unit, 0, len(specs)+len(fields))
	for _, sp := range specs {
		wc, err := wireConfig(sp.Config)
		if err != nil {
			return nil, err
		}
		u := Unit{
			Key:     sp.Key,
			Opts:    wo,
			Config:  wc,
			Defense: sp.Defense,
		}
		if sp.Defense == experiments.DefenseRL {
			u.SchemeKey = experiments.SchemeKey(o, sp.Config)
		}
		units = append(units, u)
	}
	for _, fs := range fields {
		ws := wireFieldSpec(fs.Spec)
		u := Unit{Key: fs.Key, Opts: wo, Field: &ws}
		if p := fs.Spec.Point(); p.Defense == experiments.DefenseRL {
			u.SchemeKey = experiments.SchemeKey(o, p.Config)
		}
		units = append(units, u)
	}
	sort.Slice(units, func(i, j int) bool { return units[i].Key < units[j].Key })
	return units, nil
}

// importResult installs one completed result into cache under its
// canonical key, dispatching on the kind of its unit u: Counters into the
// point cache, field stats into the field-run cache, a checkpoint into the
// scheme cache. Only a checkpoint import can fail (it decodes the scheme).
func importResult(cache *experiments.Cache, u Unit, r UnitResult) error {
	switch u.kind() {
	case "train":
		return cache.ImportScheme(r.Key, r.Scheme)
	case "field":
		cache.ImportFieldRun(r.Key, r.Field.runStats())
	default:
		cache.ImportPoint(r.Key, r.Counters)
	}
	return nil
}

// TrainUnitsFor enumerates one train unit per unique RL FH scheme key of the
// given experiment ids' points and field runs under o, sorted by key. The unit's Key is the scheme cache
// key itself ("sc|..."), and its Config is the seed-zeroed canonical form:
// scheme construction never reads the evaluation seed, so every point config
// sharing a scheme reduces to the same wire payload and every process derives
// an identical train list. Coordinators append these to the work list so each
// unique scheme is trained exactly once fleet-wide.
func TrainUnitsFor(o experiments.Options, ids []string) ([]Unit, error) {
	specs, err := experiments.CachePoints(o, ids)
	if err != nil {
		return nil, err
	}
	fields, err := experiments.CacheFieldSpecs(o, ids)
	if err != nil {
		return nil, err
	}
	var pts []experiments.Point
	for _, sp := range specs {
		pts = append(pts, experiments.Point{Config: sp.Config, Defense: sp.Defense})
	}
	for _, fs := range fields {
		pts = append(pts, fs.Spec.Point())
	}
	wo := wireOptions(o)
	seen := make(map[string]bool, len(pts))
	var units []Unit
	for _, p := range pts {
		if p.Defense != experiments.DefenseRL {
			// Baseline schemes are deterministic functions of the config;
			// nothing to train fleet-wide.
			continue
		}
		key := experiments.SchemeKey(o, p.Config)
		if seen[key] {
			continue
		}
		seen[key] = true
		cfg := p.Config
		cfg.Seed = 0
		wc, err := wireConfig(cfg)
		if err != nil {
			return nil, err
		}
		units = append(units, Unit{Key: key, Opts: wo, Config: wc, Train: true})
	}
	sort.Slice(units, func(i, j int) bool { return units[i].Key < units[j].Key })
	return units, nil
}

// evaluate computes every unit's result against the local cache, grouping
// units that share WireOptions into one EvaluatePoints / EvaluateFieldSpecs
// call so sibling points of a shared scheme evaluate in lockstep through the
// batched inference engine (and field runs fan out together). Each unit's
// key is recomputed from the decoded payload first; a mismatch (or any
// evaluation error) is reported per unit rather than failing the batch
// silently. The returned slice is index-aligned with units.
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
		specs := make([]experiments.FieldSpec, 0, len(idxs))
		okPts := idxs[:0:0]
		okFds := idxs[:0:0]
		for _, i := range idxs {
			if f := units[i].Field; f != nil {
				spec, err := f.fieldSpec()
				if err != nil {
					out[i].Err = err.Error()
					continue
				}
				if got := experiments.FieldKey(o, spec); got != units[i].Key {
					out[i].Err = fmt.Sprintf("dist: key mismatch: coordinator sent %q, worker derives %q", units[i].Key, got)
					continue
				}
				okFds = append(okFds, i)
				specs = append(specs, spec)
				continue
			}
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
			okPts = append(okPts, i)
			pts = append(pts, p)
		}
		if len(okPts) > 0 {
			counters, err := experiments.EvaluatePoints(o, pts)
			if err != nil {
				for _, i := range okPts {
					out[i].Err = err.Error()
				}
			} else {
				for j, i := range okPts {
					out[i].Counters = counters[j]
				}
			}
		}
		if len(okFds) > 0 {
			runs, err := experiments.EvaluateFieldSpecs(o, specs)
			if err != nil {
				for _, i := range okFds {
					out[i].Err = err.Error()
				}
			} else {
				for j, i := range okFds {
					wr := wireRunStats(runs[j])
					out[i].Field = &wr
				}
			}
		}
	}
	return out
}
