package experiments

import (
	"sort"

	"ctjam/internal/env"
)

// Point is one cache-backed unit of sweep evaluation: an environment (which
// carries the attacker via Config.Jammer) plus the defense scheme driving the
// victim. An empty Defense selects the engine-backed "RL FH" scheme — the
// only defense that trains; the named baselines (see Defenses) are built
// deterministically from the config alone.
type Point struct {
	// Config is the environment configuration the point evaluates.
	Config env.Config
	// Defense selects the victim's scheme: "" for the engine-selected RL
	// FH, or one of the baseline tags "psv", "rand", "static".
	Defense string
}

// Defense tags for Point.Defense (and FieldSpec.Defense).
const (
	DefenseRL      = "" // engine-selected RL FH (MDP or DQN)
	DefensePassive = "psv"
	DefenseRandom  = "rand"
	DefenseStatic  = "static"
)

// PointSpec identifies one unique cache-backed sweep point: the point it
// evaluates plus the canonical cache key binding it to one Options budget.
// Distributed execution derives its train units from the RL FH specs (see
// internal/dist).
type PointSpec struct {
	// Key is the canonical point fingerprint — the Cache memoization key.
	// It covers the point and every Options field that feeds it, so equal
	// keys mean bit-identical results.
	Key string
	// Config is the environment configuration the point evaluates.
	Config env.Config
	// Defense is the point's defense scheme tag ("" = engine RL FH).
	Defense string
}

// CachePoints enumerates the unique cache-backed sweep points the given
// experiment ids evaluate under o, sorted by Key. With the full id set this
// is the "-id all" work list: 115 unique points backing the 20 Figs. 6-8
// metric panels plus Table I (which coincides with the L_J=100 /
// lower-bound-6 sweep points and deduplicates against them), its
// seed-replicated variant table1-seeds, and the jammer-zoo matchup grid
// (whose RL-vs-sweeper cell deduplicates against the default-config point).
// Ids whose compute is not cache-backed (fig2b, fig9-10, field, stealth,
// train) contribute nothing; unknown ids return ErrUnknownExperiment.
//
// The sorted order makes the list, and the train units derived from it,
// identical in every process given identical (Options, ids) inputs,
// independent of registration order.
func CachePoints(o Options, ids []string) ([]PointSpec, error) {
	o = o.withFloor()
	seen := make(map[string]bool)
	var out []PointSpec
	for _, id := range ids {
		e, err := lookup(id)
		if err != nil {
			return nil, err
		}
		if e.points == nil {
			continue
		}
		for _, p := range e.points(o) {
			k := pointKey(o, p)
			if seen[k] {
				continue
			}
			seen[k] = true
			out = append(out, PointSpec{Key: k, Config: p.Config, Defense: p.Defense})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out, nil
}

// asPoints wraps bare environment configs as RL FH points — the defense every
// pre-matchup experiment evaluates.
func asPoints(cfgs []env.Config) []Point {
	pts := make([]Point, len(cfgs))
	for i, cfg := range cfgs {
		pts[i] = Point{Config: cfg}
	}
	return pts
}
