package dist

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"ctjam/internal/atomicfile"
	"ctjam/internal/core"
	"ctjam/internal/experiments"
)

// Spool is the on-disk exchange format of static (networkless) sharding: one
// shard's results, tagged with its place in the shard set so a merge can
// verify it is combining a complete, consistent partition. Schemes carries
// the checkpoints of every scheme the shard trained, so a merge can account
// for fleet-wide training work (and reuse the schemes) without retraining.
type Spool struct {
	Shard   int           `json:"shard"`
	Shards  int           `json:"shards"`
	Results []UnitResult  `json:"results"`
	Schemes []SpoolScheme `json:"schemes,omitempty"`
}

// SpoolScheme is one persisted scheme checkpoint: its canonical cache key,
// the CTSC bytes, and their fingerprint (recomputed and verified on merge,
// so a corrupted spool cannot install a wrong scheme under a healthy key).
type SpoolScheme struct {
	Key         string `json:"key"`
	Fingerprint string `json:"fingerprint"`
	Data        []byte `json:"data"`
}

// SpoolName is the canonical spool filename of one shard, used by the
// ctjam-experiments -shards mode so the merge step can glob a directory.
func SpoolName(shard, shards int) string {
	return fmt.Sprintf("shard-%03d-of-%03d.json", shard, shards)
}

// ShardUnits returns the slice of units shard index owns under a static
// round-robin partition of the sorted unit list: unit i belongs to shard
// i%shards. Every process derives the same partition from the same
// (Options, ids) inputs — no coordination needed.
func ShardUnits(units []Unit, shard, shards int) ([]Unit, error) {
	if shards <= 0 {
		return nil, fmt.Errorf("dist: shards must be positive, got %d", shards)
	}
	if shard < 0 || shard >= shards {
		return nil, fmt.Errorf("dist: shard index %d out of range [0,%d)", shard, shards)
	}
	var out []Unit
	for i := shard; i < len(units); i += shards {
		out = append(out, units[i])
	}
	return out, nil
}

// RunShard evaluates shard index's slice of the work list for (o, ids) and
// writes the spool file to path atomically. Any unit that fails to evaluate
// fails the shard: a spool on disk means every result in it is good.
func RunShard(ctx context.Context, o experiments.Options, ids []string, shard, shards int, path string) (int, error) {
	units, err := UnitsFor(o, ids)
	if err != nil {
		return 0, err
	}
	mine, err := ShardUnits(units, shard, shards)
	if err != nil {
		return 0, err
	}
	cache := experiments.NewCache()
	results := evaluate(ctx, mine, cache, o.Workers)
	for _, r := range results {
		if r.Err != "" {
			return 0, fmt.Errorf("dist: shard %d/%d: unit %s: %s", shard, shards, r.Key, r.Err)
		}
	}
	sp := Spool{Shard: shard, Shards: shards, Results: results}
	for _, sb := range cache.ExportSchemes() {
		sp.Schemes = append(sp.Schemes, SpoolScheme{
			Key:         sb.Key,
			Fingerprint: core.SchemeFingerprint(sb.Data),
			Data:        sb.Data,
		})
	}
	err = atomicfile.WriteFile(path, 0o644, func(w io.Writer) error {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(sp)
	})
	if err != nil {
		return 0, err
	}
	return len(results), nil
}

// MergeSpools reads the spool files of one complete shard set from dir and
// imports every result into cache. It verifies the set is consistent (all
// spools agree on the shard count), complete (every index 0..shards-1
// present exactly once), and covers every expected unit key exactly once.
func MergeSpools(dir string, cache *experiments.Cache, units []Unit) (int, error) {
	matches, err := filepath.Glob(filepath.Join(dir, "shard-*-of-*.json"))
	if err != nil {
		return 0, err
	}
	if len(matches) == 0 {
		return 0, fmt.Errorf("dist: no spool files in %s", dir)
	}
	shards, firstPath := 0, ""
	seen := make(map[int]string)
	imported := make(map[string]bool)
	schemeFPs := make(map[string]string)
	for _, path := range matches {
		data, err := os.ReadFile(path)
		if err != nil {
			return 0, err
		}
		var sp Spool
		if err := json.Unmarshal(data, &sp); err != nil {
			return 0, fmt.Errorf("dist: %s: %w", path, err)
		}
		if shards == 0 {
			shards, firstPath = sp.Shards, path
		}
		if sp.Shards != shards {
			return 0, fmt.Errorf("dist: %s declares %d shards, %s declared %d",
				path, sp.Shards, firstPath, shards)
		}
		if prev, dup := seen[sp.Shard]; dup {
			return 0, fmt.Errorf("dist: shard %d appears in both %s and %s", sp.Shard, prev, path)
		}
		if sp.Shard < 0 || sp.Shard >= shards {
			return 0, fmt.Errorf("dist: %s: shard index %d out of range [0,%d)", path, sp.Shard, shards)
		}
		seen[sp.Shard] = path
		for _, s := range sp.Schemes {
			if fp := core.SchemeFingerprint(s.Data); fp != s.Fingerprint {
				return 0, fmt.Errorf("dist: %s: scheme %s: declared fingerprint %s, bytes hash to %s",
					path, s.Key, s.Fingerprint, fp)
			}
			if prev, dup := schemeFPs[s.Key]; dup && prev != s.Fingerprint {
				return 0, fmt.Errorf("dist: %s: scheme %s conflicts with another shard's checkpoint", path, s.Key)
			}
			schemeFPs[s.Key] = s.Fingerprint
			if err := cache.ImportScheme(s.Key, s.Data); err != nil {
				return 0, fmt.Errorf("dist: %s: scheme %s: %w", path, s.Key, err)
			}
		}
		for _, r := range sp.Results {
			if r.Err != "" {
				return 0, fmt.Errorf("dist: %s: unit %s carries error: %s", path, r.Key, r.Err)
			}
			if imported[r.Key] {
				return 0, fmt.Errorf("dist: %s: unit %s already imported from another shard", path, r.Key)
			}
			imported[r.Key] = true
			importResult(cache, r)
		}
	}
	if len(seen) != shards {
		missing := make([]int, 0)
		for i := 0; i < shards; i++ {
			if _, ok := seen[i]; !ok {
				missing = append(missing, i)
			}
		}
		return 0, fmt.Errorf("dist: incomplete shard set in %s: missing %v of %d", dir, missing, shards)
	}
	for _, u := range units {
		if !imported[u.Key] {
			return 0, fmt.Errorf("dist: merged spools are missing unit %s", u.Key)
		}
	}
	return len(imported), nil
}
