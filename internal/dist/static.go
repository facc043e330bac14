package dist

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"ctjam/internal/atomicfile"
	"ctjam/internal/experiments"
	"ctjam/internal/parallel"
)

// Spool is the on-disk exchange format of static (networkless) sharding: one
// shard's results — scheme key, CTSC bytes and fingerprint per unit it owns
// — tagged with its place in the shard set so a merge can verify it is
// combining a complete, consistent partition.
type Spool struct {
	Shard   int          `json:"shard"`
	Shards  int          `json:"shards"`
	Results []UnitResult `json:"results"`
}

// SpoolName is the canonical spool filename of one shard, used by the
// ctjam-experiments -shards mode so the merge step can glob a directory.
func SpoolName(shard, shards int) string {
	return fmt.Sprintf("shard-%03d-of-%03d.json", shard, shards)
}

// ShardUnits returns the units shard index owns under a static partition of
// the sorted unit list: unit i goes to shard i%shards. Every unit is a
// distinct scheme, so exactly one shard trains each scheme, and every
// process derives the same partition from the same (Options, ids) inputs —
// no coordination needed.
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

// RunShard trains shard index's slice of the work list for (o, ids) over
// o.Workers goroutines and writes the spool file to path atomically. Any
// unit that fails fails the shard: a spool on disk means every result in it
// is good.
func RunShard(ctx context.Context, o experiments.Options, ids []string, shard, shards int, path string) (int, error) {
	units, err := UnitsFor(o, ids)
	if err != nil {
		return 0, err
	}
	mine, err := ShardUnits(units, shard, shards)
	if err != nil {
		return 0, err
	}
	results, err := trainAll(ctx, o.Workers, mine)
	if err != nil {
		return 0, fmt.Errorf("dist: shard %d/%d: %w", shard, shards, err)
	}
	sp := Spool{Shard: shard, Shards: shards, Results: results}
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

// trainAll trains units over workers goroutines against one cache, the
// shard path's counterpart of a worker's poll loop, and fails on the first
// unit that fails.
func trainAll(ctx context.Context, workers int, units []Unit) ([]UnitResult, error) {
	cache := experiments.NewCache()
	return parallel.Map(workers, len(units), func(i int) (UnitResult, error) {
		r := train(ctx, cache, units[i])
		if r.Err != "" {
			return r, fmt.Errorf("unit %s: %s", r.Key, r.Err)
		}
		return r, nil
	})
}

// ReplaySpools fills the ledger from the spool files of one complete shard
// set in dir: a merge is a coordinator that starts on every result and has
// nothing left to lease. Each result goes through record, the rules a
// POST /v1/result meets, so the merge keeps only the checks on the shard
// set itself: spools exist, agree on the shard count and hold every index
// 0..shards-1 exactly once, and no result carries an error. As with a
// retried lease, a unit's checkpoint may arrive more than once, with
// identical bytes. Call it on a fresh coordinator, then ImportInto.
func (c *Coordinator) ReplaySpools(dir string) error {
	matches, err := filepath.Glob(filepath.Join(dir, "shard-*-of-*.json"))
	if err != nil {
		return err
	}
	if len(matches) == 0 {
		return fmt.Errorf("dist: no spool files in %s", dir)
	}
	shards, firstPath := 0, ""
	seen := make(map[int]string)
	for _, path := range matches {
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		var sp Spool
		if err := json.Unmarshal(data, &sp); err != nil {
			return fmt.Errorf("dist: %s: %w", path, err)
		}
		if shards == 0 {
			shards, firstPath = sp.Shards, path
		}
		if sp.Shards != shards {
			return fmt.Errorf("dist: %s declares %d shards, %s declared %d",
				path, sp.Shards, firstPath, shards)
		}
		if prev, dup := seen[sp.Shard]; dup {
			return fmt.Errorf("dist: shard %d appears in both %s and %s", sp.Shard, prev, path)
		}
		if sp.Shard < 0 || sp.Shard >= shards {
			return fmt.Errorf("dist: %s: shard index %d out of range [0,%d)", path, sp.Shard, shards)
		}
		seen[sp.Shard] = path
		for _, r := range sp.Results {
			if err := c.replay(r); err != nil {
				return fmt.Errorf("dist: %s: %w", path, err)
			}
		}
	}
	if len(seen) != shards {
		missing := make([]int, 0)
		for i := 0; i < shards; i++ {
			if _, ok := seen[i]; !ok {
				missing = append(missing, i)
			}
		}
		return fmt.Errorf("dist: incomplete shard set in %s: missing %v of %d", dir, missing, shards)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, k := range c.order {
		if !c.states[k].done {
			return fmt.Errorf("dist: merged spools are missing unit %s", k)
		}
	}
	return nil
}

// replay records one spool result and says why record refused it, if it
// did.
func (c *Coordinator) replay(r UnitResult) error {
	if r.Err != "" {
		return fmt.Errorf("unit %s carries error: %s", r.Key, r.Err)
	}
	if _, rejected := c.record([]UnitResult{r}); len(rejected) == 0 {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	st := c.states[r.Key]
	switch {
	case st == nil:
		return fmt.Errorf("unit %s is not in the work list", r.Key)
	case st.done:
		return fmt.Errorf("scheme %s conflicts with another shard's checkpoint", r.Key)
	}
	return errors.New(strings.TrimPrefix(st.lastErr, "dist: "))
}
