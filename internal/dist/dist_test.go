package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"ctjam/internal/core"
	"ctjam/internal/env"
	"ctjam/internal/experiments"
	"ctjam/internal/fault"
	"ctjam/internal/metrics"
)

func TestShardUnitsPartition(t *testing.T) {
	o := testOptions()
	units, _, err := UnitsFor(o, []string{"fig6a", "fig6d"})
	if err != nil {
		t.Fatal(err)
	}
	for _, shards := range []int{1, 3, 7, len(units) + 5} {
		seen := make(map[string]int)
		for s := 0; s < shards; s++ {
			mine, err := ShardUnits(units, s, shards)
			if err != nil {
				t.Fatal(err)
			}
			for _, u := range mine {
				seen[u.Key]++
			}
		}
		if len(seen) != len(units) {
			t.Errorf("shards=%d covered %d unique units, want %d", shards, len(seen), len(units))
		}
		for k, n := range seen {
			if n != 1 {
				t.Errorf("shards=%d: unit %s assigned %d times", shards, k, n)
			}
		}
	}
	if _, err := ShardUnits(units, 0, 0); err == nil {
		t.Error("ShardUnits accepted zero shard count")
	}
	if _, err := ShardUnits(units, 2, 2); err == nil {
		t.Error("ShardUnits accepted out-of-range index")
	}
	if _, err := ShardUnits(units, -1, 2); err == nil {
		t.Error("ShardUnits accepted negative index")
	}
}

// TestShardUnitsKeepSchemesTogether checks the static partition of the
// full work list: every unit lands in exactly one shard, and all units of
// one SchemeKey land in the same shard, so no scheme is trained twice.
func TestShardUnitsKeepSchemesTogether(t *testing.T) {
	units, _, err := UnitsFor(testOptions(), experiments.IDs())
	if err != nil {
		t.Fatal(err)
	}
	for _, shards := range []int{2, 3, 5} {
		shardOf := make(map[string]int)
		schemeShard := make(map[string]int)
		for s := 0; s < shards; s++ {
			mine, err := ShardUnits(units, s, shards)
			if err != nil {
				t.Fatal(err)
			}
			for _, u := range mine {
				if prev, dup := shardOf[u.Key]; dup {
					t.Errorf("shards=%d: unit %s in shards %d and %d", shards, u.Key, prev, s)
				}
				shardOf[u.Key] = s
				if u.SchemeKey == "" {
					continue
				}
				if prev, ok := schemeShard[u.SchemeKey]; ok && prev != s {
					t.Errorf("shards=%d: scheme %s split across shards %d and %d", shards, u.SchemeKey, prev, s)
				}
				schemeShard[u.SchemeKey] = s
			}
		}
		if len(shardOf) != len(units) {
			t.Errorf("shards=%d covered %d of %d units", shards, len(shardOf), len(units))
		}
	}
}

func TestWireConfigRoundTrip(t *testing.T) {
	cfg := env.DefaultConfig()
	cfg.Seed = 42
	wc, err := wireConfig(cfg)
	if err != nil {
		t.Fatal(err)
	}
	got, err := wc.envConfig()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, cfg) {
		t.Errorf("round trip drifted:\ngot  %+v\nwant %+v", got, cfg)
	}
}

func TestWireConfigRejectsInjector(t *testing.T) {
	inj, err := fault.Parse("burst:p=0.1", 1)
	if err != nil {
		t.Fatal(err)
	}
	cfg := env.DefaultConfig()
	cfg.Faults = inj
	if _, err := wireConfig(cfg); err == nil {
		t.Error("wireConfig accepted a config with a live fault injector")
	}
}

func TestWireConfigFaultSpecDecode(t *testing.T) {
	cfg := env.DefaultConfig()
	wc, err := wireConfig(cfg)
	if err != nil {
		t.Fatal(err)
	}
	wc.FaultSpec = "burst:p=0.1"
	got, err := wc.envConfig()
	if err != nil {
		t.Fatal(err)
	}
	if got.Faults == nil {
		t.Error("fault spec did not decode into an injector")
	}
	wc.FaultSpec = "no-such-fault:p=1"
	if _, err := wc.envConfig(); err == nil {
		t.Error("bad fault spec decoded without error")
	}
}

func TestEvaluateKeyMismatch(t *testing.T) {
	o := testOptions()
	units, _, err := UnitsFor(o, []string{"table1"})
	if err != nil {
		t.Fatal(err)
	}
	if len(units) < 2 {
		t.Fatalf("table1 yielded %d units, want 2", len(units))
	}
	units[0].Key = "tampered"
	results := evaluate(context.Background(), units, experiments.NewCache(), 1)
	if !strings.Contains(results[0].Err, "key mismatch") {
		t.Errorf("tampered unit: Err = %q, want key mismatch", results[0].Err)
	}
	if results[1].Err != "" {
		t.Errorf("healthy sibling failed too: %q", results[1].Err)
	}
}

// writeSpool writes one spool file for merge-error tests.
func writeSpool(t *testing.T, dir string, sp Spool) {
	t.Helper()
	data, err := json.MarshalIndent(sp, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, SpoolName(sp.Shard, sp.Shards))
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// merge replays the spools in dir into a ledger of units, as -merge does,
// and imports the ledger into cache.
func merge(dir string, cache *experiments.Cache, units ...Unit) (int, error) {
	coord := newCoordinator(units, CoordinatorOptions{})
	if err := coord.ReplaySpools(dir); err != nil {
		return 0, err
	}
	return coord.ImportInto(cache), nil
}

func TestMergeSpoolsErrors(t *testing.T) {
	res := func(keys ...string) []UnitResult {
		out := make([]UnitResult, len(keys))
		for i, k := range keys {
			out[i] = UnitResult{Key: k, Counters: metrics.Counters{Slots: 1}}
		}
		return out
	}
	cases := []struct {
		name   string
		spools []Spool
		want   string
	}{
		{"empty dir", nil, "no spool files"},
		{"missing shard", []Spool{{Shard: 0, Shards: 2, Results: res("a")}}, "incomplete shard set"},
		{"inconsistent counts", []Spool{
			{Shard: 0, Shards: 2, Results: res("a")},
			{Shard: 1, Shards: 3, Results: res("b")},
		}, "declares 3 shards"},
		{"index out of range", []Spool{{Shard: 5, Shards: 1, Results: res("a", "b")}}, "out of range"},
		{"result with error", []Spool{{Shard: 0, Shards: 1, Results: []UnitResult{{Key: "a", Err: "boom"}}}}, "carries error"},
		{"duplicate unit", []Spool{
			{Shard: 0, Shards: 2, Results: res("a")},
			{Shard: 1, Shards: 2, Results: res("a")},
		}, "already imported"},
		{"missing unit", []Spool{{Shard: 0, Shards: 1, Results: res("a")}}, "missing unit b"},
		{"unknown unit", []Spool{{Shard: 0, Shards: 1, Results: res("a", "b", "c")}}, "not in the work list"},
		{"wrong payload kind", []Spool{{Shard: 0, Shards: 1, Results: append(res("a"),
			schemeResult("b", []byte("checkpoint")))}}, "point unit b: result carries a scheme checkpoint"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			for _, sp := range tc.spools {
				writeSpool(t, dir, sp)
			}
			_, err := merge(dir, experiments.NewCache(), Unit{Key: "a"}, Unit{Key: "b"})
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("err = %v, want substring %q", err, tc.want)
			}
		})
	}
}

// TestMergeSpoolsMissingCheckpoint drops one scheme checkpoint from a real
// spool: the merge must refuse the set and name that scheme's train unit,
// as a coordinator would never finish a run with a train unit open.
func TestMergeSpoolsMissingCheckpoint(t *testing.T) {
	o := testOptions()
	ids := []string{"table1"}
	dir := t.TempDir()
	path := filepath.Join(dir, SpoolName(0, 1))
	if _, err := RunShard(context.Background(), o, ids, 0, 1, path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var sp Spool
	if err := json.Unmarshal(data, &sp); err != nil {
		t.Fatal(err)
	}
	dropped := ""
	kept := sp.Results[:0]
	for _, r := range sp.Results {
		if r.Scheme != nil && dropped == "" {
			dropped = r.Key
			continue
		}
		kept = append(kept, r)
	}
	if dropped == "" {
		t.Fatal("table1 spool holds no scheme checkpoint")
	}
	sp.Results = kept
	writeSpool(t, dir, sp)
	coord, err := NewCoordinator(o, ids, CoordinatorOptions{})
	if err != nil {
		t.Fatal(err)
	}
	err = coord.ReplaySpools(dir)
	if err == nil || !strings.Contains(err.Error(), "missing unit "+dropped) {
		t.Errorf("err = %v, want the missing train unit %s named", err, dropped)
	}
}

func TestCoordinatorNoUnits(t *testing.T) {
	// fig2b is not cache-backed: the run completes with nothing to do.
	coord, err := NewCoordinator(testOptions(), []string{"fig2b"}, CoordinatorOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	if err := coord.Wait(ctx); err != nil {
		t.Errorf("empty run did not complete cleanly: %v", err)
	}
}

func TestCoordinatorUnknownID(t *testing.T) {
	if _, err := NewCoordinator(testOptions(), []string{"no-such-id"}, CoordinatorOptions{}); err == nil {
		t.Error("unknown experiment id accepted")
	}
}

// TestCoordinatorFailsAfterMaxAttempts checks that with one attempt per
// unit, a reported failure — or a 409 for a tampered checkpoint, which burns
// the attempt too — fails the run with that failure's message.
func TestCoordinatorFailsAfterMaxAttempts(t *testing.T) {
	tampered := schemeResult("", []byte("checkpoint"))
	tampered.SchemeFP = "beef"
	for _, tc := range []struct {
		r    UnitResult
		want string
	}{
		{UnitResult{Err: "synthetic failure"}, "synthetic failure"},
		{tampered, "claimed fingerprint beef"},
	} {
		coord, err := NewCoordinator(testOptions(), []string{"table1"}, CoordinatorOptions{
			MaxAttempts: 1,
			Linger:      time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		// The points wait on their schemes, so the poll leases train units.
		poll := coord.assign()
		if len(poll.Units) == 0 || !poll.Units[0].Train {
			t.Fatalf("expected a train unit first, got %+v", poll.Units)
		}
		tc.r.Key = poll.Units[0].Key
		coord.record([]UnitResult{tc.r})
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		err = coord.Wait(ctx)
		cancel()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("Wait = %v, want fatal unit failure %q", err, tc.want)
		}
		if st := coord.Snapshot(); !st.Failed || st.LastError == "" {
			t.Errorf("status does not report the failure: %+v", st)
		}
	}
}

func TestWorkerNeverConnected(t *testing.T) {
	w := NewWorker("http://127.0.0.1:1", WorkerOptions{PollInterval: time.Millisecond})
	if _, err := w.Run(context.Background()); err == nil {
		t.Error("worker with unreachable coordinator exited cleanly despite never connecting")
	}
}

func TestWorkerContextCancel(t *testing.T) {
	coord, err := NewCoordinator(testOptions(), []string{"fig2b"}, CoordinatorOptions{Linger: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(coord.Handler())
	defer srv.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	w := NewWorker(srv.URL, WorkerOptions{PollInterval: time.Millisecond})
	if _, err := w.Run(ctx); err == nil {
		t.Error("cancelled worker returned nil error")
	}
}

func TestTrainUnitsForSchemeKeys(t *testing.T) {
	o := testOptions()
	points, trains, err := UnitsFor(o, experiments.IDs())
	if err != nil {
		t.Fatal(err)
	}
	want := make(map[string]bool)
	schemePoints := 0
	for _, u := range points {
		if u.SchemeKey != "" {
			want[u.SchemeKey] = true
			schemePoints++
		}
	}
	if len(trains) != len(want) {
		t.Errorf("%d train units for %d unique point scheme keys", len(trains), len(want))
	}
	// Scheme reuse must exist in the registry: strictly fewer trainings than
	// scheme-backed points (table1-seeds replicas share per-mode schemes).
	if len(trains) >= schemePoints {
		t.Errorf("no scheme sharing: %d train units for %d scheme-backed points", len(trains), schemePoints)
	}
	for i, u := range trains {
		if !u.Train {
			t.Fatalf("train unit %s lacks Train flag", u.Key)
		}
		if i > 0 && trains[i-1].Key >= u.Key {
			t.Fatalf("train units not sorted: %q then %q", trains[i-1].Key, u.Key)
		}
		if !want[u.Key] {
			t.Errorf("train unit %s backs no point unit", u.Key)
		}
		cfg, err := u.Config.envConfig()
		if err != nil {
			t.Fatal(err)
		}
		if cfg.Seed != 0 {
			t.Errorf("train unit %s ships seed %d, want canonical 0", u.Key, cfg.Seed)
		}
		if got := experiments.SchemeKey(o, cfg); got != u.Key {
			t.Errorf("train unit key %q does not recompute from its wire config (got %q)", u.Key, got)
		}
	}
}

// trainTestSchemes trains the checkpoint of every table1 train unit, giving
// protocol tests real CTSC blobs to report.
func trainTestSchemes(t *testing.T, o experiments.Options) ([]Unit, [][]byte) {
	t.Helper()
	_, trains, err := UnitsFor(o, []string{"table1"})
	if err != nil {
		t.Fatal(err)
	}
	if len(trains) < 2 {
		t.Fatalf("table1 yielded %d train units, want 2", len(trains))
	}
	cache := experiments.NewCache()
	blobs := make([][]byte, len(trains))
	for i, u := range trains {
		cfg, err := u.Config.envConfig()
		if err != nil {
			t.Fatal(err)
		}
		key, blob, err := cache.TrainScheme(context.Background(), u.Opts.options(context.Background(), cache, 1), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if key != u.Key {
			t.Fatalf("TrainScheme derived key %q, unit key %q", key, u.Key)
		}
		blobs[i] = blob
	}
	if core.SchemeFingerprint(blobs[0]) == core.SchemeFingerprint(blobs[1]) {
		t.Fatal("the two table1 modes trained identical schemes; conflict tests would be vacuous")
	}
	return trains, blobs
}

// schemeResult is the result a worker reports for a trained checkpoint.
func schemeResult(key string, blob []byte) UnitResult {
	return UnitResult{Key: key, Scheme: blob, SchemeFP: core.SchemeFingerprint(blob)}
}

// TestSchemeUploadVerification checks that record never trusts a train
// result's claimed identity: bad, missing or unknown checkpoints are
// rejected (and burn the attempt), identical duplicates are idempotent, and
// conflicting duplicates are rejected.
func TestSchemeUploadVerification(t *testing.T) {
	o := testOptions()
	trains, blobs := trainTestSchemes(t, o)
	coord, err := NewCoordinator(o, []string{"table1"}, CoordinatorOptions{Linger: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	key := trains[0].Key
	junk := []byte{1, 2, 3, 4}
	tampered := schemeResult(key, blobs[0])
	tampered.SchemeFP = "beef"
	for _, tc := range []struct {
		name string
		r    UnitResult
		want string
	}{
		{"fingerprint mismatch", tampered, "hash to"},
		{"undecodable blob", schemeResult(key, junk), "bad scheme checkpoint"},
		{"missing checkpoint", UnitResult{Key: key}, "missing scheme checkpoint"},
	} {
		_, rejected := coord.record([]UnitResult{tc.r})
		if !reflect.DeepEqual(rejected, []string{key}) {
			t.Errorf("%s: rejected %v, want [%s]", tc.name, rejected, key)
		}
		if got := coord.states[key].lastErr; !strings.Contains(got, tc.want) {
			t.Errorf("%s: attempt error %q, want substring %q", tc.name, got, tc.want)
		}
	}
	if _, rejected := coord.record([]UnitResult{schemeResult("sc|bogus", blobs[0])}); !reflect.DeepEqual(rejected, []string{"sc|bogus"}) {
		t.Errorf("unknown train key: rejected %v", rejected)
	}
	if snap := coord.Snapshot(); snap.Train.Done != 0 || snap.SchemesStored != 0 {
		t.Fatalf("rejected checkpoints mutated the store: %+v", snap)
	}

	if resp, rejected := coord.record([]UnitResult{schemeResult(key, blobs[0])}); len(rejected) > 0 || !resp.OK {
		t.Fatalf("valid checkpoint refused: %+v %v", resp, rejected)
	}
	// A retried lease re-reports identical bytes: idempotent success.
	if resp, rejected := coord.record([]UnitResult{schemeResult(key, blobs[0])}); len(rejected) > 0 || !resp.OK {
		t.Errorf("duplicate identical checkpoint refused: %+v %v", resp, rejected)
	}
	// Different bytes under a done key can only be corruption.
	if _, rejected := coord.record([]UnitResult{schemeResult(key, blobs[1])}); !reflect.DeepEqual(rejected, []string{key}) {
		t.Errorf("conflicting checkpoint: rejected %v, want [%s]", rejected, key)
	}
	// A late error from another lease of a done unit changes nothing.
	if _, rejected := coord.record([]UnitResult{{Key: key, Err: "late failure"}}); len(rejected) > 0 {
		t.Errorf("error-only duplicate rejected: %v", rejected)
	}
	if snap := coord.Snapshot(); snap.Train.Done != 1 || snap.SchemesStored != 1 ||
		snap.SchemeStoreBytes != int64(len(blobs[0])) {
		t.Errorf("store after one resolved scheme: %+v", snap)
	}
}

// TestRecordRejectsWrongPayloadKind checks every unit kind against every
// payload of another kind: each is a rejected key and a failed attempt, the
// unit stays open, and nothing reaches a cache.
func TestRecordRejectsWrongPayloadKind(t *testing.T) {
	o := testOptions()
	coord, err := NewCoordinator(o, []string{"table1"}, CoordinatorOptions{Linger: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	keys := make(map[string]string)
	for _, k := range coord.order {
		kind := "point"
		if coord.states[k].unit.Train {
			kind = "train"
		}
		if keys[kind] == "" {
			keys[kind] = k
		}
	}
	if len(keys) != 2 {
		t.Fatalf("want one unit of each kind, got %v", keys)
	}
	blob := []byte("checkpoint")
	for _, tc := range []struct {
		kind string
		r    UnitResult
	}{
		{"point", schemeResult("", blob)},
		{"train", UnitResult{}},
	} {
		key := keys[tc.kind]
		tc.r.Key = key
		_, rejected := coord.record([]UnitResult{tc.r})
		if !reflect.DeepEqual(rejected, []string{key}) {
			t.Errorf("%s unit, scheme=%t: rejected %v, want [%s]", tc.kind, tc.r.Scheme != nil, rejected, key)
		}
		if st := coord.states[key]; st.done || !strings.Contains(st.lastErr, tc.kind+" unit") {
			t.Errorf("%s unit, scheme=%t: done=%t, attempt error %q", tc.kind, tc.r.Scheme != nil, st.done, st.lastErr)
		}
	}
	if snap := coord.Snapshot(); snap.Done != 0 {
		t.Errorf("wrong-kind payloads completed %d units", snap.Done)
	}
	if n := coord.ImportInto(experiments.NewCache()); n != 0 {
		t.Errorf("ImportInto imported %d wrong-kind results", n)
	}
}

// TestDispatchShipsResolvedScheme checks that once its train unit is done,
// every unit playing that scheme is dispatched with the checkpoint bytes and
// fingerprint inline.
func TestDispatchShipsResolvedScheme(t *testing.T) {
	o := testOptions()
	trains, blobs := trainTestSchemes(t, o)
	coord, err := NewCoordinator(o, []string{"table1", "table1-seeds"}, CoordinatorOptions{Linger: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	byKey := make(map[string][]byte)
	for i, u := range trains {
		byKey[u.Key] = blobs[i]
		if _, rejected := coord.record([]UnitResult{schemeResult(u.Key, blobs[i])}); len(rejected) > 0 {
			t.Fatalf("checkpoint %s rejected", u.Key)
		}
	}
	if snap := coord.Snapshot(); snap.Train.Done != snap.Train.Total {
		t.Fatalf("table1-seeds needs schemes table1 does not train: %+v", snap.Train)
	}
	shipped := 0
	for poll := coord.assign(); len(poll.Units) > 0; poll = coord.assign() {
		for _, u := range poll.Units {
			if u.SchemeKey == "" {
				continue
			}
			shipped++
			if !bytes.Equal(u.Scheme, byKey[u.SchemeKey]) || u.SchemeFP != core.SchemeFingerprint(byKey[u.SchemeKey]) {
				t.Errorf("unit %s dispatched without the bytes of scheme %s", u.Key, u.SchemeKey)
			}
		}
	}
	if snap := coord.Snapshot(); shipped == 0 || shipped != snap.Point.Leased {
		t.Errorf("dispatched %d scheme-backed units, %d point units leased", shipped, snap.Point.Leased)
	}
}

// TestResultUnknownKeyRejected checks that one /v1/result body mixing a
// train result, a point result, an unknown key and a conflicting checkpoint
// is ingested except for the keys its structured 409 names.
func TestResultUnknownKeyRejected(t *testing.T) {
	o := testOptions()
	coord, err := NewCoordinator(o, []string{"table1"}, CoordinatorOptions{Linger: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	// Resolve the first train unit: the poll then leases the point it gates
	// and the other train unit.
	trains, blobs := trainTestSchemes(t, o)
	if _, rejected := coord.record([]UnitResult{schemeResult(trains[0].Key, blobs[0])}); len(rejected) > 0 {
		t.Fatalf("checkpoint %s rejected", trains[0].Key)
	}
	poll := coord.assign()
	if len(poll.Units) != 2 || poll.Units[0].Train || poll.Units[1].Key != trains[1].Key {
		t.Fatalf("assigned %+v, want the point of the resolved scheme and the other train unit", poll.Units)
	}
	results := evaluate(context.Background(), poll.Units[:1], experiments.NewCache(), 1)
	results = append(results,
		schemeResult(trains[1].Key, blobs[1]),
		UnitResult{Key: "pt|bogus", Counters: metrics.Counters{Slots: 1}},
		schemeResult(trains[0].Key, blobs[1])) // conflicts with the recorded checkpoint

	srv := httptest.NewServer(coord.Handler())
	defer srv.Close()
	body, err := json.Marshal(resultRequest{Worker: "t", Results: results})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(srv.URL+"/v1/result", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("report with unknown key: %s, want 409", resp.Status)
	}
	var rej rejectResponse
	if err := json.NewDecoder(resp.Body).Decode(&rej); err != nil {
		t.Fatal(err)
	}
	if want := []string{"pt|bogus", trains[0].Key}; rej.Error == "" || !reflect.DeepEqual(rej.RejectedKeys, want) {
		t.Errorf("409 body = %+v, want an error naming %v", rej, want)
	}
	// The point and train results in the same report were still ingested.
	if st := coord.Snapshot(); st.Point.Done != 1 || st.Train.Done != 2 || st.Failed {
		t.Errorf("known results not ingested alongside the rejection: %+v", st)
	}
}

func TestMergeSpoolsSchemeVerification(t *testing.T) {
	o := testOptions()
	trains, blobs := trainTestSchemes(t, o)
	key := trains[0].Key
	train := Unit{Key: key, Train: true}
	spool := func(shard, shards int, unit string, scheme UnitResult) Spool {
		return Spool{Shard: shard, Shards: shards, Results: []UnitResult{
			{Key: unit, Counters: metrics.Counters{Slots: 1}}, scheme,
		}}
	}

	t.Run("corrupt fingerprint", func(t *testing.T) {
		dir := t.TempDir()
		r := schemeResult(key, blobs[0])
		r.SchemeFP = "beef"
		writeSpool(t, dir, spool(0, 1, "a", r))
		_, err := merge(dir, experiments.NewCache(), Unit{Key: "a"}, train)
		if err == nil || !strings.Contains(err.Error(), "hash to") {
			t.Errorf("err = %v, want fingerprint mismatch", err)
		}
	})
	t.Run("undecodable scheme", func(t *testing.T) {
		dir := t.TempDir()
		writeSpool(t, dir, spool(0, 1, "a", schemeResult(key, []byte{9, 9, 9})))
		_, err := merge(dir, experiments.NewCache(), Unit{Key: "a"}, train)
		if err == nil || !strings.Contains(err.Error(), "bad scheme checkpoint") {
			t.Errorf("err = %v, want undecodable checkpoint", err)
		}
	})
	t.Run("cross-shard conflict", func(t *testing.T) {
		dir := t.TempDir()
		writeSpool(t, dir, spool(0, 2, "a", schemeResult(key, blobs[0])))
		writeSpool(t, dir, spool(1, 2, "b", schemeResult(key, blobs[1])))
		_, err := merge(dir, experiments.NewCache(), Unit{Key: "a"}, Unit{Key: "b"}, train)
		if err == nil || !strings.Contains(err.Error(), "conflicts with another shard") {
			t.Errorf("err = %v, want cross-shard scheme conflict", err)
		}
	})
	t.Run("shared scheme", func(t *testing.T) {
		dir := t.TempDir()
		writeSpool(t, dir, spool(0, 2, "a", schemeResult(key, blobs[0])))
		writeSpool(t, dir, spool(1, 2, "b", schemeResult(key, blobs[0])))
		cache := experiments.NewCache()
		n, err := merge(dir, cache, Unit{Key: "a"}, Unit{Key: "b"}, train)
		if err != nil || n != 2 {
			t.Fatalf("merge = %d, %v; want the 2 point units", n, err)
		}
		if got, ok := cache.SchemeBytes(key); !ok || !bytes.Equal(got, blobs[0]) {
			t.Error("merged cache lacks the shared scheme")
		}
	})
}

// TestEvaluateRejectsFast32Unit covers version skew with a coordinator that
// still offered the removed float32 engine: its unit carries "fast32":true
// and a fast=true key. The worker ignores the unknown option, derives the
// fast=false key, and fails the unit on the mismatch instead of evaluating
// it on the exact engine under the wrong key.
func TestEvaluateRejectsFast32Unit(t *testing.T) {
	o := testOptions()
	o.Engine = experiments.EngineDQN
	units, _, err := UnitsFor(o, []string{"table1"})
	if err != nil {
		t.Fatal(err)
	}
	var point *Unit
	for i := range units {
		if !units[i].Train && units[i].Defense == "" {
			point = &units[i]
			break
		}
	}
	if point == nil {
		t.Fatal("table1 yielded no RL FH point unit")
	}
	data, err := json.Marshal(point)
	if err != nil {
		t.Fatal(err)
	}
	old := strings.Replace(string(data), `"opts":{`, `"opts":{"fast32":true,`, 1)
	old = strings.Replace(old, "|fast=false|", "|fast=true|", 1)
	var u Unit
	if err := json.Unmarshal([]byte(old), &u); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(u.Key, "|fast=true|") {
		t.Fatalf("unit key %q does not carry the old fast tag", u.Key)
	}
	results := evaluate(context.Background(), []Unit{u}, experiments.NewCache(), 1)
	if !strings.Contains(results[0].Err, "key mismatch") {
		t.Errorf("fast32 unit: Err = %q, want key mismatch", results[0].Err)
	}
}
