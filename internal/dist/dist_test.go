package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"net/url"
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
	"ctjam/internal/iot"
	"ctjam/internal/metrics"
)

func TestShardUnitsPartition(t *testing.T) {
	o := testOptions()
	units, err := UnitsFor(o, []string{"fig6a", "fig6d"})
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
	units, err := UnitsFor(o, []string{"table1"})
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

func TestMergeSpoolsErrors(t *testing.T) {
	units := []Unit{{Key: "a"}, {Key: "b"}}
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
		{"missing unit", []Spool{{Shard: 0, Shards: 1, Results: res("a")}}, "missing unit"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			for _, sp := range tc.spools {
				writeSpool(t, dir, sp)
			}
			_, err := MergeSpools(dir, experiments.NewCache(), units)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("err = %v, want substring %q", err, tc.want)
			}
		})
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

func TestCoordinatorFailsAfterMaxAttempts(t *testing.T) {
	coord, err := NewCoordinator(testOptions(), []string{"table1"}, CoordinatorOptions{
		MaxAttempts: 1,
		Linger:      time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	poll := coord.assign(1)
	if len(poll.Units) != 1 {
		t.Fatalf("assigned %d units, want 1", len(poll.Units))
	}
	coord.record([]UnitResult{{Key: poll.Units[0].Key, Err: "synthetic failure"}})
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	err = coord.Wait(ctx)
	if err == nil || !strings.Contains(err.Error(), "synthetic failure") {
		t.Errorf("Wait = %v, want fatal unit failure", err)
	}
	st := coord.Snapshot()
	if !st.Failed || st.LastError == "" {
		t.Errorf("status does not report the failure: %+v", st)
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

func TestWireFieldSpecRoundTrip(t *testing.T) {
	spec := experiments.FieldSpec{
		Scheme:       experiments.FieldSchemeRand,
		Jammer:       true,
		Clusters:     8,
		Nodes:        5,
		SlotDuration: 500 * time.Millisecond,
		JammerSlot:   250 * time.Millisecond,
		Seed:         7,
		Slots:        100,
	}
	got, err := wireFieldSpec(spec).fieldSpec()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, spec) {
		t.Errorf("round trip drifted:\ngot  %+v\nwant %+v", got, spec)
	}
	bad := wireFieldSpec(spec)
	bad.Scheme = "no-such-scheme"
	if _, err := bad.fieldSpec(); err == nil {
		t.Error("invalid wire field spec decoded without error")
	}
}

func TestWireRunStatsRoundTrip(t *testing.T) {
	run := iot.RunStats{
		Slots:              100,
		Attempted:          4000,
		Delivered:          3500,
		FrameLosses:        12,
		GoodputPktsPerSlot: 35,
		MeanUtilization:    0.91,
		MeanOverhead:       48 * time.Millisecond,
		Counters:           metrics.Counters{Slots: 100, Successes: 80, JamLosses: 20},
	}
	if got := wireRunStats(run).runStats(); !reflect.DeepEqual(got, run) {
		t.Errorf("round trip drifted:\ngot  %+v\nwant %+v", got, run)
	}
}

func TestEvaluateFieldKeyMismatch(t *testing.T) {
	o := testOptions()
	units, err := UnitsFor(o, []string{"fig10a"})
	if err != nil {
		t.Fatal(err)
	}
	if len(units) == 0 {
		t.Fatal("fig10a yielded no field units")
	}
	units[0].Key = "fd|tampered"
	results := evaluate(context.Background(), units[:1], experiments.NewCache(), 1)
	if !strings.Contains(results[0].Err, "key mismatch") {
		t.Errorf("tampered field unit: Err = %q, want key mismatch", results[0].Err)
	}
}

func TestTrainUnitsForSchemeKeys(t *testing.T) {
	o := testOptions()
	trains, err := TrainUnitsFor(o, experiments.IDs())
	if err != nil {
		t.Fatal(err)
	}
	points, err := UnitsFor(o, experiments.IDs())
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
// protocol tests real CTSC blobs to upload.
func trainTestSchemes(t *testing.T, o experiments.Options) ([]Unit, [][]byte) {
	t.Helper()
	trains, err := TrainUnitsFor(o, []string{"table1"})
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

func TestSchemeUploadVerification(t *testing.T) {
	o := testOptions()
	trains, blobs := trainTestSchemes(t, o)
	coord, err := NewCoordinator(o, []string{"table1"}, CoordinatorOptions{Linger: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	fp0 := core.SchemeFingerprint(blobs[0])

	if _, reject := coord.recordScheme(schemeUploadRequest{
		Key: trains[0].Key, Fingerprint: "beef", Data: blobs[0],
	}); !strings.Contains(reject, "hash to") {
		t.Errorf("claimed-fingerprint mismatch not rejected: %q", reject)
	}
	junk := []byte{1, 2, 3, 4}
	if _, reject := coord.recordScheme(schemeUploadRequest{
		Key: trains[0].Key, Fingerprint: core.SchemeFingerprint(junk), Data: junk,
	}); reject == "" {
		t.Error("undecodable checkpoint accepted")
	}
	if _, reject := coord.recordScheme(schemeUploadRequest{
		Key: "sc|bogus", Fingerprint: fp0, Data: blobs[0],
	}); !strings.Contains(reject, "not a train unit") {
		t.Errorf("unknown train key not rejected: %q", reject)
	}
	if snap := coord.Snapshot(); snap.Train.Done != 0 || snap.SchemesStored != 0 {
		t.Fatalf("rejected uploads mutated the store: %+v", snap)
	}

	resp, reject := coord.recordScheme(schemeUploadRequest{Key: trains[0].Key, Fingerprint: fp0, Data: blobs[0]})
	if reject != "" || !resp.OK {
		t.Fatalf("valid upload refused: %+v %q", resp, reject)
	}
	// A retried lease re-uploads identical bytes: idempotent success.
	if resp, reject = coord.recordScheme(schemeUploadRequest{Key: trains[0].Key, Fingerprint: fp0, Data: blobs[0]}); reject != "" || !resp.OK {
		t.Errorf("duplicate identical upload refused: %+v %q", resp, reject)
	}
	// Different bytes under a resolved key can only be corruption.
	if _, reject = coord.recordScheme(schemeUploadRequest{
		Key: trains[0].Key, Fingerprint: core.SchemeFingerprint(blobs[1]), Data: blobs[1],
	}); !strings.Contains(reject, "conflicting") {
		t.Errorf("conflicting upload not rejected: %q", reject)
	}
	if snap := coord.Snapshot(); snap.Train.Done != 1 || snap.SchemesStored != 1 {
		t.Errorf("store after one resolved scheme: %+v", snap)
	}
}

func TestSchemeEndpointHTTP(t *testing.T) {
	o := testOptions()
	trains, blobs := trainTestSchemes(t, o)
	coord, err := NewCoordinator(o, []string{"table1"}, CoordinatorOptions{Linger: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(coord.Handler())
	defer srv.Close()
	getURL := srv.URL + "/v1/scheme/" + url.PathEscape(trains[0].Key)

	resp, err := http.Get(getURL)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("GET of unresolved scheme: %s, want 404", resp.Status)
	}

	post := func(req schemeUploadRequest) *http.Response {
		t.Helper()
		body, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(srv.URL+"/v1/scheme", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	bad := post(schemeUploadRequest{Worker: "t", Key: trains[0].Key, Fingerprint: "beef", Data: blobs[0]})
	if bad.StatusCode != http.StatusConflict {
		t.Fatalf("tampered upload: %s, want 409", bad.Status)
	}
	var rej rejectResponse
	if err := json.NewDecoder(bad.Body).Decode(&rej); err != nil {
		t.Fatal(err)
	}
	bad.Body.Close()
	if rej.Error == "" || !reflect.DeepEqual(rej.RejectedKeys, []string{trains[0].Key}) {
		t.Errorf("409 body does not name the rejected key: %+v", rej)
	}
	good := post(schemeUploadRequest{
		Worker: "t", Key: trains[0].Key,
		Fingerprint: core.SchemeFingerprint(blobs[0]), Data: blobs[0],
	})
	if good.StatusCode != http.StatusOK {
		t.Fatalf("valid upload: %s, want 200", good.Status)
	}
	good.Body.Close()

	resp, err = http.Get(getURL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET of resolved scheme: %s, want 200", resp.Status)
	}
	if got := resp.Header.Get("X-Scheme-Fingerprint"); got != core.SchemeFingerprint(blobs[0]) {
		t.Errorf("fingerprint header %q does not match stored bytes", got)
	}
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), blobs[0]) {
		t.Errorf("fetched scheme differs from uploaded bytes (%d vs %d)", buf.Len(), len(blobs[0]))
	}
}

func TestResultUnknownKeyRejected(t *testing.T) {
	o := testOptions()
	coord, err := NewCoordinator(o, []string{"table1"}, CoordinatorOptions{Linger: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	// Resolve the two train units so the point units they gate become
	// assignable.
	trains, blobs := trainTestSchemes(t, o)
	for i, u := range trains {
		req := schemeUploadRequest{Key: u.Key, Fingerprint: core.SchemeFingerprint(blobs[i]), Data: blobs[i]}
		if _, reject := coord.recordScheme(req); reject != "" {
			t.Fatal(reject)
		}
	}
	poll := coord.assign(8)
	if len(poll.Units) != 2 {
		t.Fatalf("assigned %d units, want 2", len(poll.Units))
	}
	results := evaluate(context.Background(), poll.Units, experiments.NewCache(), 1)
	results = append(results, UnitResult{Key: "pt|bogus", Counters: metrics.Counters{Slots: 1}})

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
	if !reflect.DeepEqual(rej.RejectedKeys, []string{"pt|bogus"}) {
		t.Errorf("rejected keys = %v, want [pt|bogus]", rej.RejectedKeys)
	}
	// The two legitimate results in the same report were still ingested.
	if st := coord.Snapshot(); st.Point.Done != 2 || st.Failed {
		t.Errorf("known results not ingested alongside the rejection: %+v", st)
	}
}

func TestMergeSpoolsSchemeVerification(t *testing.T) {
	o := testOptions()
	trains, blobs := trainTestSchemes(t, o)
	key := trains[0].Key
	res := func(keys ...string) []UnitResult {
		out := make([]UnitResult, len(keys))
		for i, k := range keys {
			out[i] = UnitResult{Key: k, Counters: metrics.Counters{Slots: 1}}
		}
		return out
	}

	t.Run("corrupt fingerprint", func(t *testing.T) {
		dir := t.TempDir()
		writeSpool(t, dir, Spool{Shard: 0, Shards: 1, Results: res("a"), Schemes: []SpoolScheme{
			{Key: key, Fingerprint: "beef", Data: blobs[0]},
		}})
		_, err := MergeSpools(dir, experiments.NewCache(), []Unit{{Key: "a"}})
		if err == nil || !strings.Contains(err.Error(), "hash to") {
			t.Errorf("err = %v, want fingerprint mismatch", err)
		}
	})
	t.Run("undecodable scheme", func(t *testing.T) {
		dir := t.TempDir()
		junk := []byte{9, 9, 9}
		writeSpool(t, dir, Spool{Shard: 0, Shards: 1, Results: res("a"), Schemes: []SpoolScheme{
			{Key: key, Fingerprint: core.SchemeFingerprint(junk), Data: junk},
		}})
		if _, err := MergeSpools(dir, experiments.NewCache(), []Unit{{Key: "a"}}); err == nil {
			t.Error("spool with undecodable scheme bytes merged cleanly")
		}
	})
	t.Run("cross-shard conflict", func(t *testing.T) {
		dir := t.TempDir()
		writeSpool(t, dir, Spool{Shard: 0, Shards: 2, Results: res("a"), Schemes: []SpoolScheme{
			{Key: key, Fingerprint: core.SchemeFingerprint(blobs[0]), Data: blobs[0]},
		}})
		writeSpool(t, dir, Spool{Shard: 1, Shards: 2, Results: res("b"), Schemes: []SpoolScheme{
			{Key: key, Fingerprint: core.SchemeFingerprint(blobs[1]), Data: blobs[1]},
		}})
		_, err := MergeSpools(dir, experiments.NewCache(), []Unit{{Key: "a"}, {Key: "b"}})
		if err == nil || !strings.Contains(err.Error(), "conflicts with another shard") {
			t.Errorf("err = %v, want cross-shard scheme conflict", err)
		}
	})
}

// TestCoordinatorRejectsFieldResultWithoutStats checks a field unit reported
// "successfully" but with no RunStats payload counts as a failed attempt, not
// a completed unit.
func TestCoordinatorRejectsFieldResultWithoutStats(t *testing.T) {
	coord, err := NewCoordinator(testOptions(), []string{"scale"}, CoordinatorOptions{
		MaxAttempts: 1,
		Linger:      time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	poll := coord.assign(1)
	if len(poll.Units) != 1 || poll.Units[0].Field == nil {
		t.Fatalf("expected one field unit, got %+v", poll.Units)
	}
	coord.record([]UnitResult{{Key: poll.Units[0].Key}}) // no Field payload
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	err = coord.Wait(ctx)
	if err == nil || !strings.Contains(err.Error(), "missing field stats") {
		t.Errorf("Wait = %v, want missing-field-stats failure", err)
	}
}
