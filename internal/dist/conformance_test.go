package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"ctjam/internal/experiments"
)

// testOptions is a deliberately tiny budget: conformance tests pin exact
// byte equality, so they need the full pipeline, not convergence.
func testOptions() experiments.Options {
	return experiments.Options{
		Slots:      200,
		Engine:     experiments.EngineMDP,
		TrainSlots: 200,
		Seed:       1,
		Workers:    2,
	}
}

// cacheBackedIDs filters the registry down to the experiments whose RL FH
// schemes are distributable: the 20 Figs. 6-8 metric panels plus Table I,
// its seed-replicated variant and the jammer-zoo matchup (sweep points).
func cacheBackedIDs(t *testing.T, o experiments.Options) []string {
	t.Helper()
	var ids []string
	for _, id := range experiments.IDs() {
		units, err := UnitsFor(o, []string{id})
		if err != nil {
			t.Fatal(err)
		}
		if len(units) > 0 {
			ids = append(ids, id)
		}
	}
	if len(ids) != 23 {
		t.Fatalf("expected 23 cache-backed experiments, got %d: %v", len(ids), ids)
	}
	return ids
}

// trace runs every id under o and returns the full result set as one
// indented JSON document — the byte-equality unit of the conformance tests.
func trace(t *testing.T, o experiments.Options, ids []string) []byte {
	t.Helper()
	var results []*experiments.Result
	for _, id := range ids {
		res, err := experiments.Run(id, o)
		if err != nil {
			t.Fatalf("run %s: %v", id, err)
		}
		results = append(results, res)
	}
	b, err := json.MarshalIndent(results, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// fieldIDs are the field-simulator panels. They add no units, but their RL
// FH runs play the Table I scheme from the imported cache, so the traces
// pin them too.
var fieldIDs = []string{"fig10a", "fig10b", "fig11a", "fig11b", "scale"}

// TestDistributedSerialEquivalence pins the tentpole guarantee: static
// sharding at shard counts 1, 2 and 5, and the coordinator/worker HTTP
// protocol with three concurrent workers, all produce experiment traces
// byte-identical to a single-process run over every cache-backed id and
// the field panels. The printing process evaluates every point itself but
// trains no scheme: each one arrives as a checkpoint.
func TestDistributedSerialEquivalence(t *testing.T) {
	o := testOptions()
	ids := cacheBackedIDs(t, o)
	traced := append(append([]string(nil), ids...), fieldIDs...)

	base := o
	base.Cache = experiments.NewCache()
	baseline := trace(t, base, traced)

	units, err := UnitsFor(o, ids)
	if err != nil {
		t.Fatal(err)
	}
	if len(units) == 0 {
		t.Fatal("no units to distribute")
	}
	// checkPrinted runs the traced ids against the imported cache and checks
	// the trace and that no scheme was trained in the printing process.
	checkPrinted := func(t *testing.T, coord *Coordinator, mode string) {
		t.Helper()
		printed := o
		printed.Cache = experiments.NewCache()
		if n := coord.ImportInto(printed.Cache); n != len(units) {
			t.Fatalf("imported %d checkpoints, want %d", n, len(units))
		}
		if got := trace(t, printed, traced); !bytes.Equal(got, baseline) {
			t.Errorf("%s trace differs from single-process baseline", mode)
		}
		st := printed.Cache.Stats()
		if st.SchemeBuilds != 0 || st.SchemeImports != int64(len(units)) {
			t.Errorf("printing process trained %d and imported %d schemes, want 0 and %d",
				st.SchemeBuilds, st.SchemeImports, len(units))
		}
	}

	for _, shards := range []int{1, 2, 5} {
		shards := shards
		t.Run(fmt.Sprintf("static-%d", shards), func(t *testing.T) {
			dir := t.TempDir()
			for s := 0; s < shards; s++ {
				n, err := RunShard(context.Background(), o, ids, s, shards, filepath.Join(dir, SpoolName(s, shards)))
				if err != nil {
					t.Fatalf("shard %d/%d: %v", s, shards, err)
				}
				t.Logf("shard %d/%d evaluated %d units", s, shards, n)
			}
			coord, err := NewCoordinator(o, ids, CoordinatorOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if err := coord.ReplaySpools(dir); err != nil {
				t.Fatal(err)
			}
			checkPrinted(t, coord, fmt.Sprintf("static %d-shard", shards))
		})
	}

	t.Run("http-3-workers", func(t *testing.T) {
		coord, err := NewCoordinator(o, ids, CoordinatorOptions{Linger: time.Millisecond})
		if err != nil {
			t.Fatal(err)
		}
		srv := httptest.NewServer(coord.Handler())
		defer srv.Close()

		workers := make([]*Worker, 3)
		var wg sync.WaitGroup
		for i := range workers {
			workers[i] = NewWorker(srv.URL, WorkerOptions{
				ID:           fmt.Sprintf("w%d", i),
				PollInterval: 10 * time.Millisecond,
			})
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				if _, err := workers[i].Run(context.Background()); err != nil {
					t.Errorf("worker %d: %v", i, err)
				}
			}(i)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
		defer cancel()
		if err := coord.Wait(ctx); err != nil {
			t.Fatal(err)
		}
		wg.Wait()

		// The train-once accounting: the sum of local trainings across
		// every worker equals the number of unique scheme keys.
		var builds int64
		for i, w := range workers {
			st := w.CacheStats()
			builds += st.SchemeBuilds
			t.Logf("worker %d: %d schemes trained here", i, st.SchemeBuilds)
		}
		if builds != int64(len(units)) {
			t.Errorf("fleet trained %d schemes, want exactly %d (one per unique scheme key)", builds, len(units))
		}
		snap := coord.Snapshot()
		if snap.Done != len(units) || snap.SchemeStoreBytes <= 0 {
			t.Errorf("status reports %d units done / %d checkpoint bytes, want %d and positive size",
				snap.Done, snap.SchemeStoreBytes, len(units))
		}
		checkPrinted(t, coord, "distributed HTTP")
	})
}

// TestDistributedWorkerLossRetry kills a worker mid-lease and checks the
// coordinator re-leases its units after expiry, converging on output
// byte-identical to the single-process run.
func TestDistributedWorkerLossRetry(t *testing.T) {
	o := testOptions()
	ids := []string{"fig6a", "table1"}

	base := o
	base.Cache = experiments.NewCache()
	baseline := trace(t, base, ids)

	units, err := UnitsFor(o, ids)
	if err != nil {
		t.Fatal(err)
	}

	coord, err := NewCoordinator(o, ids, CoordinatorOptions{
		Lease:       100 * time.Millisecond,
		MaxAttempts: 3,
		Linger:      time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(coord.Handler())
	defer srv.Close()

	// A worker that claims a batch and dies without reporting.
	body, _ := json.Marshal(pollRequest{Worker: "doomed"})
	resp, err := http.Post(srv.URL+"/v1/poll", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var claimed pollResponse
	if err := json.NewDecoder(resp.Body).Decode(&claimed); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(claimed.Units) == 0 {
		t.Fatal("doomed worker claimed no units")
	}

	// A healthy worker picks up everything, including the re-leased units.
	done := make(chan error, 1)
	go func() {
		w := NewWorker(srv.URL, WorkerOptions{ID: "healthy", PollInterval: 20 * time.Millisecond})
		_, err := w.Run(context.Background())
		done <- err
	}()

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	if err := coord.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatalf("healthy worker: %v", err)
	}

	st := coord.Snapshot()
	if st.Attempts <= st.Total {
		t.Errorf("attempts = %d, want > %d (the doomed worker's units must have been re-leased)", st.Attempts, st.Total)
	}

	merged := o
	merged.Cache = experiments.NewCache()
	if n := coord.ImportInto(merged.Cache); n != len(units) {
		t.Fatalf("imported %d units, want %d", n, len(units))
	}
	got := trace(t, merged, ids)
	if !bytes.Equal(got, baseline) {
		t.Error("post-retry trace differs from single-process baseline")
	}
}

// TestDistributedTrainLossRetry kills a worker after it reported the first
// checkpoint of its poll and before it reported the rest. Only the
// unreported units run again: their leases expire, a healthy worker trains
// them and every unit not yet leased, no scheme is trained twice, and the
// output converges byte-identical to the single-process run.
func TestDistributedTrainLossRetry(t *testing.T) {
	o := testOptions()
	ids := []string{"fig6a", "table1"}

	base := o
	base.Cache = experiments.NewCache()
	baseline := trace(t, base, ids)

	units, err := UnitsFor(o, ids)
	if err != nil {
		t.Fatal(err)
	}

	coord, err := NewCoordinator(o, ids, CoordinatorOptions{
		Lease:       100 * time.Millisecond,
		MaxAttempts: 3,
		Linger:      time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(coord.Handler())
	defer srv.Close()

	// A worker that claims a batch, reports its first checkpoint and dies.
	body, _ := json.Marshal(pollRequest{Worker: "doomed"})
	resp, err := http.Post(srv.URL+"/v1/poll", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var claimed pollResponse
	if err := json.NewDecoder(resp.Body).Decode(&claimed); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(claimed.Units) < 2 {
		t.Fatalf("doomed worker claimed %d units, want at least 2", len(claimed.Units))
	}
	first := train(context.Background(), experiments.NewCache(), claimed.Units[0])
	if _, rejected := coord.record([]UnitResult{first}); first.Err != "" || len(rejected) > 0 {
		t.Fatalf("doomed worker's checkpoint refused: %q %v", first.Err, rejected)
	}

	done := make(chan error, 1)
	healthy := NewWorker(srv.URL, WorkerOptions{ID: "healthy", PollInterval: 20 * time.Millisecond})
	go func() {
		_, err := healthy.Run(context.Background())
		done <- err
	}()

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	if err := coord.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatalf("healthy worker: %v", err)
	}

	st := coord.Snapshot()
	if st.Done != len(units) {
		t.Errorf("units done = %d, want %d", st.Done, len(units))
	}
	if want := len(claimed.Units) - 1; st.Retried != want {
		t.Errorf("%d units retried, want the doomed worker's %d unreported ones", st.Retried, want)
	}
	if got := healthy.CacheStats().SchemeBuilds; got != int64(len(units)-1) {
		t.Errorf("healthy worker trained %d schemes, want all %d but the reported one", got, len(units)-1)
	}

	merged := o
	merged.Cache = experiments.NewCache()
	if n := coord.ImportInto(merged.Cache); n != len(units) {
		t.Fatalf("imported %d units, want %d", n, len(units))
	}
	got := trace(t, merged, ids)
	if !bytes.Equal(got, baseline) {
		t.Error("post-retry trace differs from single-process baseline")
	}
}
