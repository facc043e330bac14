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

// cacheBackedIDs filters the registry down to the experiments whose compute
// is distributable — the 20 Figs. 6-8 metric panels plus Table I, its
// seed-replicated variant and the jammer-zoo matchup (sweep points), and the
// fig10/fig11/scale panels (field replica units).
func cacheBackedIDs(t *testing.T, o experiments.Options) []string {
	t.Helper()
	var ids []string
	for _, id := range experiments.IDs() {
		units, _, err := UnitsFor(o, []string{id})
		if err != nil {
			t.Fatal(err)
		}
		if len(units) > 0 {
			ids = append(ids, id)
		}
	}
	if len(ids) != 28 {
		t.Fatalf("expected 28 cache-backed experiments, got %d: %v", len(ids), ids)
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

// TestDistributedSerialEquivalence pins the tentpole guarantee: static
// sharding at shard counts 1, 2 and 5, and the coordinator/worker HTTP
// protocol with three concurrent workers, all produce experiment traces
// byte-identical to a single-process run over every cache-backed id.
func TestDistributedSerialEquivalence(t *testing.T) {
	o := testOptions()
	ids := cacheBackedIDs(t, o)

	base := o
	base.Cache = experiments.NewCache()
	baseline := trace(t, base, ids)

	units, trains, err := UnitsFor(o, ids)
	if err != nil {
		t.Fatal(err)
	}
	if len(units) == 0 {
		t.Fatal("no units to distribute")
	}
	if len(trains) == 0 {
		t.Fatal("no train units: scheme reuse has nothing to assert")
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
			merged := o
			merged.Cache = experiments.NewCache()
			if n := coord.ImportInto(merged.Cache); n != len(units) {
				t.Fatalf("merged %d units, want %d", n, len(units))
			}
			got := trace(t, merged, ids)
			if !bytes.Equal(got, baseline) {
				t.Errorf("static %d-shard trace differs from single-process baseline", shards)
			}
			st := merged.Cache.Stats()
			if st.PointMisses != 0 {
				t.Errorf("merged run recomputed %d points; want pure cache hits", st.PointMisses)
			}
			if st.FieldMisses != 0 {
				t.Errorf("merged run recomputed %d field runs; want pure cache hits", st.FieldMisses)
			}
			if st.SchemeImports != int64(len(trains)) {
				t.Errorf("merged cache imported %d schemes, want %d", st.SchemeImports, len(trains))
			}
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
				Workers:      2,
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

		// The tentpole accounting: each unique scheme key is trained exactly
		// once fleet-wide — the sum of local trainings across every worker
		// equals the number of train units, with no retraining on workers
		// that merely evaluated dependent points.
		var builds int64
		for i, w := range workers {
			st := w.CacheStats()
			builds += st.SchemeBuilds
			t.Logf("worker %d: %d schemes trained here, %d imported", i, st.SchemeBuilds, st.SchemeImports)
		}
		if builds != int64(len(trains)) {
			t.Errorf("fleet trained %d schemes, want exactly %d (one per unique scheme key)", builds, len(trains))
		}
		snap := coord.Snapshot()
		if snap.Train.Done != len(trains) {
			t.Errorf("status reports %d train units done, want %d", snap.Train.Done, len(trains))
		}
		if snap.SchemesStored != len(trains) || snap.SchemeStoreBytes <= 0 {
			t.Errorf("scheme store holds %d schemes / %d bytes, want %d schemes and positive size",
				snap.SchemesStored, snap.SchemeStoreBytes, len(trains))
		}
		if snap.Point.Done+snap.Field.Done != len(units) {
			t.Errorf("status reports %d point + %d field done, want %d total",
				snap.Point.Done, snap.Field.Done, len(units))
		}

		merged := o
		merged.Cache = experiments.NewCache()
		if n := coord.ImportInto(merged.Cache); n != len(units) {
			t.Fatalf("imported %d units, want %d", n, len(units))
		}
		if st := merged.Cache.Stats(); st.SchemeImports != int64(len(trains)) {
			t.Errorf("merged cache imported %d schemes, want %d", st.SchemeImports, len(trains))
		}
		got := trace(t, merged, ids)
		if !bytes.Equal(got, baseline) {
			t.Error("distributed HTTP trace differs from single-process baseline")
		}
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

	units, _, err := UnitsFor(o, ids)
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
		w := NewWorker(srv.URL, WorkerOptions{ID: "healthy", Workers: 2, PollInterval: 20 * time.Millisecond})
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

// TestDistributedTrainLossRetry kills a worker that claimed train units
// before reporting any checkpoint. The blocked point units must not deadlock
// the run: the train leases expire, a healthy worker retrains and reports,
// and the output converges byte-identical to the single-process run.
func TestDistributedTrainLossRetry(t *testing.T) {
	o := testOptions()
	ids := []string{"fig6a", "table1"}

	base := o
	base.Cache = experiments.NewCache()
	baseline := trace(t, base, ids)

	units, trains, err := UnitsFor(o, ids)
	if err != nil {
		t.Fatal(err)
	}
	if len(trains) == 0 {
		t.Fatal("no train units to lose")
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

	// A worker that claims a batch and dies mid-training. The ids carry no
	// field units and every point is gated on an unresolved scheme, so the
	// first poll can only hand out train units.
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
	for _, u := range claimed.Units {
		if !u.Train {
			t.Fatalf("first poll handed out non-train unit %s before its scheme resolved", u.Key)
		}
	}

	done := make(chan error, 1)
	healthy := NewWorker(srv.URL, WorkerOptions{ID: "healthy", Workers: 2, PollInterval: 20 * time.Millisecond})
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
	if st.Train.Done != len(trains) {
		t.Errorf("train units done = %d, want %d", st.Train.Done, len(trains))
	}
	if st.Train.Retried == 0 {
		t.Error("no train unit was retried despite the doomed worker's lost leases")
	}
	if st.Attempts <= st.Total {
		t.Errorf("attempts = %d, want > %d (the doomed worker's train units must have been re-leased)",
			st.Attempts, st.Total)
	}
	if got := healthy.CacheStats().SchemeBuilds; got != int64(len(trains)) {
		t.Errorf("healthy worker trained %d schemes, want all %d", got, len(trains))
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
