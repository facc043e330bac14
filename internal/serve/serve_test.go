package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"ctjam/internal/rl"
)

const (
	testStateDim = 6
	testActions  = 4
)

// writeLearnerFile saves a small random-weight DQN learner state (CTDQ) and
// returns the learner for reference decisions.
func writeLearnerFile(t testing.TB, path string, seed int64) *rl.DQN {
	t.Helper()
	cfg := rl.DefaultDQNConfig(testStateDim, testActions)
	cfg.Hidden = []int{8}
	cfg.Seed = seed
	d, err := rl.NewDQN(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := d.SaveState(&buf); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return d
}

// newTestServer builds a Server over one freshly written model file.
func newTestServer(t testing.TB, mutate func(*Config)) (*Server, *rl.Snapshot, string) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "model.ctdq")
	learner := writeLearnerFile(t, path, 7)
	snap, err := learner.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Models:   []ModelSpec{{Name: "default", Path: path}},
		Batching: true,
		MaxBatch: 8,
		Window:   100 * time.Microsecond,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return srv, snap, path
}

// randState fills buf with a fresh random observation.
func randState(rng *rand.Rand, buf []float64) {
	for i := range buf {
		buf[i] = rng.Float64()*2 - 1
	}
}

func randStates(rng *rand.Rand, n, dim int) [][]float64 {
	out := make([][]float64, n)
	for i := range out {
		out[i] = make([]float64, dim)
		randState(rng, out[i])
	}
	return out
}

func flatten(states [][]float64) []float64 {
	var flat []float64
	for _, s := range states {
		flat = append(flat, s...)
	}
	return flat
}

func postJSON(t testing.TB, url string, body []byte) (DecideResponse, *http.Response) {
	t.Helper()
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out DecideResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("decode response: %v", err)
	}
	return out, resp
}

func postDecide(t testing.TB, base string, req DecideRequest) (DecideResponse, *http.Response) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	return postJSON(t, base+"/v1/decide", body)
}

func TestDecideMatchesSnapshot(t *testing.T) {
	for _, batching := range []bool{true, false} {
		name := "batching-off"
		if batching {
			name = "batching-on"
		}
		t.Run(name, func(t *testing.T) {
			srv, snap, _ := newTestServer(t, func(c *Config) { c.Batching = batching })
			ts := httptest.NewServer(srv.Handler())
			defer ts.Close()

			states := randStates(rand.New(rand.NewSource(1)), 9, testStateDim)
			want := make([]int, len(states))
			if err := snap.GreedyBatch(want, flatten(states)); err != nil {
				t.Fatal(err)
			}

			// Single-state form (the micro-batched path when batching is on).
			out, resp := postDecide(t, ts.URL, DecideRequest{State: states[0]})
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("single decide status %d", resp.StatusCode)
			}
			if out.Action == nil || *out.Action != want[0] {
				t.Fatalf("single action = %v, want %d", out.Action, want[0])
			}

			// Batch form with Q values (always the direct path).
			out, resp = postDecide(t, ts.URL, DecideRequest{States: states, QValues: true})
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("batch decide status %d", resp.StatusCode)
			}
			if len(out.Actions) != len(states) {
				t.Fatalf("got %d actions, want %d", len(out.Actions), len(states))
			}
			for i, a := range out.Actions {
				if a != want[i] {
					t.Fatalf("action %d = %d, want %d", i, a, want[i])
				}
			}
			qWant := make([]float64, len(states)*testActions)
			if err := snap.QValuesBatch(qWant, flatten(states)); err != nil {
				t.Fatal(err)
			}
			for i := range states {
				for j := 0; j < testActions; j++ {
					if out.Q[i][j] != qWant[i*testActions+j] {
						t.Fatalf("q[%d][%d] = %v, want %v", i, j, out.Q[i][j], qWant[i*testActions+j])
					}
				}
			}
		})
	}
}

func TestDecideRejectsBadRequests(t *testing.T) {
	srv, _, _ := newTestServer(t, nil)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	cases := []DecideRequest{
		{},                            // neither state nor states
		{State: []float64{1, 2}},      // wrong dimension
		{States: [][]float64{{1, 2}}}, // wrong dimension in batch
		{States: [][]float64{}},       // empty batch
		{State: make([]float64, testStateDim),
			States: randStates(rand.New(rand.NewSource(2)), 1, testStateDim)}, // both
	}
	for i, req := range cases {
		out, resp := postDecide(t, ts.URL, req)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("case %d: status %d, want 400", i, resp.StatusCode)
		}
		if out.Error == "" {
			t.Fatalf("case %d: 400 without JSON error body", i)
		}
	}

	// Malformed JSON must also give a JSON 400, not a decoder panic.
	out, resp := postJSON(t, ts.URL+"/v1/decide", []byte(`{"state": [1,`))
	if resp.StatusCode != http.StatusBadRequest || out.Error == "" {
		t.Fatalf("malformed JSON: status %d error %q, want JSON 400", resp.StatusCode, out.Error)
	}

	if resp, err := http.Get(ts.URL + "/v1/decide"); err != nil {
		t.Fatal(err)
	} else if resp.Body.Close(); resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET decide status %d, want 405", resp.StatusCode)
	}

	var stats map[string]any
	resp2, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp2.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if stats["errors"].(float64) < float64(len(cases)) {
		t.Fatalf("stats errors = %v, want >= %d", stats["errors"], len(cases))
	}
}

// TestDecideBodyCap proves the request-body cap returns a JSON 413, that a
// request under the cap still works, that bytes trailing the request count
// against the cap, and that a negative cap is refused at construction
// instead of capping every body at 0 bytes.
func TestDecideBodyCap(t *testing.T) {
	if _, err := New(Config{MaxBody: -1}); err == nil || !strings.Contains(err.Error(), "max body") {
		t.Fatalf("New with MaxBody -1: err %v, want a max body error", err)
	}

	srv, _, _ := newTestServer(t, func(c *Config) { c.MaxBody = 512 })
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	big, err := json.Marshal(DecideRequest{States: randStates(rand.New(rand.NewSource(3)), 64, testStateDim)})
	if err != nil {
		t.Fatal(err)
	}
	if len(big) <= 512 {
		t.Fatalf("test body only %d bytes", len(big))
	}
	out, resp := postJSON(t, ts.URL+"/v1/decide", big)
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversize body: status %d, want 413", resp.StatusCode)
	}
	if !strings.Contains(out.Error, "512") {
		t.Fatalf("413 error %q does not name the cap", out.Error)
	}

	if out, resp := postDecide(t, ts.URL, DecideRequest{State: make([]float64, testStateDim)}); resp.StatusCode != http.StatusOK || out.Action == nil {
		t.Fatalf("small body after 413: status %d", resp.StatusCode)
	}

	// The whole body counts against the cap, not just its first JSON value:
	// a request that fits but trails bytes past the cap is a 413 too.
	small, err := json.Marshal(DecideRequest{State: make([]float64, testStateDim)})
	if err != nil {
		t.Fatal(err)
	}
	trailing := append(small, bytes.Repeat([]byte(" "), 512)...)
	if out, resp := postJSON(t, ts.URL+"/v1/decide", trailing); resp.StatusCode != http.StatusRequestEntityTooLarge || !strings.Contains(out.Error, "512") {
		t.Fatalf("%d-byte request trailing %d bytes: status %d error %q, want 413", len(small), len(trailing)-len(small), resp.StatusCode, out.Error)
	}
}

func TestMultiModelRoutingAndReload(t *testing.T) {
	dir := t.TempDir()
	pathA := filepath.Join(dir, "a.ctdq")
	pathB := filepath.Join(dir, "b.ctdq")
	learnerA := writeLearnerFile(t, pathA, 7)
	learnerB := writeLearnerFile(t, pathB, 99)
	snapA, err := learnerA.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	snapB, err := learnerB.Snapshot()
	if err != nil {
		t.Fatal(err)
	}

	srv, err := New(Config{
		Models: []ModelSpec{
			{Name: "alpha", Path: pathA},
			{Name: "beta", Path: pathB},
		},
		Batching: true,
		MaxBatch: 8,
		Window:   100 * time.Microsecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	states := randStates(rand.New(rand.NewSource(4)), 6, testStateDim)
	wantA := make([]int, len(states))
	wantB := make([]int, len(states))
	if err := snapA.GreedyBatch(wantA, flatten(states)); err != nil {
		t.Fatal(err)
	}
	if err := snapB.GreedyBatch(wantB, flatten(states)); err != nil {
		t.Fatal(err)
	}
	differ := false
	for i := range wantA {
		if wantA[i] != wantB[i] {
			differ = true
		}
	}
	if !differ {
		t.Fatal("test models agree on every state; routing test is vacuous")
	}

	check := func(url string, want []int) {
		t.Helper()
		body, _ := json.Marshal(DecideRequest{States: states})
		out, resp := postJSON(t, url, body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d", url, resp.StatusCode)
		}
		for i, a := range out.Actions {
			if a != want[i] {
				t.Fatalf("%s: action %d = %d, want %d", url, i, a, want[i])
			}
		}
	}
	// Legacy route serves the first (default) model; named routes each model.
	check(ts.URL+"/v1/decide", wantA)
	check(ts.URL+"/v1/models/alpha/decide", wantA)
	check(ts.URL+"/v1/models/beta/decide", wantB)

	// Unknown models 404 with a JSON error.
	out, resp := postJSON(t, ts.URL+"/v1/models/nope/decide", []byte(`{"state":[0,0,0,0,0,0]}`))
	if resp.StatusCode != http.StatusNotFound || out.Error == "" {
		t.Fatalf("unknown model: status %d error %q", resp.StatusCode, out.Error)
	}

	// Per-model reload: rewrite beta's file with alpha's weights, reload only
	// beta, and watch beta flip while alpha is untouched.
	writeLearnerFile(t, pathB, 7)
	resp, err = http.Post(ts.URL+"/v1/models/beta/reload", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("beta reload status %d", resp.StatusCode)
	}
	check(ts.URL+"/v1/models/beta/decide", wantA)
	check(ts.URL+"/v1/models/alpha/decide", wantA)

	// A corrupt file fails the reload and keeps the old snapshot serving.
	if err := os.WriteFile(pathA, []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	resp, err = http.Post(ts.URL+"/v1/models/alpha/reload", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		t.Fatal("reload of garbage succeeded")
	}
	check(ts.URL+"/v1/models/alpha/decide", wantA)

	// Legacy reload-all reports the failure but reloads what it can.
	resp, err = http.Post(ts.URL+"/v1/reload", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		t.Fatal("reload-all with a corrupt model succeeded")
	}

	// The registry listing names both models and the default.
	var listing struct {
		Models []map[string]any `json:"models"`
	}
	resp, err = http.Get(ts.URL + "/v1/models")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&listing); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(listing.Models) != 2 {
		t.Fatalf("listing has %d models, want 2", len(listing.Models))
	}
	for _, m := range listing.Models {
		isDefault := m["default"].(bool)
		if (m["name"] == "alpha") != isDefault {
			t.Fatalf("model %v default=%v, want alpha only", m["name"], isDefault)
		}
	}
}

func TestStatsHistograms(t *testing.T) {
	srv, _, _ := newTestServer(t, func(c *Config) { c.MaxBatch = 4; c.Window = 50 * time.Microsecond })
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 40; i++ {
		if _, resp := postDecide(t, ts.URL, DecideRequest{State: randStates(rng, 1, testStateDim)[0]}); resp.StatusCode != http.StatusOK {
			t.Fatalf("decide %d: status %d", i, resp.StatusCode)
		}
	}

	var stats struct {
		Requests float64 `json:"requests"`
		Batching struct {
			Enabled  bool    `json:"enabled"`
			MaxBatch float64 `json:"max_batch"`
			WindowUS float64 `json:"window_us"`
		} `json:"batching"`
		Models map[string]struct {
			Requests  float64 `json:"requests"`
			States    float64 `json:"states_served"`
			LatencyUS struct {
				Count   float64            `json:"count"`
				MeanUS  float64            `json:"mean_us"`
				P50     float64            `json:"p50_us"`
				P95     float64            `json:"p95_us"`
				P99     float64            `json:"p99_us"`
				Buckets map[string]float64 `json:"buckets"`
			} `json:"latency_us"`
			Batch struct {
				Flushes       float64 `json:"flushes"`
				FlushesFull   float64 `json:"flushes_full"`
				FlushesWindow float64 `json:"flushes_window"`
				MeanFill      float64 `json:"mean_fill"`
			} `json:"batch"`
		} `json:"models"`
	}
	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	m, ok := stats.Models["default"]
	if !ok {
		t.Fatalf("stats models = %v, want default", stats.Models)
	}
	if m.Requests != 40 || m.States != 40 {
		t.Fatalf("requests/states = %v/%v, want 40/40", m.Requests, m.States)
	}
	if m.LatencyUS.Count != 40 {
		t.Fatalf("latency count %v, want 40", m.LatencyUS.Count)
	}
	if m.LatencyUS.P50 <= 0 || m.LatencyUS.P95 < m.LatencyUS.P50 || m.LatencyUS.P99 < m.LatencyUS.P95 {
		t.Fatalf("latency quantiles not monotone: p50=%v p95=%v p99=%v",
			m.LatencyUS.P50, m.LatencyUS.P95, m.LatencyUS.P99)
	}
	if len(m.LatencyUS.Buckets) == 0 {
		t.Fatal("latency histogram has no buckets")
	}
	// Serial requests flush as singletons via the window timer; the batch
	// distribution must account for every state either way.
	if m.Batch.Flushes <= 0 || m.Batch.Flushes != m.Batch.FlushesFull+m.Batch.FlushesWindow {
		t.Fatalf("flushes %v != full %v + window %v",
			m.Batch.Flushes, m.Batch.FlushesFull, m.Batch.FlushesWindow)
	}
	if m.Batch.MeanFill < 1 {
		t.Fatalf("mean fill %v < 1", m.Batch.MeanFill)
	}
	if !stats.Batching.Enabled || stats.Batching.MaxBatch != 4 || stats.Batching.WindowUS != 50 {
		t.Fatalf("batching block = %+v", stats.Batching)
	}
}

func TestHealthzAndDrain(t *testing.T) {
	srv, _, _ := newTestServer(t, nil)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	var health map[string]any
	resp, err := http.Get(ts.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if health["status"] != "ok" {
		t.Fatalf("healthz status %v", health["status"])
	}
	if int(health["state_dim"].(float64)) != testStateDim || int(health["num_actions"].(float64)) != testActions {
		t.Fatalf("healthz dims %v x %v", health["state_dim"], health["num_actions"])
	}

	// After BeginDrain, decides 503 (JSON) and healthz reports draining.
	srv.BeginDrain()
	out, resp2 := postDecide(t, ts.URL, DecideRequest{State: make([]float64, testStateDim)})
	if resp2.StatusCode != http.StatusServiceUnavailable || out.Error == "" {
		t.Fatalf("draining decide: status %d error %q, want JSON 503", resp2.StatusCode, out.Error)
	}
	resp, err = http.Get(ts.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	health = map[string]any{}
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if health["status"] != "draining" {
		t.Fatalf("healthz status after drain = %v", health["status"])
	}
	// Idempotent.
	srv.BeginDrain()
}

// TestGracefulShutdownDrainsInFlight wires the Server to a real http.Server
// and proves the SIGTERM path: BeginDrain + Shutdown completes while open
// streaming sessions exist, without dropping their in-flight decisions.
func TestGracefulShutdownDrainsInFlight(t *testing.T) {
	srv, snap, _ := newTestServer(t, nil)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Open a session and complete one decision so the connection is live.
	pr, pw := io.Pipe()
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/session", pr)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	state := make([]float64, testStateDim)
	want := make([]int, 1)
	if err := snap.GreedyBatch(want, state); err != nil {
		t.Fatal(err)
	}
	enc := json.NewEncoder(pw)
	dec := json.NewDecoder(resp.Body)
	if err := enc.Encode(DecideRequest{State: state}); err != nil {
		t.Fatal(err)
	}
	var out DecideResponse
	if err := dec.Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.Action == nil || *out.Action != want[0] {
		t.Fatalf("session action %v, want %d", out.Action, want[0])
	}

	// Drain with the session still open: the blocked read must unblock and
	// the server must close the stream promptly.
	doneDrain := make(chan struct{})
	go func() {
		srv.BeginDrain()
		close(doneDrain)
	}()
	select {
	case <-doneDrain:
	case <-time.After(5 * time.Second):
		t.Fatal("BeginDrain hung")
	}
	readDone := make(chan error, 1)
	go func() {
		var out DecideResponse
		readDone <- dec.Decode(&out)
	}()
	select {
	case err := <-readDone:
		if err == nil {
			t.Fatal("session kept serving after drain")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("session did not unblock after drain")
	}
	pw.Close()
}
