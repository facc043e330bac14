package serve

import (
	"encoding/json"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"
)

// sessionClient is a test-side streaming session: write one request, read
// one response, over a single held connection.
type sessionClient struct {
	pw   *io.PipeWriter
	resp *http.Response
	enc  *json.Encoder
	dec  *json.Decoder
}

func openSession(t testing.TB, url string) *sessionClient {
	t.Helper()
	pr, pw := io.Pipe()
	req, err := http.NewRequest(http.MethodPost, url, pr)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/x-ndjson")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		t.Fatalf("session status %d", resp.StatusCode)
	}
	return &sessionClient{pw: pw, resp: resp, enc: json.NewEncoder(pw), dec: json.NewDecoder(resp.Body)}
}

func (c *sessionClient) roundTrip(t testing.TB, req DecideRequest) DecideResponse {
	t.Helper()
	if err := c.enc.Encode(req); err != nil {
		t.Fatal(err)
	}
	var out DecideResponse
	if err := c.dec.Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out
}

func (c *sessionClient) close() {
	c.pw.Close()
	io.Copy(io.Discard, c.resp.Body)
	c.resp.Body.Close()
}

// TestSessionStreamsDecisions holds one connection for many decisions and
// checks every action against a reference, including recovery from an
// in-stream dimension error. It runs on the legacy route against the
// snapshot, and on the per-model route of a non-default model against that
// model's direct batch decide.
func TestSessionStreamsDecisions(t *testing.T) {
	states := randStates(rand.New(rand.NewSource(11)), 20, testStateDim)
	t.Run("legacy-exact", func(t *testing.T) {
		srv, snap, _ := newTestServer(t, nil)
		ts := httptest.NewServer(srv.Handler())
		defer ts.Close()
		want := make([]int, len(states))
		if err := snap.GreedyBatch(want, flatten(states)); err != nil {
			t.Fatal(err)
		}
		checkSessionStream(t, ts.URL, ts.URL+"/v1", "default", states, want)
	})
	t.Run("models-route", func(t *testing.T) {
		ts := httptest.NewServer(newTwoModelServer(t).Handler())
		defer ts.Close()
		body, err := json.Marshal(DecideRequest{States: states})
		if err != nil {
			t.Fatal(err)
		}
		direct, resp := postJSON(t, ts.URL+"/v1/models/canary/decide", body)
		if resp.StatusCode != http.StatusOK || len(direct.Actions) != len(states) {
			t.Fatalf("direct decide: status %d, %d actions", resp.StatusCode, len(direct.Actions))
		}
		checkSessionStream(t, ts.URL, ts.URL+"/v1/models/canary", "canary", states, direct.Actions)
	})
}

// checkSessionStream streams states through prefix+"/session" and checks
// each answer against want and the model's session counters on /v1/stats.
func checkSessionStream(t *testing.T, base, prefix, model string, states [][]float64, want []int) {
	t.Helper()
	c := openSession(t, prefix+"/session")
	defer c.close()

	for i, st := range states {
		out := c.roundTrip(t, DecideRequest{State: st})
		if out.Error != "" || out.Action == nil {
			t.Fatalf("decision %d: error %q", i, out.Error)
		}
		if *out.Action != want[i] {
			t.Fatalf("decision %d = %d, want %d", i, *out.Action, want[i])
		}
	}

	// A recoverable error (wrong dimension) answers with an error line and
	// the session keeps serving.
	out := c.roundTrip(t, DecideRequest{State: []float64{1}})
	if out.Error == "" {
		t.Fatal("wrong-dimension state served without error")
	}
	out = c.roundTrip(t, DecideRequest{State: states[0]})
	if out.Error != "" || out.Action == nil || *out.Action != want[0] {
		t.Fatalf("session did not recover after error line: %+v", out)
	}

	// Stacked batches work over sessions too.
	out = c.roundTrip(t, DecideRequest{States: states[:5]})
	if out.Error != "" || len(out.Actions) != 5 {
		t.Fatalf("session batch: %+v", out)
	}
	for i, a := range out.Actions {
		if a != want[i] {
			t.Fatalf("session batch action %d = %d, want %d", i, a, want[i])
		}
	}

	// Session counters made it into the stats.
	var stats struct {
		Models map[string]struct {
			Sessions         float64 `json:"sessions"`
			SessionDecisions float64 `json:"session_decisions"`
		} `json:"models"`
	}
	resp, err := http.Get(base + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	m := stats.Models[model]
	if m.Sessions != 1 || m.SessionDecisions < 21 {
		t.Fatalf("model %q session stats %+v, want 1 session with >= 21 decisions", model, m)
	}
}

// TestSessionMalformedStream proves broken framing gets one error line and a
// clean end of stream.
func TestSessionMalformedStream(t *testing.T) {
	srv, _, _ := newTestServer(t, nil)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	c := openSession(t, ts.URL+"/v1/session")
	defer c.close()
	// "nope" is a hard syntax error (an incomplete-but-valid prefix would
	// just block the decoder waiting for the rest of the value).
	if _, err := io.WriteString(c.pw, "nope\n"); err != nil {
		t.Fatal(err)
	}
	var out DecideResponse
	if err := c.dec.Decode(&out); err != nil {
		t.Fatalf("expected an error line, got stream error %v", err)
	}
	if out.Error == "" {
		t.Fatalf("malformed line answered with %+v, want error", out)
	}
	if err := c.dec.Decode(&out); err != io.EOF {
		t.Fatalf("session kept going after broken framing: %v", err)
	}
}

// TestConcurrentSessionsBatchTogether runs many simultaneous sessions and
// proves their single-state decisions coalesce: with the batcher on, the
// fused-flush counters must show multi-state fills.
func TestConcurrentSessionsBatchTogether(t *testing.T) {
	srv, snap, _ := newTestServer(t, func(c *Config) {
		c.MaxBatch = 8
		c.Window = 2 * time.Millisecond
	})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	const sessions, perSession = 8, 30
	var wg sync.WaitGroup
	for g := 0; g < sessions; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			c := openSession(t, ts.URL+"/v1/session")
			defer c.close()
			rng := rand.New(rand.NewSource(int64(100 + g)))
			for i := 0; i < perSession; i++ {
				st := randStates(rng, 1, testStateDim)[0]
				want := make([]int, 1)
				if err := snap.GreedyBatch(want, st); err != nil {
					t.Error(err)
					return
				}
				out := c.roundTrip(t, DecideRequest{State: st})
				if out.Error != "" || out.Action == nil || *out.Action != want[0] {
					t.Errorf("session %d decision %d: got %+v want %d", g, i, out, want[0])
					return
				}
			}
		}(g)
	}
	wg.Wait()

	m := srv.Registry().Default()
	total := m.stats.FlushFull.Load() + m.stats.FlushWindow.Load()
	if total == 0 {
		t.Fatal("no batch flushes recorded")
	}
	if fill := m.stats.BatchFill.Mean(); fill <= 1 {
		t.Logf("mean fill %v: concurrent sessions never coalesced (timing-dependent; not fatal)", fill)
	}
	if m.stats.SessionDecisions.Load() != sessions*perSession {
		t.Fatalf("session decisions %d, want %d", m.stats.SessionDecisions.Load(), sessions*perSession)
	}
}
