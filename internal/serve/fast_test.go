package serve

import (
	"encoding/json"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"testing"
	"time"

	"ctjam/internal/policy"
	"ctjam/internal/rl"
)

// newDualEngineServer serves the same checkpoint twice: once exact, once on
// the float32 fast path, so tests can compare the two through the full HTTP
// surface.
func newDualEngineServer(t testing.TB) *Server {
	t.Helper()
	path := filepath.Join(t.TempDir(), "model.ctdq")
	writeLearnerFile(t, path, 11)
	srv, err := New(Config{
		Models: []ModelSpec{
			{Name: "exact", Path: path},
			{Name: "fast", Path: path, Fast: true},
		},
		Batching: true,
		MaxBatch: 8,
		Window:   100 * time.Microsecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	return srv
}

func TestFastModelEngine(t *testing.T) {
	srv := newDualEngineServer(t)
	for name, want := range map[string]rl.Engine{"exact": rl.EngineExact, "fast": rl.EngineFast32} {
		m := srv.Registry().Lookup(name)
		if m == nil {
			t.Fatalf("model %q missing from registry", name)
		}
		dqn, ok := m.policy().(*policy.DQN)
		if !ok {
			t.Fatalf("model %q policy is %T, want *policy.DQN", name, m.policy())
		}
		if got := dqn.Engine(); got != want {
			t.Errorf("model %q runs on engine %v, want %v", name, got, want)
		}
		// Reload must keep the engine choice, not silently fall back to exact.
		if err := m.Reload(); err != nil {
			t.Fatalf("reload %q: %v", name, err)
		}
		if got := m.policy().(*policy.DQN).Engine(); got != want {
			t.Errorf("model %q after reload runs on engine %v, want %v", name, got, want)
		}
	}
	if got := srv.Registry().Lookup("fast").Engine(); got != "fast32" {
		t.Errorf("Model.Engine() = %q, want \"fast32\"", got)
	}
	if got := srv.Registry().Lookup("exact").Engine(); got != "exact" {
		t.Errorf("Model.Engine() = %q, want \"exact\"", got)
	}
}

// TestFastEngineReported pins the observability contract: both /v1/models and
// /v1/stats name the engine each model serves on.
func TestFastEngineReported(t *testing.T) {
	srv := newDualEngineServer(t)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	engines := func(url, listKey string) map[string]string {
		t.Helper()
		resp, err := http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var body map[string]json.RawMessage
		if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
			t.Fatal(err)
		}
		out := make(map[string]string)
		if listKey == "models" && url == ts.URL+"/v1/models" {
			var models struct {
				Models []struct {
					Name   string `json:"name"`
					Engine string `json:"engine"`
				} `json:"models"`
			}
			if err := json.Unmarshal(body["models"], &models.Models); err != nil {
				t.Fatal(err)
			}
			for _, m := range models.Models {
				out[m.Name] = m.Engine
			}
			return out
		}
		var models map[string]struct {
			Engine string `json:"engine"`
		}
		if err := json.Unmarshal(body["models"], &models); err != nil {
			t.Fatal(err)
		}
		for name, m := range models {
			out[name] = m.Engine
		}
		return out
	}

	for _, url := range []string{ts.URL + "/v1/models", ts.URL + "/v1/stats"} {
		got := engines(url, "models")
		if got["exact"] != "exact" || got["fast"] != "fast32" {
			t.Errorf("%s reports engines %v, want exact/fast32", url, got)
		}
	}
}

// TestFastDecideAgreesWithExact drives the same random batches through the
// exact and fast models over HTTP and holds the served decisions to the fast
// path's agreement budget: >=99.9% identical actions, with every disagreement
// an exact-Q near-tie, and Q-values tolerance-close row by row.
func TestFastDecideAgreesWithExact(t *testing.T) {
	const (
		rounds     = 20
		batch      = 50
		agreeFloor = 0.999
		tieGap     = 1e-3
		qRel       = 5e-4
		qAbs       = 5e-4
	)
	srv := newDualEngineServer(t)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	rng := rand.New(rand.NewSource(23))
	agree, total := 0, 0
	for round := 0; round < rounds; round++ {
		states := randStates(rng, batch, testStateDim)
		req, err := json.Marshal(DecideRequest{States: states, QValues: true})
		if err != nil {
			t.Fatal(err)
		}
		exact, resp := postJSON(t, ts.URL+"/v1/models/exact/decide", req)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("exact decide: status %d", resp.StatusCode)
		}
		fast, resp := postJSON(t, ts.URL+"/v1/models/fast/decide", req)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("fast decide: status %d", resp.StatusCode)
		}
		if len(exact.Actions) != batch || len(fast.Actions) != batch {
			t.Fatalf("got %d exact / %d fast actions, want %d", len(exact.Actions), len(fast.Actions), batch)
		}
		for i := 0; i < batch; i++ {
			total++
			if exact.Actions[i] == fast.Actions[i] {
				agree++
			} else {
				// A disagreement is only legitimate at an exact-Q near-tie.
				row := exact.Q[i]
				gap := math.Abs(row[exact.Actions[i]] - row[fast.Actions[i]])
				if gap > tieGap {
					t.Errorf("round %d state %d: exact action %d, fast %d, exact-Q gap %g",
						round, i, exact.Actions[i], fast.Actions[i], gap)
				}
			}
			for a := range exact.Q[i] {
				e, f := exact.Q[i][a], fast.Q[i][a]
				if diff := math.Abs(e - f); diff > qAbs && diff > qRel*math.Abs(e) {
					t.Errorf("round %d state %d action %d: exact Q %g, fast Q %g", round, i, a, e, f)
				}
			}
		}
	}
	if ratio := float64(agree) / float64(total); ratio < agreeFloor {
		t.Fatalf("served action agreement %.5f over %d states, want >= %v", ratio, total, agreeFloor)
	}
}

func TestServerReloadAll(t *testing.T) {
	srv := newDualEngineServer(t)
	before := srv.Registry().Lookup("fast").Reloads()
	if err := srv.ReloadAll(); err != nil {
		t.Fatal(err)
	}
	for _, name := range srv.Registry().Names() {
		m := srv.Registry().Lookup(name)
		if m.Reloads() != before+1 {
			t.Errorf("model %q reloads = %d, want %d", name, m.Reloads(), before+1)
		}
	}
}
