package serve

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"testing"
)

// newTwoModelServer serves the newTestServer model as "default" plus a
// second checkpoint with other weights as "canary", so tests can tell a
// per-model route from the default one.
func newTwoModelServer(t testing.TB) *Server {
	t.Helper()
	path := filepath.Join(t.TempDir(), "canary.ctdq")
	writeLearnerFile(t, path, 11)
	srv, _, _ := newTestServer(t, func(c *Config) {
		c.Models = append(c.Models, ModelSpec{Name: "canary", Path: path})
	})
	return srv
}

func TestServerReloadAll(t *testing.T) {
	srv := newTwoModelServer(t)
	before := srv.Registry().Lookup("canary").Reloads()
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

// TestEngineReported pins the observability contract: both /v1/models and
// /v1/stats name the engine each model serves on, which is always the exact
// float64 engine.
func TestEngineReported(t *testing.T) {
	srv, _, _ := newTestServer(t, nil)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	get := func(url string, body any) {
		t.Helper()
		resp, err := http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if err := json.NewDecoder(resp.Body).Decode(body); err != nil {
			t.Fatal(err)
		}
	}
	type engine struct {
		Name   string `json:"name"`
		Engine string `json:"engine"`
	}
	var list struct{ Models []engine }
	get(ts.URL+"/v1/models", &list)
	if len(list.Models) != 1 || list.Models[0].Engine != "exact" {
		t.Errorf("/v1/models reports %+v, want one exact model", list.Models)
	}
	var stats struct{ Models map[string]engine }
	get(ts.URL+"/v1/stats", &stats)
	if got := stats.Models["default"].Engine; got != "exact" {
		t.Errorf("/v1/stats reports engine %q, want exact", got)
	}
}
