// Package serve is ctjam's production-style inference layer: the machinery
// behind cmd/ctjam-serve. It turns the repo's batched forward kernels
// (nn.ForwardBatch via policy.DQN / rl.Snapshot) into a server that holds its
// peak-throughput shape under real traffic:
//
//   - Cross-request micro-batching. The AVX kernels peak near batch 256, but
//     a fleet of independent links sends single-state requests. A per-model
//     Batcher coalesces concurrent decisions into one batched forward pass,
//     bounded by a max batch size and a latency window (the worst-case
//     queueing delay a lone request pays). Steady state is ~0 allocs per
//     decision: pooled micro-batch buffers, pooled forward scratch, and
//     zero-copy admission into the batch buffer.
//   - Multi-model registry. One process serves many named checkpoints
//     (/v1/models/{name}/decide), each with its own admission queue, stats
//     and hot reload (POST /v1/models/{name}/reload; SIGHUP and the legacy
//     POST /v1/reload reload all). The legacy single-model routes keep
//     working against a designated default model.
//   - Streaming sessions. POST /v1/session upgrades to full-duplex NDJSON
//     over the request/response pair: a link writes one JSON decide line per
//     slot and reads one decision line back, holding a single connection for
//     its whole hopping session instead of paying HTTP per slot. Session
//     decisions flow through the same per-model batcher, so concurrent
//     sessions batch together.
//   - Observability. /v1/stats reports per-model fixed-bucket latency
//     histograms (p50/p95/p99), batch-fill distribution, and
//     window-timeout-vs-full-batch flush counts.
//
// Graceful shutdown (Server.BeginDrain + http.Server.Shutdown) gates new
// admissions with 503, flushes pending micro-batches, unblocks streaming
// sessions, and lets in-flight requests finish, so rolling restarts do not
// drop decisions.
package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net/http"
	"net/http/pprof"
	"sync"
	"time"
)

// Config assembles a Server.
type Config struct {
	// Models is the checkpoint set to serve; the first entry is the default
	// model unless DefaultModel overrides.
	Models       []ModelSpec
	DefaultModel string

	// Batching toggles the micro-batcher. Off, every request runs its own
	// forward pass (the per-request baseline the benchmark compares against).
	Batching bool
	// MaxBatch caps states per batched forward (default 256, where the AVX
	// kernels peak).
	MaxBatch int
	// Window is the micro-batch latency budget: the longest a lone admission
	// waits before its partial batch flushes (default 200µs).
	Window time.Duration

	// MaxBody caps decide request bodies in bytes (default 8 MiB, negative
	// is an error); larger bodies get a JSON 413.
	MaxBody int64

	// PProf mounts net/http/pprof under /debug/pprof/.
	PProf bool
}

// Defaults for Config zero values.
const (
	DefaultMaxBatch = 256
	DefaultWindow   = 200 * time.Microsecond
	DefaultMaxBody  = 8 << 20
)

// Server is the HTTP inference service: a model registry plus the handler
// surface and drain logic around it.
type Server struct {
	cfg     Config
	reg     *Registry
	start   time.Time
	drainCh chan struct{}
	drainMu sync.Mutex
	scratch sync.Pool // *reqScratch, for the direct (non-batched) path
}

// reqScratch holds the direct path's per-request buffers.
type reqScratch struct {
	flat    []float64
	actions []int
	q       []float64
}

// New loads every configured model and builds the service.
func New(cfg Config) (*Server, error) {
	if cfg.MaxBatch == 0 {
		cfg.MaxBatch = DefaultMaxBatch
	}
	if cfg.Window == 0 {
		cfg.Window = DefaultWindow
	}
	if cfg.MaxBody == 0 {
		cfg.MaxBody = DefaultMaxBody
	}
	if cfg.MaxBody < 0 {
		return nil, fmt.Errorf("serve: max body %d must not be negative", cfg.MaxBody)
	}
	reg, err := NewRegistry(cfg.Models, cfg.DefaultModel, cfg.MaxBatch, cfg.Window)
	if err != nil {
		return nil, err
	}
	s := &Server{cfg: cfg, reg: reg, start: time.Now(), drainCh: make(chan struct{})}
	s.scratch.New = func() any { return new(reqScratch) }
	return s, nil
}

// Registry exposes the model set (for logging and tests).
func (s *Server) Registry() *Registry { return s.reg }

// ReloadAll reloads every model (the SIGHUP path).
func (s *Server) ReloadAll() error { return s.reg.ReloadAll() }

// BeginDrain stops admissions: new decide/session requests get 503, pending
// micro-batches flush immediately, and open streaming sessions are unblocked
// so http.Server.Shutdown can complete. Safe to call more than once.
func (s *Server) BeginDrain() {
	s.drainMu.Lock()
	select {
	case <-s.drainCh:
	default:
		close(s.drainCh)
		s.reg.closeAll()
	}
	s.drainMu.Unlock()
}

// draining reports whether BeginDrain has been called.
func (s *Server) draining() bool {
	select {
	case <-s.drainCh:
		return true
	default:
		return false
	}
}

// Handler builds the route table.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/decide", s.withModel(s.handleDecide, ""))
	mux.HandleFunc("POST /v1/models/{model}/decide", s.withModel(s.handleDecide, "model"))
	mux.HandleFunc("POST /v1/session", s.withModel(s.handleSession, ""))
	mux.HandleFunc("POST /v1/models/{model}/session", s.withModel(s.handleSession, "model"))
	mux.HandleFunc("POST /v1/reload", s.handleReloadAll)
	mux.HandleFunc("POST /v1/models/{model}/reload", s.withModel(s.handleReload, "model"))
	mux.HandleFunc("GET /v1/models", s.handleModels)
	mux.HandleFunc("GET /v1/healthz", s.handleHealthz)
	mux.HandleFunc("GET /v1/stats", s.handleStats)
	if s.cfg.PProf {
		// The DefaultServeMux registrations done by importing net/http/pprof
		// don't apply to a private mux, so mount the handlers explicitly.
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return mux
}

// withModel resolves the route's model (the default for legacy routes, the
// {model} path segment for named ones) before invoking h.
func (s *Server) withModel(h func(http.ResponseWriter, *http.Request, *Model), pathVar string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		m := s.reg.Default()
		if pathVar != "" {
			if m = s.reg.Lookup(r.PathValue(pathVar)); m == nil {
				writeError(w, http.StatusNotFound, fmt.Errorf("unknown model %q", r.PathValue(pathVar)))
				return
			}
		}
		h(w, r, m)
	}
}

// DecideRequest is one decision query: a single state or a stacked batch
// (exactly one must be set), optionally asking for the full Q rows.
type DecideRequest struct {
	State   []float64   `json:"state,omitempty"`
	States  [][]float64 `json:"states,omitempty"`
	QValues bool        `json:"qvalues,omitempty"`
}

// DecideResponse answers a DecideRequest. Over streaming sessions a failed
// decision sets Error and leaves the rest empty.
type DecideResponse struct {
	Action  *int        `json:"action,omitempty"`
	Actions []int       `json:"actions,omitempty"`
	Q       [][]float64 `json:"q,omitempty"`
	Error   string      `json:"error,omitempty"`
}

func (s *Server) handleDecide(w http.ResponseWriter, r *http.Request, m *Model) {
	if s.draining() {
		s.failModel(m, w, http.StatusServiceUnavailable, errors.New("server is draining"))
		return
	}
	start := time.Now()
	var req DecideRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, s.cfg.MaxBody)).Decode(&req); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			s.failModel(m, w, http.StatusRequestEntityTooLarge,
				fmt.Errorf("request body exceeds %d bytes", tooBig.Limit))
		} else {
			s.failModel(m, w, http.StatusBadRequest, fmt.Errorf("decode request: %w", err))
		}
		return
	}
	resp, code, err := s.decide(m, &req)
	if err != nil {
		s.failModel(m, w, code, err)
		return
	}
	m.stats.Latency.ObserveDuration(time.Since(start))
	writeJSON(w, http.StatusOK, resp)
}

// decide runs one DecideRequest against a model, routing lone greedy states
// through the micro-batcher and everything else (stacked batches, Q-value
// queries) through the direct path — a stacked batch is already a batch, and
// Q rows are a debugging surface that would bloat the shared batch buffers.
// It returns the response, or the HTTP status and error describing why the
// request is unservable.
func (s *Server) decide(m *Model, req *DecideRequest) (*DecideResponse, int, error) {
	m.stats.Requests.Add(1)
	// Presence is by len, not nil, so session handlers can reuse request
	// buffers across lines (a reset slice is empty but non-nil).
	single := len(req.State) > 0
	if single == (len(req.States) > 0) {
		return nil, http.StatusBadRequest, errors.New(`exactly one of "state" and "states" must be set (and non-empty)`)
	}
	pol := m.policy()
	dim := pol.StateDim()

	var resp DecideResponse
	if single && !req.QValues && s.cfg.Batching {
		if len(req.State) != dim {
			return nil, http.StatusBadRequest,
				fmt.Errorf("state has %d features, model wants %d", len(req.State), dim)
		}
		action, err := m.batcher.Decide(req.State)
		if err != nil {
			return nil, http.StatusInternalServerError, err
		}
		m.stats.States.Add(1)
		resp.Action = &action
		return &resp, 0, nil
	}

	states := req.States
	if single {
		states = [][]float64{req.State}
	}
	if len(states) == 0 {
		return nil, http.StatusBadRequest, errors.New("empty batch")
	}
	sc := s.scratch.Get().(*reqScratch)
	defer s.scratch.Put(sc)
	sc.flat = sc.flat[:0]
	for i, st := range states {
		if len(st) != dim {
			return nil, http.StatusBadRequest,
				fmt.Errorf("state %d has %d features, model wants %d", i, len(st), dim)
		}
		sc.flat = append(sc.flat, st...)
	}
	n := len(states)
	if cap(sc.actions) < n {
		sc.actions = make([]int, n)
	}
	actions := sc.actions[:n]
	if req.QValues {
		// One forward serves both: take the argmax from the Q rows.
		na := pol.NumActions()
		if cap(sc.q) < n*na {
			sc.q = make([]float64, n*na)
		}
		q := sc.q[:n*na]
		if err := pol.QValuesBatch(q, sc.flat); err != nil {
			return nil, http.StatusInternalServerError, err
		}
		resp.Q = make([][]float64, n)
		for i := 0; i < n; i++ {
			row := q[i*na : (i+1)*na]
			resp.Q[i] = append([]float64(nil), row...)
			actions[i] = argmax(row)
		}
	} else if err := pol.DecideBatch(sc.flat, actions); err != nil {
		return nil, http.StatusInternalServerError, err
	}
	m.stats.Direct.Add(1)
	m.stats.States.Add(int64(n))
	if single {
		a := actions[0]
		resp.Action = &a
	} else {
		resp.Actions = append([]int(nil), actions...)
	}
	return &resp, 0, nil
}

// argmax matches rl's tie-breaking: the first maximal action wins.
func argmax(xs []float64) int {
	best := 0
	for i, x := range xs {
		if x > xs[best] {
			best = i
		}
	}
	return best
}

func (s *Server) handleReloadAll(w http.ResponseWriter, r *http.Request) {
	if err := s.reg.ReloadAll(); err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	reloads := make(map[string]int64, len(s.reg.Names()))
	for _, name := range s.reg.Names() {
		reloads[name] = s.reg.Lookup(name).Reloads()
	}
	writeJSON(w, http.StatusOK, map[string]any{"reloads": reloads})
}

func (s *Server) handleReload(w http.ResponseWriter, r *http.Request, m *Model) {
	if err := m.Reload(); err != nil {
		s.failModel(m, w, http.StatusInternalServerError, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"model": m.Name(), "reloads": m.Reloads()})
}

// handleModels lists the registry. Every model serves on the exact float64
// engine; the "engine" field (here and in /v1/stats) stays so clients that
// read it keep working.
func (s *Server) handleModels(w http.ResponseWriter, r *http.Request) {
	models := make([]map[string]any, 0, len(s.reg.Names()))
	for _, name := range s.reg.Names() {
		m := s.reg.Lookup(name)
		pol := m.policy()
		models = append(models, map[string]any{
			"name":        name,
			"path":        m.Path(),
			"engine":      "exact",
			"default":     name == s.reg.Default().Name(),
			"state_dim":   pol.StateDim(),
			"num_actions": pol.NumActions(),
			"reloads":     m.Reloads(),
		})
	}
	writeJSON(w, http.StatusOK, map[string]any{"models": models})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	status := "ok"
	if s.draining() {
		status = "draining"
	}
	m := s.reg.Default()
	pol := m.policy()
	writeJSON(w, http.StatusOK, map[string]any{
		"status":      status,
		"models":      s.reg.Names(),
		"model":       m.Path(),
		"state_dim":   pol.StateDim(),
		"num_actions": pol.NumActions(),
		"reloads":     m.Reloads(),
	})
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	var requests, errCount int64
	models := make(map[string]any, len(s.reg.Names()))
	for _, name := range s.reg.Names() {
		m := s.reg.Lookup(name)
		st := &m.stats
		requests += st.Requests.Load()
		errCount += st.Errors.Load()
		flushes := st.FlushFull.Load() + st.FlushWindow.Load()
		models[name] = map[string]any{
			"path":              m.Path(),
			"engine":            "exact",
			"reloads":           m.Reloads(),
			"requests":          st.Requests.Load(),
			"states_served":     st.States.Load(),
			"errors":            st.Errors.Load(),
			"sessions":          st.Sessions.Load(),
			"session_decisions": st.SessionDecisions.Load(),
			"latency_us":        latencyStats(&st.Latency),
			"batch": map[string]any{
				"flushes":        flushes,
				"flushes_full":   st.FlushFull.Load(),
				"flushes_window": st.FlushWindow.Load(),
				"mean_fill":      st.BatchFill.Mean(),
				"p50_fill":       st.BatchFill.Quantile(0.50),
				"direct":         st.Direct.Load(),
			},
		}
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"requests": requests,
		"errors":   errCount,
		"uptime_s": time.Since(s.start).Seconds(),
		"batching": map[string]any{
			"enabled":   s.cfg.Batching,
			"max_batch": s.cfg.MaxBatch,
			"window_us": float64(s.cfg.Window) / float64(time.Microsecond),
		},
		"models": models,
	})
}

// failModel counts the error against the model and writes the JSON error.
func (s *Server) failModel(m *Model, w http.ResponseWriter, code int, err error) {
	m.stats.Errors.Add(1)
	writeError(w, code, err)
}

func writeError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, map[string]string{"error": err.Error()})
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	if err := json.NewEncoder(w).Encode(v); err != nil {
		log.Printf("serve: write response: %v", err)
	}
}
