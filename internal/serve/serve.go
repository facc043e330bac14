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
//   - Reflection-free decide bodies. POST /v1/decide reads the body into a
//     pooled buffer and scans a body of the shape encoding/json writes
//     ({"states":[[n,…],…]}, {"state":[n,…]}, "qvalues") straight into the
//     pooled forward input, then writes a greedy answer with
//     strconv.AppendInt: the direct path allocates nothing per request
//     beyond net/http's own. Every other body goes, byte for byte, through
//     encoding/json, so it gets the same value or error text it always did;
//     FuzzDecideBody holds the two to the same bits.
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
	"bytes"
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
	scratch sync.Pool // *reqScratch
}

// reqScratch holds one request's buffers, reused through Server.scratch.
type reqScratch struct {
	body    bytes.Buffer // the decide request body
	flat    []float64    // its states, stacked row after row
	actions []int
	q       []float64
	action  int
	resp    DecideResponse // the answer; Action and Actions point into this scratch
	out     []byte         // the encoded greedy answer
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
	sc := s.scratch.Get().(*reqScratch)
	defer s.scratch.Put(sc)
	sc.body.Reset()
	if _, err := sc.body.ReadFrom(http.MaxBytesReader(w, r.Body, s.cfg.MaxBody)); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			s.failModel(m, w, http.StatusRequestEntityTooLarge,
				fmt.Errorf("request body exceeds %d bytes", tooBig.Limit))
		} else {
			s.failModel(m, w, http.StatusBadRequest, fmt.Errorf("decode request: %w", err))
		}
		return
	}
	if code, err := s.decideBody(m, sc); err != nil {
		s.failModel(m, w, code, err)
		return
	}
	m.stats.Latency.ObserveDuration(time.Since(start))
	if sc.resp.Q != nil {
		writeJSON(w, http.StatusOK, &sc.resp)
		return
	}
	sc.out = appendActions(sc.out[:0], &sc.resp)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	if _, err := w.Write(sc.out); err != nil {
		log.Printf("serve: write response: %v", err)
	}
}

// decideBody answers the decide body in sc.body, leaving the answer in
// sc.resp, or returns the HTTP status and error saying why it cannot. A body
// in the shape encoding/json writes is scanned straight into sc.flat; any
// other body goes, byte for byte, through json.Decoder, so it gets exactly
// the value or error encoding/json gives it.
func (s *Server) decideBody(m *Model, sc *reqScratch) (int, error) {
	pol := m.policy()
	var rows int
	var single, qvalues, ok bool
	if sc.flat, rows, single, qvalues, ok = scanDecide(sc.body.Bytes(), pol.StateDim(), sc.flat[:0]); ok {
		m.stats.Requests.Add(1)
		return s.run(m, pol, sc, rows, single, qvalues)
	}
	var req DecideRequest
	if err := json.NewDecoder(bytes.NewReader(sc.body.Bytes())).Decode(&req); err != nil {
		return http.StatusBadRequest, fmt.Errorf("decode request: %w", err)
	}
	return s.decide(m, &req, sc)
}

// decide checks a decoded DecideRequest against the model, stacks its states
// into sc.flat and answers it through run.
func (s *Server) decide(m *Model, req *DecideRequest, sc *reqScratch) (int, error) {
	m.stats.Requests.Add(1)
	// Presence is by len, not nil, so session handlers can reuse request
	// buffers across lines (a reset slice is empty but non-nil).
	single := len(req.State) > 0
	if single == (len(req.States) > 0) {
		return http.StatusBadRequest, errors.New(`exactly one of "state" and "states" must be set (and non-empty)`)
	}
	pol := m.policy()
	dim := pol.StateDim()
	sc.flat = sc.flat[:0]
	if single {
		if len(req.State) != dim {
			if !req.QValues && s.cfg.Batching {
				return http.StatusBadRequest, fmt.Errorf("state has %d features, model wants %d", len(req.State), dim)
			}
			return http.StatusBadRequest, fmt.Errorf("state 0 has %d features, model wants %d", len(req.State), dim)
		}
		sc.flat = append(sc.flat, req.State...)
		return s.run(m, pol, sc, 1, true, req.QValues)
	}
	for i, st := range req.States {
		if len(st) != dim {
			return http.StatusBadRequest, fmt.Errorf("state %d has %d features, model wants %d", i, len(st), dim)
		}
		sc.flat = append(sc.flat, st...)
	}
	return s.run(m, pol, sc, len(req.States), false, req.QValues)
}

// run answers n states of pol's dimension stacked in sc.flat, leaving the
// answer in sc.resp; its Action and Actions point into sc. A lone greedy
// state (single, not qvalues) goes through the model's micro-batcher when
// batching is on; everything else runs its own forward pass, since a stacked
// batch is already a batch, and Q rows are a debugging surface that would
// bloat the shared batch buffers.
func (s *Server) run(m *Model, pol decidePolicy, sc *reqScratch, n int, single, qvalues bool) (int, error) {
	sc.resp = DecideResponse{}
	if single && !qvalues && s.cfg.Batching {
		action, err := m.batcher.Decide(sc.flat)
		if err != nil {
			return http.StatusInternalServerError, err
		}
		m.stats.States.Add(1)
		sc.action = action
		sc.resp.Action = &sc.action
		return 0, nil
	}
	if cap(sc.actions) < n {
		sc.actions = make([]int, n)
	}
	actions := sc.actions[:n]
	if qvalues {
		// One forward serves both: take the argmax from the Q rows.
		na := pol.NumActions()
		if cap(sc.q) < n*na {
			sc.q = make([]float64, n*na)
		}
		q := sc.q[:n*na]
		if err := pol.QValuesBatch(q, sc.flat); err != nil {
			return http.StatusInternalServerError, err
		}
		sc.resp.Q = make([][]float64, n)
		for i := 0; i < n; i++ {
			row := q[i*na : (i+1)*na]
			sc.resp.Q[i] = append([]float64(nil), row...)
			actions[i] = argmax(row)
		}
	} else if err := pol.DecideBatch(sc.flat, actions); err != nil {
		return http.StatusInternalServerError, err
	}
	m.stats.Direct.Add(1)
	m.stats.States.Add(int64(n))
	if single {
		sc.action = actions[0]
		sc.resp.Action = &sc.action
	} else {
		sc.resp.Actions = actions
	}
	return 0, nil
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
