package dist

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/url"
	"sort"
	"strings"
	"sync"
	"time"

	"ctjam/internal/core"
	"ctjam/internal/experiments"
)

// CoordinatorOptions tune the failure model of the work-unit protocol.
type CoordinatorOptions struct {
	// Lease is how long a polled unit stays assigned before a silent
	// worker is presumed dead and the unit becomes assignable again
	// (default 2 minutes — generous against a DQN training point).
	Lease time.Duration
	// MaxAttempts bounds assignments per unit, counting the first; once a
	// unit has burned this many leases or explicit failures the run fails
	// instead of retrying forever (default 3).
	MaxAttempts int
	// Batch is the most units handed to one poll (default 8).
	Batch int
	// Linger keeps ListenAndWait serving Done responses this long after the
	// run completes, so workers mid-poll see a clean end instead of a
	// connection error (default 2s).
	Linger time.Duration
}

// inlineSchemeLimit is the largest checkpoint, in bytes, inlined into
// dispatched units (sparing the worker a GET /v1/scheme fetch).
const inlineSchemeLimit = 256 << 10

func (o CoordinatorOptions) withDefaults() CoordinatorOptions {
	if o.Lease <= 0 {
		o.Lease = 2 * time.Minute
	}
	if o.MaxAttempts <= 0 {
		o.MaxAttempts = 3
	}
	if o.Batch <= 0 {
		o.Batch = 8
	}
	if o.Linger <= 0 {
		o.Linger = 2 * time.Second
	}
	return o
}

// unitState tracks one unit through the lease protocol. result holds the
// completed payload — Counters for sweep points, Field for field replicas.
type unitState struct {
	unit       Unit
	done       bool
	leaseUntil time.Time
	attempts   int
	lastErr    string
	result     UnitResult
}

// Coordinator owns the work-unit ledger of one distributed run: it hands out
// leases in sorted-key order, re-leases units whose workers went silent,
// fails fast once a unit exhausts its attempts, and collects the Counters
// that Wait-then-ImportInto feeds back into a sweep-point cache. It also
// holds the content-addressed scheme store of fleet-wide scheme reuse: each
// unique scheme key is a train unit, its uploaded checkpoint gates the point
// units evaluating that scheme, and claiming workers fetch (or receive
// inline) the stored bytes instead of retraining. Safe for concurrent use by
// any number of HTTP workers.
type Coordinator struct {
	opts CoordinatorOptions

	mu        sync.Mutex
	order     []string // sorted unit keys: the deterministic assignment order
	states    map[string]*unitState
	remaining int
	err       error
	done      chan struct{}

	// trainKeys marks the scheme keys that have a train unit; point units
	// whose SchemeKey is in here are dispatched only once the key resolves
	// in schemes. schemes/schemeFP hold the uploaded checkpoints by key.
	trainKeys map[string]bool
	schemes   map[string][]byte
	schemeFP  map[string]string
}

// NewCoordinator builds the coordinator for the cache-backed points and
// field runs of the given experiment ids under o, plus one train unit per
// unique trainable scheme key they evaluate. Ids without cache-backed
// points contribute no units; a run whose ids produce none completes
// immediately.
func NewCoordinator(o experiments.Options, ids []string, copts CoordinatorOptions) (*Coordinator, error) {
	units, err := UnitsFor(o, ids)
	if err != nil {
		return nil, err
	}
	trains, err := TrainUnitsFor(o, ids)
	if err != nil {
		return nil, err
	}
	units = append(units, trains...)
	c := &Coordinator{
		opts:      copts.withDefaults(),
		states:    make(map[string]*unitState, len(units)),
		remaining: len(units),
		done:      make(chan struct{}),
		trainKeys: make(map[string]bool),
		schemes:   make(map[string][]byte),
		schemeFP:  make(map[string]string),
	}
	for _, u := range units {
		c.order = append(c.order, u.Key)
		c.states[u.Key] = &unitState{unit: u}
		if u.Train {
			c.trainKeys[u.Key] = true
		}
	}
	sort.Strings(c.order)
	if c.remaining == 0 {
		close(c.done)
	}
	return c, nil
}

// fail records the first fatal error and releases every waiter. Must be
// called with c.mu held.
func (c *Coordinator) fail(err error) {
	if c.err == nil {
		c.err = err
		close(c.done)
	}
}

// finished reports whether the run is over (all units done, or failed).
// Must be called with c.mu held.
func (c *Coordinator) finished() bool {
	return c.remaining == 0 || c.err != nil
}

// pollRequest asks for up to Max units on behalf of a worker.
type pollRequest struct {
	Worker string `json:"worker"`
	Max    int    `json:"max,omitempty"`
}

// pollResponse carries assigned units, or a backoff hint, or the end of the
// run (workers exit on Done regardless of success — Wait reports failures).
type pollResponse struct {
	Units   []Unit `json:"units,omitempty"`
	Done    bool   `json:"done,omitempty"`
	RetryMS int    `json:"retry_ms,omitempty"`
}

// resultRequest reports evaluated units for a worker.
type resultRequest struct {
	Worker  string       `json:"worker"`
	Results []UnitResult `json:"results"`
}

type resultResponse struct {
	OK   bool `json:"ok"`
	Done bool `json:"done,omitempty"`
}

// rejectResponse is the body of a structured 409: the coordinator refused
// part of an upload because a recomputed key or fingerprint did not match
// what the worker claimed.
type rejectResponse struct {
	Error        string   `json:"error"`
	RejectedKeys []string `json:"rejected_keys,omitempty"`
}

// schemeUploadRequest carries one trained checkpoint to POST /v1/scheme.
type schemeUploadRequest struct {
	Worker      string `json:"worker"`
	Key         string `json:"key"`
	Fingerprint string `json:"fingerprint"`
	Data        []byte `json:"data"`
}

type schemeUploadResponse struct {
	OK   bool `json:"ok"`
	Done bool `json:"done,omitempty"`
}

// assign leases up to max assignable units in sorted-key order.
func (c *Coordinator) assign(max int) pollResponse {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.finished() {
		return pollResponse{Done: true}
	}
	if max <= 0 || max > c.opts.Batch {
		max = c.opts.Batch
	}
	now := time.Now()
	var units []Unit
	for _, k := range c.order {
		st := c.states[k]
		if st.done || st.leaseUntil.After(now) {
			continue
		}
		// A point or field unit whose scheme has a train unit that is not
		// resolved yet is blocked: skipping it (without burning an attempt)
		// keeps the pull protocol deadlock-free — the train unit itself
		// stays assignable, and its own lease/retry machinery bounds how
		// long dependent units can wait.
		sk := st.unit.SchemeKey
		if !st.unit.Train && sk != "" && c.trainKeys[sk] && c.schemes[sk] == nil {
			continue
		}
		if st.attempts >= c.opts.MaxAttempts {
			// A unit out of attempts with no result left to wait for: the
			// run cannot complete.
			c.fail(fmt.Errorf("dist: unit %s failed after %d attempts (last error: %s)",
				k, st.attempts, st.lastErr))
			return pollResponse{Done: true}
		}
		st.attempts++
		st.leaseUntil = now.Add(c.opts.Lease)
		u := st.unit
		if blob := c.schemes[sk]; !u.Train && blob != nil {
			// The scheme is resolved: always ship its fingerprint so the
			// worker can verify installed bytes, and inline small blobs.
			u.SchemeFP = c.schemeFP[sk]
			if len(blob) <= inlineSchemeLimit {
				u.Scheme = blob
			}
		}
		units = append(units, u)
		if len(units) == max {
			break
		}
	}
	if len(units) == 0 {
		// Everything outstanding is leased elsewhere; have the worker check
		// back soon (polls are cheap, and the run may finish any moment).
		retry := c.opts.Lease / 4
		if retry > time.Second {
			retry = time.Second
		}
		if retry < 50*time.Millisecond {
			retry = 50 * time.Millisecond
		}
		return pollResponse{RetryMS: int(retry / time.Millisecond)}
	}
	return pollResponse{Units: units}
}

// record ingests one worker's results. Known results are ingested even when
// others in the same report are rejected; the returned rejected list names
// the keys the coordinator refused (unknown keys — a worker claiming work it
// was never handed — and malformed payloads), which the handler surfaces as
// a structured 409.
func (c *Coordinator) record(results []UnitResult) (resultResponse, []string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	var rejected []string
	for _, r := range results {
		st, ok := c.states[r.Key]
		if !ok {
			// Unknown key: the worker claims a unit this run never issued.
			// Trusting it would let a drifted or confused worker inject
			// results, so reject loudly instead of skipping silently.
			rejected = append(rejected, r.Key)
			continue
		}
		if st.done {
			// A duplicate from a retried lease: results are pure functions
			// of the key, so the first one stands.
			continue
		}
		fail := func(msg string) {
			st.lastErr = msg
			st.leaseUntil = time.Time{} // release for immediate retry
			if st.attempts >= c.opts.MaxAttempts {
				c.fail(fmt.Errorf("dist: unit %s failed after %d attempts: %s", r.Key, st.attempts, msg))
			}
		}
		if r.Err != "" {
			fail(r.Err)
			continue
		}
		if st.unit.Train {
			// Train units complete through POST /v1/scheme, never through a
			// bare success result: a worker reporting one has not uploaded
			// the checkpoint the dependent points are waiting for.
			fail("dist: train unit result without scheme upload")
			rejected = append(rejected, r.Key)
			continue
		}
		if st.unit.Field != nil && r.Field == nil {
			// A field unit must come back with field stats; treat the
			// malformed report like a failed attempt.
			fail("dist: field unit result missing field stats")
			continue
		}
		st.done = true
		st.result = r
		c.remaining--
	}
	if c.remaining == 0 && c.err == nil {
		select {
		case <-c.done:
		default:
			close(c.done)
		}
	}
	return resultResponse{OK: true, Done: c.finished()}, rejected
}

// recordScheme ingests one trained checkpoint upload. The coordinator never
// trusts the claimed identity: the fingerprint is recomputed from the bytes
// and the blob must decode as a CTSC checkpoint before anything is stored.
// A non-empty reject reason maps to a structured 409.
func (c *Coordinator) recordScheme(req schemeUploadRequest) (schemeUploadResponse, string) {
	fp := core.SchemeFingerprint(req.Data)
	if fp != req.Fingerprint {
		return schemeUploadResponse{}, fmt.Sprintf(
			"scheme %s: claimed fingerprint %s, bytes hash to %s", req.Key, req.Fingerprint, fp)
	}
	if _, err := core.DecodeScheme(req.Data); err != nil {
		return schemeUploadResponse{}, fmt.Sprintf("scheme %s: %v", req.Key, err)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	st, ok := c.states[req.Key]
	if !ok || !st.unit.Train {
		return schemeUploadResponse{}, fmt.Sprintf("scheme %s: not a train unit of this run", req.Key)
	}
	if st.done {
		if c.schemeFP[req.Key] == fp {
			// Duplicate upload of identical bytes (a retried lease):
			// idempotent success.
			return schemeUploadResponse{OK: true, Done: c.finished()}, ""
		}
		// Training is deterministic, so two honest workers produce identical
		// bytes for one key; a different fingerprint means corruption.
		return schemeUploadResponse{}, fmt.Sprintf(
			"scheme %s: conflicting upload: stored %s, got %s", req.Key, c.schemeFP[req.Key], fp)
	}
	c.schemes[req.Key] = append([]byte(nil), req.Data...)
	c.schemeFP[req.Key] = fp
	st.done = true
	st.result = UnitResult{Key: req.Key}
	c.remaining--
	if c.remaining == 0 && c.err == nil {
		select {
		case <-c.done:
		default:
			close(c.done)
		}
	}
	return schemeUploadResponse{OK: true, Done: c.finished()}, ""
}

// schemeBytes returns the stored checkpoint and fingerprint for a scheme
// key, if resolved.
func (c *Coordinator) schemeBytes(key string) ([]byte, string, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	blob, ok := c.schemes[key]
	if !ok {
		return nil, "", false
	}
	return blob, c.schemeFP[key], true
}

// UnitProgress is the per-unit-type progress breakdown of a Status: how many
// units of one kind exist, how many are done, currently leased, or have
// burned more than one attempt.
type UnitProgress struct {
	Total   int `json:"total"`
	Done    int `json:"done"`
	Leased  int `json:"leased"`
	Retried int `json:"retried"`
}

func (p *UnitProgress) count(st *unitState, now time.Time) {
	p.Total++
	if st.done {
		p.Done++
	} else if st.leaseUntil.After(now) {
		p.Leased++
	}
	if st.attempts > 1 {
		p.Retried++
	}
}

// Status is the /v1/status snapshot. Total/Done/Leased/Attempts aggregate
// every unit; Train/Point/Field break the same progress down by unit type,
// and SchemesStored/SchemeStoreBytes size the coordinator's checkpoint
// store — see DESIGN.md for the JSON shape.
type Status struct {
	Total     int    `json:"total"`
	Done      int    `json:"done"`
	Leased    int    `json:"leased"`
	Attempts  int    `json:"attempts"`
	Failed    bool   `json:"failed"`
	LastError string `json:"last_error,omitempty"`

	Train UnitProgress `json:"train"`
	Point UnitProgress `json:"point"`
	Field UnitProgress `json:"field"`

	SchemesStored    int   `json:"schemes_stored"`
	SchemeStoreBytes int64 `json:"scheme_store_bytes"`
}

// Snapshot reports run progress.
func (c *Coordinator) Snapshot() Status {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := Status{Total: len(c.order), Failed: c.err != nil}
	if c.err != nil {
		s.LastError = c.err.Error()
	}
	now := time.Now()
	for _, st := range c.states {
		if st.done {
			s.Done++
		} else if st.leaseUntil.After(now) {
			s.Leased++
		}
		s.Attempts += st.attempts
		switch {
		case st.unit.Train:
			s.Train.count(st, now)
		case st.unit.Field != nil:
			s.Field.count(st, now)
		default:
			s.Point.count(st, now)
		}
	}
	s.SchemesStored = len(c.schemes)
	for _, blob := range c.schemes {
		s.SchemeStoreBytes += int64(len(blob))
	}
	return s
}

// Handler serves the coordinator protocol: POST /v1/poll, POST /v1/result,
// POST /v1/scheme, GET /v1/scheme/{key}, GET /v1/status.
func (c *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/poll", func(w http.ResponseWriter, r *http.Request) {
		var req pollRequest
		if !decodeJSON(w, r, &req) {
			return
		}
		writeJSON(w, c.assign(req.Max))
	})
	mux.HandleFunc("/v1/result", func(w http.ResponseWriter, r *http.Request) {
		var req resultRequest
		if !decodeJSON(w, r, &req) {
			return
		}
		resp, rejected := c.record(req.Results)
		if len(rejected) > 0 {
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusConflict)
			json.NewEncoder(w).Encode(rejectResponse{
				Error:        "dist: results rejected: recomputed identity does not match claimed keys",
				RejectedKeys: rejected,
			})
			return
		}
		writeJSON(w, resp)
	})
	mux.HandleFunc("/v1/scheme", func(w http.ResponseWriter, r *http.Request) {
		var req schemeUploadRequest
		if !decodeJSON(w, r, &req) {
			return
		}
		resp, reject := c.recordScheme(req)
		if reject != "" {
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusConflict)
			json.NewEncoder(w).Encode(rejectResponse{Error: "dist: " + reject, RejectedKeys: []string{req.Key}})
			return
		}
		writeJSON(w, resp)
	})
	mux.HandleFunc("/v1/scheme/", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			http.Error(w, `{"error":"GET required"}`, http.StatusMethodNotAllowed)
			return
		}
		// Scheme keys contain '|' and '=' but the worker path-escapes them;
		// unescape from the raw path so nothing in the key is mangled.
		key, err := url.PathUnescape(strings.TrimPrefix(r.URL.EscapedPath(), "/v1/scheme/"))
		if err != nil {
			http.Error(w, `{"error":"bad scheme key"}`, http.StatusBadRequest)
			return
		}
		blob, fp, ok := c.schemeBytes(key)
		if !ok {
			http.Error(w, `{"error":"scheme not resolved"}`, http.StatusNotFound)
			return
		}
		w.Header().Set("Content-Type", "application/octet-stream")
		w.Header().Set("X-Scheme-Fingerprint", fp)
		w.Write(blob)
	})
	mux.HandleFunc("/v1/status", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, c.Snapshot())
	})
	return mux
}

// Wait blocks until every unit is done, the run fails, or ctx ends.
func (c *Coordinator) Wait(ctx context.Context) error {
	select {
	case <-c.done:
		c.mu.Lock()
		defer c.mu.Unlock()
		return c.err
	case <-ctx.Done():
		return fmt.Errorf("dist: coordinator wait: %w", ctx.Err())
	}
}

// ImportInto feeds every completed unit's result into cache under its
// canonical key — Counters into the point cache, field stats into the
// field-run cache, stored scheme checkpoints into the scheme cache — after
// which experiment runs sharing that cache read the distributed results
// instead of recomputing them. The returned count covers point and field
// results (the units UnitsFor enumerates); schemes ride along uncounted.
// Call after Wait succeeds.
func (c *Coordinator) ImportInto(cache *experiments.Cache) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for _, k := range c.order {
		st := c.states[k]
		if !st.done {
			continue
		}
		if st.unit.Train {
			// Upload-time decoding guarantees the blob is importable; a key
			// already resolved locally is a no-op by construction.
			if blob := c.schemes[k]; blob != nil {
				cache.ImportScheme(k, blob)
			}
			continue
		}
		importResult(cache, st.result)
		n++
	}
	return n
}

// ListenAndWait serves the protocol on addr until the run completes (or ctx
// ends), then tears the listener down. logf, when non-nil, receives one line
// with the bound address — pass log.Printf — so workers can be pointed at a
// ":0" listener.
func (c *Coordinator) ListenAndWait(ctx context.Context, addr string, logf func(format string, args ...any)) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("dist: listen %s: %w", addr, err)
	}
	if logf != nil {
		logf("dist: coordinating %d units on %s", len(c.order), ln.Addr())
	}
	srv := &http.Server{Handler: c.Handler(), ReadHeaderTimeout: 5 * time.Second}
	go srv.Serve(ln)
	defer srv.Close()
	err = c.Wait(ctx)
	if err == nil {
		// Serve Done to straggler polls before tearing the listener down.
		t := time.NewTimer(c.opts.Linger)
		defer t.Stop()
		select {
		case <-t.C:
		case <-ctx.Done():
		}
	}
	return err
}

func decodeJSON(w http.ResponseWriter, r *http.Request, v any) bool {
	if r.Method != http.MethodPost {
		http.Error(w, `{"error":"POST required"}`, http.StatusMethodNotAllowed)
		return false
	}
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 8<<20)).Decode(v); err != nil {
		http.Error(w, fmt.Sprintf(`{"error":%q}`, err.Error()), http.StatusBadRequest)
		return false
	}
	return true
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
}
