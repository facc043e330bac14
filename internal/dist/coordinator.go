package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"sort"
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
	// Linger keeps ListenAndWait serving Done responses this long after the
	// run completes, so workers mid-poll see a clean end instead of a
	// connection error (default 2s).
	Linger time.Duration
}

// unitsPerPoll is the most units one poll leases.
const unitsPerPoll = 4

func (o CoordinatorOptions) withDefaults() CoordinatorOptions {
	if o.Lease <= 0 {
		o.Lease = 2 * time.Minute
	}
	if o.MaxAttempts <= 0 {
		o.MaxAttempts = 3
	}
	if o.Linger <= 0 {
		o.Linger = 2 * time.Second
	}
	return o
}

// unitState tracks one unit through the lease protocol. result holds the
// completed payload — Counters for sweep points, the verified checkpoint for
// train units.
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
// that Wait-then-ImportInto feeds back into a sweep-point cache. The ledger
// is also the scheme store of fleet-wide scheme reuse: each unique scheme
// key is a train unit whose result is its checkpoint, that result gates the
// units evaluating the scheme, and they ship with its bytes inline instead
// of retraining. A static merge fills the same ledger from spool files
// (ReplaySpools) instead of leasing. Safe for concurrent use by any number
// of HTTP workers.
type Coordinator struct {
	opts CoordinatorOptions

	mu        sync.Mutex
	order     []string // sorted unit keys: the deterministic assignment order
	states    map[string]*unitState
	remaining int
	err       error
	done      chan struct{}
}

// NewCoordinator builds the coordinator for the cache-backed points of the
// given experiment ids under o, plus one train unit per unique trainable
// scheme key they evaluate (see UnitsFor). Ids without cache-backed points
// contribute no units; a run whose ids produce none completes immediately.
func NewCoordinator(o experiments.Options, ids []string, copts CoordinatorOptions) (*Coordinator, error) {
	units, trains, err := UnitsFor(o, ids)
	if err != nil {
		return nil, err
	}
	return newCoordinator(append(units, trains...), copts), nil
}

// newCoordinator builds the ledger of the given work list.
func newCoordinator(units []Unit, copts CoordinatorOptions) *Coordinator {
	c := &Coordinator{
		opts:      copts.withDefaults(),
		states:    make(map[string]*unitState, len(units)),
		remaining: len(units),
		done:      make(chan struct{}),
	}
	for _, u := range units {
		c.order = append(c.order, u.Key)
		c.states[u.Key] = &unitState{unit: u}
	}
	sort.Strings(c.order)
	if c.remaining == 0 {
		close(c.done)
	}
	return c
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

// pollRequest asks for units on behalf of a worker.
type pollRequest struct {
	Worker string `json:"worker"`
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
// part of a report because a key, payload or checkpoint did not match what
// the worker claimed.
type rejectResponse struct {
	Error        string   `json:"error"`
	RejectedKeys []string `json:"rejected_keys,omitempty"`
}

// assign leases up to unitsPerPoll assignable units in sorted-key order.
func (c *Coordinator) assign() pollResponse {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.finished() {
		return pollResponse{Done: true}
	}
	now := time.Now()
	var units []Unit
	for _, k := range c.order {
		st := c.states[k]
		if st.done || st.leaseUntil.After(now) {
			continue
		}
		// A point unit whose train unit is not done yet is blocked:
		// skipping it (without burning an attempt) keeps the pull protocol
		// deadlock-free — the train unit itself stays assignable, and its
		// own lease/retry machinery bounds how long dependent units can
		// wait. ts is nil for train units and baseline defenses.
		ts := c.states[st.unit.SchemeKey]
		if ts != nil && !ts.done {
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
		if ts != nil {
			u.Scheme, u.SchemeFP = ts.result.Scheme, ts.result.SchemeFP
		}
		units = append(units, u)
		if len(units) == unitsPerPoll {
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

// record ingests one worker's results, or one replayed spool result. Known
// results are ingested even when others in the same report are rejected;
// the returned rejected list names the keys the coordinator refused, which
// the handler surfaces as a structured 409: unknown keys (a worker claiming
// work it was never handed), payloads that do not fit the unit's kind,
// unverifiable checkpoints, and checkpoints conflicting with a train unit's
// recorded one. A refused payload for an open unit also burns the attempt.
func (c *Coordinator) record(results []UnitResult) (resultResponse, []string) {
	// Verify every checkpoint before taking the lock: decoding rebuilds a
	// whole network, and polls should not queue behind it.
	bad := make([]string, len(results))
	for i, r := range results {
		if r.Err != "" || r.Scheme == nil {
			continue
		}
		if bad[i] = fingerprintError(r); bad[i] == "" {
			if _, err := core.DecodeScheme(r.Scheme); err != nil {
				bad[i] = fmt.Sprintf("scheme %s: %v", r.Key, err)
			}
		}
	}

	c.mu.Lock()
	defer c.mu.Unlock()
	var rejected []string
	for i, r := range results {
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
			// of the key, so the first one stands. Training is deterministic
			// too, so a checkpoint with other bytes can only be corruption.
			if r.Err == "" && st.unit.Train && (bad[i] != "" || !bytes.Equal(r.Scheme, st.result.Scheme)) {
				rejected = append(rejected, r.Key)
			}
			continue
		}
		msg := r.Err
		if msg == "" {
			reason := payloadError(st.unit, r)
			if reason == "" {
				reason = bad[i]
			}
			if reason != "" {
				msg = "dist: " + reason
				rejected = append(rejected, r.Key)
			}
		}
		if msg != "" {
			st.lastErr = msg
			st.leaseUntil = time.Time{} // release for immediate retry
			if st.attempts >= c.opts.MaxAttempts {
				c.fail(fmt.Errorf("dist: unit %s failed after %d attempts: %s", r.Key, st.attempts, msg))
			}
			continue
		}
		st.done = true
		st.result = r
		if c.remaining--; c.remaining == 0 && c.err == nil {
			close(c.done)
		}
	}
	return resultResponse{OK: true, Done: c.finished()}, rejected
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
// every unit; Train/Point break the same progress down by unit type,
// and SchemesStored/SchemeStoreBytes size the checkpoints of the done train
// units — see DESIGN.md for the JSON shape.
type Status struct {
	Total     int    `json:"total"`
	Done      int    `json:"done"`
	Leased    int    `json:"leased"`
	Attempts  int    `json:"attempts"`
	Failed    bool   `json:"failed"`
	LastError string `json:"last_error,omitempty"`

	Train UnitProgress `json:"train"`
	Point UnitProgress `json:"point"`

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
		if !st.unit.Train {
			s.Point.count(st, now)
			continue
		}
		s.Train.count(st, now)
		if st.done {
			s.SchemesStored++
			s.SchemeStoreBytes += int64(len(st.result.Scheme))
		}
	}
	return s
}

// Handler serves the coordinator protocol: POST /v1/poll, POST /v1/result,
// GET /v1/status.
func (c *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/poll", func(w http.ResponseWriter, r *http.Request) {
		var req pollRequest
		if !decodeJSON(w, r, &req) {
			return
		}
		writeJSON(w, c.assign())
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
				Error:        "dist: results rejected: unknown key, wrong payload kind or unverifiable checkpoint",
				RejectedKeys: rejected,
			})
			return
		}
		writeJSON(w, resp)
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
// canonical key (see importResult), after which experiment runs sharing
// that cache read the distributed results instead of recomputing them. The
// returned count covers point results (the units UnitsFor enumerates);
// schemes ride along uncounted. Call after Wait succeeds.
func (c *Coordinator) ImportInto(cache *experiments.Cache) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for _, k := range c.order {
		st := c.states[k]
		if !st.done {
			continue
		}
		// record decoded every checkpoint, so no import here can fail.
		importResult(cache, st.unit, st.result)
		if !st.unit.Train {
			n++
		}
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
