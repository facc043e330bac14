package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"time"

	"ctjam/internal/core"
	"ctjam/internal/experiments"
)

// WorkerOptions configure one worker process (or goroutine).
type WorkerOptions struct {
	// ID names the worker in protocol requests — diagnostics only, results
	// are keyed by unit.
	ID string
	// Workers is the local evaluation parallelism (default GOMAXPROCS).
	Workers int
	// MaxUnits is the most units requested per poll (default 4). The
	// coordinator's Batch caps it.
	MaxUnits int
	// PollInterval paces polls that return no work and no retry hint
	// (default 500ms).
	PollInterval time.Duration
	// Client issues the HTTP requests (default http.DefaultClient).
	Client *http.Client
}

func (o WorkerOptions) withDefaults() WorkerOptions {
	if o.ID == "" {
		o.ID = "worker"
	}
	if o.MaxUnits <= 0 {
		o.MaxUnits = 4
	}
	if o.PollInterval <= 0 {
		o.PollInterval = 500 * time.Millisecond
	}
	if o.Client == nil {
		o.Client = http.DefaultClient
	}
	return o
}

// maxConsecutiveFailures bounds back-to-back protocol errors before a worker
// gives up — a coordinator that has gone away for good should not pin worker
// processes forever.
const maxConsecutiveFailures = 10

// Worker pulls units from a coordinator, evaluates them against a persistent
// local cache (so sibling points reuse trained schemes across polls), and
// reports results until the coordinator declares the run done.
type Worker struct {
	base  string
	opts  WorkerOptions
	cache *experiments.Cache
}

// NewWorker builds a worker for the coordinator at baseURL
// (e.g. "http://host:9077").
func NewWorker(baseURL string, opts WorkerOptions) *Worker {
	return &Worker{
		base:  baseURL,
		opts:  opts.withDefaults(),
		cache: experiments.NewCache(),
	}
}

// CacheStats reports the worker's local cache counters — most usefully
// SchemeBuilds (schemes trained here) versus SchemeImports (checkpoints
// fetched from the coordinator instead of retrained).
func (w *Worker) CacheStats() experiments.CacheStats {
	return w.cache.Stats()
}

// Run polls, evaluates, and reports until the run completes, ctx ends, or
// the coordinator is unreachable maxConsecutiveFailures times in a row.
// A coordinator that vanishes after the worker has completed at least one
// round-trip is treated as a finished run (the coordinator tears its
// listener down once all results are in), not an error: the coordinator
// process is the sole authority on run success. Returns the number of units
// evaluated.
func (w *Worker) Run(ctx context.Context) (int, error) {
	evaluated := 0
	failures := 0
	connected := false
	unreachable := func(err error) (int, error) {
		if connected {
			return evaluated, nil
		}
		return evaluated, fmt.Errorf("dist: worker %s: coordinator unreachable: %w", w.opts.ID, err)
	}
	for {
		var poll pollResponse
		err := w.post(ctx, "/v1/poll", pollRequest{Worker: w.opts.ID, Max: w.opts.MaxUnits}, &poll)
		if err != nil {
			if ctx.Err() != nil {
				return evaluated, ctx.Err()
			}
			failures++
			if failures >= maxConsecutiveFailures {
				return unreachable(err)
			}
			if !sleep(ctx, w.opts.PollInterval) {
				return evaluated, ctx.Err()
			}
			continue
		}
		failures = 0
		connected = true
		if poll.Done {
			return evaluated, nil
		}
		if len(poll.Units) == 0 {
			d := w.opts.PollInterval
			if poll.RetryMS > 0 {
				d = time.Duration(poll.RetryMS) * time.Millisecond
			}
			if !sleep(ctx, d) {
				return evaluated, ctx.Err()
			}
			continue
		}

		// Train units complete through POST /v1/scheme; point and field units
		// first install their scheme checkpoint (inlined or fetched) so evaluation
		// reuses the fleet-trained scheme instead of training locally.
		var results []UnitResult
		var evals []Unit
		var transportErr error
		for _, u := range poll.Units {
			if u.Train {
				res, err := w.trainAndUpload(ctx, u)
				if err != nil {
					transportErr = err
					break
				}
				if res != nil {
					results = append(results, *res)
				} else {
					evaluated++
				}
				continue
			}
			if res := w.installScheme(ctx, u); res != nil {
				results = append(results, *res)
				continue
			}
			evals = append(evals, u)
		}
		if transportErr != nil {
			if ctx.Err() != nil {
				return evaluated, ctx.Err()
			}
			// Losing an upload is recoverable: the train lease expires and
			// another worker (or this one) redoes the same pure training.
			failures++
			if failures >= maxConsecutiveFailures {
				return unreachable(transportErr)
			}
			if !sleep(ctx, w.opts.PollInterval) {
				return evaluated, ctx.Err()
			}
			continue
		}
		if len(evals) > 0 {
			er := evaluate(ctx, evals, w.cache, w.opts.Workers)
			evaluated += len(er)
			results = append(results, er...)
		}
		if len(results) == 0 {
			continue
		}
		var res resultResponse
		if err := w.post(ctx, "/v1/result", resultRequest{Worker: w.opts.ID, Results: results}, &res); err != nil {
			if ctx.Err() != nil {
				return evaluated, ctx.Err()
			}
			var he *httpError
			if errors.As(err, &he) {
				// The coordinator answered (e.g. a structured 409 rejecting
				// claimed keys): it ingested what it accepted, and the lease
				// machinery re-issues the rest — nothing to retry here.
				continue
			}
			// Losing a result report is recoverable: the lease expires and
			// another worker (or this one) recomputes the same pure result.
			failures++
			if failures >= maxConsecutiveFailures {
				return unreachable(err)
			}
			continue
		}
		if res.Done {
			return evaluated, nil
		}
	}
}

// trainAndUpload runs one train unit: recompute the scheme key from the wire
// payload, train (or reuse) the scheme, and upload its checkpoint. A nil,
// nil return means the upload was accepted; a non-nil UnitResult is a
// unit-level failure to report via /v1/result; a non-nil error is a
// transport failure (coordinator unreachable).
func (w *Worker) trainAndUpload(ctx context.Context, u Unit) (*UnitResult, error) {
	cfg, err := u.Config.envConfig()
	if err != nil {
		return &UnitResult{Key: u.Key, Err: err.Error()}, nil
	}
	o := u.Opts.options(ctx, w.cache, w.opts.Workers)
	if got := experiments.SchemeKey(o, cfg); got != u.Key {
		return &UnitResult{Key: u.Key, Err: fmt.Sprintf(
			"dist: key mismatch: coordinator sent %q, worker derives %q", u.Key, got)}, nil
	}
	key, blob, err := w.cache.TrainScheme(ctx, o, cfg)
	if err != nil {
		return &UnitResult{Key: u.Key, Err: err.Error()}, nil
	}
	req := schemeUploadRequest{
		Worker:      w.opts.ID,
		Key:         key,
		Fingerprint: core.SchemeFingerprint(blob),
		Data:        blob,
	}
	var resp schemeUploadResponse
	err = w.post(ctx, "/v1/scheme", req, &resp)
	var he *httpError
	if errors.As(err, &he) && he.status == http.StatusConflict {
		// A 409 means the coordinator's recomputed identity disagrees with
		// the claim — most plausibly corruption in flight. One retry with a
		// freshly marshaled request resolves a transient; a persistent
		// conflict becomes a unit failure below.
		err = w.post(ctx, "/v1/scheme", req, &resp)
	}
	if err != nil {
		if errors.As(err, &he) {
			// Reachable but refusing: report the failure so the ledger burns
			// an attempt now instead of waiting out the lease.
			return &UnitResult{Key: u.Key, Err: err.Error()}, nil
		}
		return nil, err
	}
	return nil, nil
}

// installScheme makes the scheme a point or field unit plays resolvable from
// the local cache before evaluation: a no-op when the coordinator shipped no
// scheme identity (baseline defenses) or the scheme is already installed,
// otherwise the inlined or fetched checkpoint is
// fingerprint-verified and imported. A non-nil result is the unit-level
// error to report instead of evaluating.
func (w *Worker) installScheme(ctx context.Context, u Unit) *UnitResult {
	if u.SchemeKey == "" || u.SchemeFP == "" {
		return nil
	}
	if _, ok := w.cache.SchemeBytes(u.SchemeKey); ok {
		return nil
	}
	blob := u.Scheme
	if blob == nil {
		var err error
		if blob, err = w.fetchScheme(ctx, u.SchemeKey); err != nil {
			return &UnitResult{Key: u.Key, Err: err.Error()}
		}
	}
	if fp := core.SchemeFingerprint(blob); fp != u.SchemeFP {
		return &UnitResult{Key: u.Key, Err: fmt.Sprintf(
			"dist: scheme %s: received fingerprint %s, coordinator promised %s", u.SchemeKey, fp, u.SchemeFP)}
	}
	if err := w.cache.ImportScheme(u.SchemeKey, blob); err != nil {
		return &UnitResult{Key: u.Key, Err: err.Error()}
	}
	return nil
}

// fetchScheme downloads one stored checkpoint from the coordinator.
func (w *Worker) fetchScheme(ctx context.Context, key string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		w.base+"/v1/scheme/"+url.PathEscape(key), nil)
	if err != nil {
		return nil, err
	}
	resp, err := w.opts.Client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return nil, &httpError{status: resp.StatusCode, msg: fmt.Sprintf(
			"dist: GET /v1/scheme/%s: %s: %s", key, resp.Status, bytes.TrimSpace(msg))}
	}
	return io.ReadAll(resp.Body)
}

// httpError is a non-200 protocol answer: the coordinator was reachable and
// responded, so it is a structured refusal (e.g. a 409 identity rejection),
// not a transport failure, and never counts toward consecutive failures.
type httpError struct {
	status int
	msg    string
}

func (e *httpError) Error() string { return e.msg }

// post issues one JSON round-trip to the coordinator.
func (w *Worker) post(ctx context.Context, path string, in, out any) error {
	body, err := json.Marshal(in)
	if err != nil {
		return err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, w.base+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := w.opts.Client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return &httpError{status: resp.StatusCode, msg: fmt.Sprintf(
			"dist: %s: %s: %s", path, resp.Status, bytes.TrimSpace(msg))}
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// sleep waits for d or ctx, reporting whether the wait ran to completion.
func sleep(ctx context.Context, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-ctx.Done():
		return false
	}
}
