package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
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
// shipped by the coordinator instead of retrained).
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
		err := w.post(ctx, "/v1/poll", pollRequest{Worker: w.opts.ID}, &poll)
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

		// Point units first install their inlined scheme checkpoint so
		// evaluation reuses the fleet-trained scheme instead of training
		// locally.
		var results []UnitResult
		var evals []Unit
		done := false
		for _, u := range poll.Units {
			if u.Train {
				// Report each checkpoint as soon as it is trained, so units
				// gated on it are not held behind the rest of this poll.
				evaluated++
				if done, err = w.report(ctx, []UnitResult{w.train(ctx, u)}); err != nil || done {
					break
				}
				continue
			}
			if res := w.installScheme(u); res != nil {
				results = append(results, *res)
				continue
			}
			evals = append(evals, u)
		}
		if err == nil && !done {
			if len(evals) > 0 {
				er := evaluate(ctx, evals, w.cache, w.opts.Workers)
				evaluated += len(er)
				results = append(results, er...)
			}
			if len(results) > 0 {
				done, err = w.report(ctx, results)
			}
		}
		if err != nil {
			if ctx.Err() != nil {
				return evaluated, ctx.Err()
			}
			// Losing a result report is recoverable: the lease expires and
			// another worker (or this one) recomputes the same pure result.
			failures++
			if failures >= maxConsecutiveFailures {
				return unreachable(err)
			}
			continue
		}
		if done {
			return evaluated, nil
		}
	}
}

// report posts results to the coordinator and returns whether the run is
// done. A structured refusal (e.g. a 409 rejecting claimed keys) is not an
// error: the coordinator ingested what it accepted, and the lease machinery
// re-issues the rest — nothing to retry here.
func (w *Worker) report(ctx context.Context, results []UnitResult) (bool, error) {
	var res resultResponse
	err := w.post(ctx, "/v1/result", resultRequest{Worker: w.opts.ID, Results: results}, &res)
	var he *httpError
	if errors.As(err, &he) {
		return false, nil
	}
	return res.Done, err
}

// train runs one train unit: recompute the scheme key from the wire payload
// and train (or reuse) the scheme. The result carries its CTSC checkpoint
// and fingerprint, or the error that kept the worker from producing them.
func (w *Worker) train(ctx context.Context, u Unit) UnitResult {
	cfg, err := u.Config.envConfig()
	if err != nil {
		return UnitResult{Key: u.Key, Err: err.Error()}
	}
	o := u.Opts.options(ctx, w.cache, w.opts.Workers)
	if got := experiments.SchemeKey(o, cfg); got != u.Key {
		return UnitResult{Key: u.Key, Err: fmt.Sprintf(
			"dist: key mismatch: coordinator sent %q, worker derives %q", u.Key, got)}
	}
	_, blob, err := w.cache.TrainScheme(ctx, o, cfg)
	if err != nil {
		return UnitResult{Key: u.Key, Err: err.Error()}
	}
	return UnitResult{Key: u.Key, Scheme: blob, SchemeFP: core.SchemeFingerprint(blob)}
}

// installScheme makes the scheme a point unit plays resolvable from the
// local cache before evaluation: a no-op when the coordinator shipped no
// checkpoint (baseline defenses) or the scheme is already installed,
// otherwise the inlined checkpoint is fingerprint-verified and imported. A
// non-nil result is the unit-level error to report instead of evaluating.
func (w *Worker) installScheme(u Unit) *UnitResult {
	if u.Scheme == nil {
		return nil
	}
	if _, ok := w.cache.SchemeBytes(u.SchemeKey); ok {
		return nil
	}
	if fp := core.SchemeFingerprint(u.Scheme); fp != u.SchemeFP {
		return &UnitResult{Key: u.Key, Err: fmt.Sprintf(
			"dist: scheme %s: received fingerprint %s, coordinator promised %s", u.SchemeKey, fp, u.SchemeFP)}
	}
	if err := w.cache.ImportScheme(u.SchemeKey, u.Scheme); err != nil {
		return &UnitResult{Key: u.Key, Err: err.Error()}
	}
	return nil
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
