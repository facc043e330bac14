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

	"ctjam/internal/experiments"
)

// WorkerOptions configure one worker process (or goroutine).
type WorkerOptions struct {
	// ID names the worker in protocol requests — diagnostics only, results
	// are keyed by unit.
	ID string
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

// Worker pulls train units from a coordinator, trains them one at a time
// against a local cache (so a unit leased to it again is not retrained), and
// reports each checkpoint until the coordinator declares the run done. Run
// one worker per core to train in parallel.
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
// SchemeBuilds, the schemes trained here.
func (w *Worker) CacheStats() experiments.CacheStats {
	return w.cache.Stats()
}

// Run polls, trains, and reports until the run completes, ctx ends, or
// the coordinator is unreachable maxConsecutiveFailures times in a row.
// A coordinator that vanishes after the worker has completed at least one
// round-trip is treated as a finished run (the coordinator tears its
// listener down once all results are in), not an error: the coordinator
// process is the sole authority on run success. Returns the number of units
// trained.
func (w *Worker) Run(ctx context.Context) (int, error) {
	trained := 0
	failures := 0
	connected := false
	unreachable := func(err error) (int, error) {
		if connected {
			return trained, nil
		}
		return trained, fmt.Errorf("dist: worker %s: coordinator unreachable: %w", w.opts.ID, err)
	}
	for {
		var poll pollResponse
		err := w.post(ctx, "/v1/poll", pollRequest{Worker: w.opts.ID}, &poll)
		if err != nil {
			if ctx.Err() != nil {
				return trained, ctx.Err()
			}
			failures++
			if failures >= maxConsecutiveFailures {
				return unreachable(err)
			}
			if !sleep(ctx, w.opts.PollInterval) {
				return trained, ctx.Err()
			}
			continue
		}
		failures = 0
		connected = true
		if poll.Done {
			return trained, nil
		}
		if len(poll.Units) == 0 {
			d := w.opts.PollInterval
			if poll.RetryMS > 0 {
				d = time.Duration(poll.RetryMS) * time.Millisecond
			}
			if !sleep(ctx, d) {
				return trained, ctx.Err()
			}
			continue
		}

		// Report each checkpoint as soon as it is trained, so a worker that
		// dies mid-poll loses only the units it had not finished.
		done := false
		for _, u := range poll.Units {
			trained++
			if done, err = w.report(ctx, []UnitResult{train(ctx, w.cache, u)}); err != nil || done {
				break
			}
		}
		if err != nil {
			if ctx.Err() != nil {
				return trained, ctx.Err()
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
			return trained, nil
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
