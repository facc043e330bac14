// Command ctjam-serve serves trained anti-jamming policies over HTTP/JSON:
// an inference daemon for deployments where fleets of ZigBee links share
// trained Q networks. It is a thin shell around internal/serve, which
// provides cross-request micro-batching (concurrent single-state decisions
// coalesce into one batched forward pass on the AVX kernels), a multi-model
// registry (many named checkpoints in one process, each hot-reloadable), and
// streaming NDJSON sessions (one connection per link for its whole hopping
// session).
//
// Models are named with repeated -models name=path flags (or one
// comma-separated list); -model PATH is the legacy single-model spelling and
// maps to the name "default". The first named model backs the legacy
// un-named routes. Checkpoints may be in any of the repo's formats: a bare
// network (ctjam-train -out), a DQN learner state, or a full training
// checkpoint (ctjam-train -checkpoint).
//
// Every model serves on the exact float64 engine, bit-identical to the
// training-time forward pass.
//
// Endpoints:
//
//	POST /v1/decide                 {"state":[...]} or {"states":[[...],...]},
//	                                optional "qvalues":true — returns
//	                                {"action":n} / {"actions":[...]}
//	POST /v1/models/{name}/decide   same, against a named model
//	POST /v1/session                streaming NDJSON decision session
//	POST /v1/models/{name}/session  same, against a named model
//	GET  /v1/models                 the registry listing
//	GET  /v1/healthz                liveness plus the default model's shape
//	GET  /v1/stats                  per-model latency histograms (p50/p95/p99)
//	                                and batcher fill/flush distribution
//	POST /v1/reload                 re-read every model file (same as SIGHUP)
//	POST /v1/models/{name}/reload   re-read one model file
//
// Micro-batching is on by default (-batch=false restores one forward pass
// per request); -batch-window bounds the queueing latency a lone request
// pays and -max-batch the states per fused forward. SIGTERM/SIGINT drain
// gracefully: admissions stop with 503, pending micro-batches flush, open
// sessions unblock, and in-flight requests finish within -shutdown-timeout.
//
// With -pprof (the default), the standard net/http/pprof profiling surface
// is mounted under /debug/pprof/ on the same listener, so a live daemon can
// be profiled with e.g.
//
//	go tool pprof http://localhost:8080/debug/pprof/profile?seconds=10
//
// Pass -pprof=false on exposed deployments where the debug surface should
// not be reachable.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"ctjam/internal/serve"
)

// parseModelSpecs expands -models values ("name=path[,name=path...]",
// repeatable) and the legacy -model path into the registry's spec list,
// preserving flag order so the first spec backs the legacy routes.
func parseModelSpecs(legacy string, lists []string) ([]serve.ModelSpec, error) {
	var specs []serve.ModelSpec
	if legacy != "" {
		specs = append(specs, serve.ModelSpec{Name: "default", Path: legacy})
	}
	for _, list := range lists {
		for _, entry := range strings.Split(list, ",") {
			entry = strings.TrimSpace(entry)
			if entry == "" {
				continue
			}
			name, path, ok := strings.Cut(entry, "=")
			if !ok || name == "" || path == "" {
				return nil, fmt.Errorf("bad model spec %q (want name=path)", entry)
			}
			specs = append(specs, serve.ModelSpec{Name: name, Path: path})
		}
	}
	if len(specs) == 0 {
		return nil, errors.New("no models: pass -model PATH or -models name=path")
	}
	return specs, nil
}

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	model := flag.String("model", "", "single checkpoint to serve as model \"default\" (CTJM model, CTDQ learner state or CTTC training checkpoint)")
	var modelLists []string
	flag.Func("models", "named checkpoints to serve, name=path[,name=path...] (repeatable)", func(v string) error {
		modelLists = append(modelLists, v)
		return nil
	})
	defaultModel := flag.String("default-model", "", "model backing the legacy un-named routes (default: first spec)")
	batch := flag.Bool("batch", true, "coalesce concurrent single-state decisions into batched forward passes")
	window := flag.Duration("batch-window", serve.DefaultWindow, "micro-batch latency budget (max queueing delay for a lone request)")
	maxBatch := flag.Int("max-batch", serve.DefaultMaxBatch, "max states per batched forward pass")
	maxBody := flag.Int64("max-body", serve.DefaultMaxBody, "decide request body cap in bytes (larger bodies get 413)")
	shutdownTimeout := flag.Duration("shutdown-timeout", 10*time.Second, "grace period for draining in-flight requests on SIGTERM/SIGINT")
	pprofOn := flag.Bool("pprof", true, "expose net/http/pprof under /debug/pprof/ on the same listener")
	flag.Parse()

	specs, err := parseModelSpecs(*model, modelLists)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ctjam-serve: %v\n", err)
		flag.Usage()
		os.Exit(2)
	}
	srv, err := serve.New(serve.Config{
		Models:       specs,
		DefaultModel: *defaultModel,
		Batching:     *batch,
		MaxBatch:     *maxBatch,
		Window:       *window,
		MaxBody:      *maxBody,
		PProf:        *pprofOn,
	})
	if err != nil {
		log.Fatalf("ctjam-serve: %v", err)
	}
	for _, name := range srv.Registry().Names() {
		m := srv.Registry().Lookup(name)
		log.Printf("model %q: %s", name, m.Path())
	}
	log.Printf("serving %d model(s) on %s (batching=%v window=%v max-batch=%d)",
		len(specs), *addr, *batch, *window, *maxBatch)

	hup := make(chan os.Signal, 1)
	signal.Notify(hup, syscall.SIGHUP)
	go func() {
		for range hup {
			if err := srv.ReloadAll(); err != nil {
				log.Printf("reload failed (keeping previous snapshots where load failed): %v", err)
			} else {
				log.Printf("reloaded all models")
			}
		}
	}()

	h := &http.Server{Addr: *addr, Handler: srv.Handler(), ReadHeaderTimeout: 5 * time.Second}

	// Graceful drain: stop admissions (503), flush the pending micro-batches,
	// unblock streaming sessions, then let http.Server.Shutdown wait out the
	// in-flight requests under a deadline.
	term := make(chan os.Signal, 1)
	signal.Notify(term, syscall.SIGTERM, syscall.SIGINT)
	shutdownDone := make(chan error, 1)
	go func() {
		sig := <-term
		log.Printf("%s: draining (timeout %v)", sig, *shutdownTimeout)
		srv.BeginDrain()
		ctx, cancel := context.WithTimeout(context.Background(), *shutdownTimeout)
		defer cancel()
		shutdownDone <- h.Shutdown(ctx)
	}()

	if err := h.ListenAndServe(); !errors.Is(err, http.ErrServerClosed) {
		log.Fatalf("ctjam-serve: %v", err)
	}
	if err := <-shutdownDone; err != nil {
		log.Fatalf("ctjam-serve: shutdown: %v", err)
	}
	log.Printf("drained cleanly")
}
