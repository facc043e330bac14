package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime/pprof"
	"sync"
	"time"

	"ctjam"
	"ctjam/internal/core"
	"ctjam/internal/env"
	"ctjam/internal/policy"
	"ctjam/internal/serve"
)

// serveClients is the number of concurrent connections per phase: one per
// CPU of the reference host, so the load generator never outnumbers the
// cores it shares with the server.
const serveClients = 2

// statePool is the number of distinct states (link) or bodies (gateway)
// each client cycles through; their expected actions are precomputed.
const statePool = 256

// liveServer is an in-process ctjam-serve on a loopback listener.
type liveServer struct {
	srv  *serve.Server
	hs   *http.Server
	url  string
	done chan struct{}
}

// startServer builds the server from the checkpoint with ctjam-serve's
// defaults (batching on, exact engine) and waits for /v1/healthz. Its
// goroutines carry the pprof label role=server.
func startServer(model string) (*liveServer, error) {
	srv, err := serve.New(serve.Config{
		Models:   []serve.ModelSpec{{Name: "default", Path: model}},
		Batching: true,
		PProf:    true,
	})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	l := &liveServer{srv: srv, hs: &http.Server{Handler: srv.Handler()},
		url: "http://" + ln.Addr().String(), done: make(chan struct{})}
	pprof.Do(context.Background(), pprof.Labels("role", "server"), func(context.Context) {
		go func() {
			defer close(l.done)
			l.hs.Serve(ln)
		}()
	})
	resp, err := http.Get(l.url + "/v1/healthz")
	if err != nil {
		l.close()
		return nil, err
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		l.close()
		return nil, fmt.Errorf("healthz answered %s", resp.Status)
	}
	http.DefaultClient.CloseIdleConnections()
	return l, nil
}

// close drains the server and waits for its serve goroutine to exit.
func (l *liveServer) close() error {
	l.srv.BeginDrain()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := l.hs.Shutdown(ctx)
	<-l.done
	return err
}

// serveInputs are the requests of one run, generated from the seed, with
// the actions the checkpoint must answer, computed by rl.Snapshot directly.
type serveInputs struct {
	model string
	// link[c][i] is client c's i-th NDJSON line, want[c][i] its action.
	link     [][][]byte
	linkWant [][]int
	// gate[c][i] is client c's i-th /v1/decide body, gateWant its actions.
	gate     [][][]byte
	gateWant [][][]int
}

func makeServeInputs(r *run) (*serveInputs, error) {
	cfg := ctjam.DefaultConfig()
	cfg.Seed = r.seed
	pol, err := ctjam.TrainDQN(cfg, 0) // a fixed-seed network at paper dimensions
	if err != nil {
		return nil, err
	}
	in := &serveInputs{model: filepath.Join(r.work, "model.ctjm")}
	var buf bytes.Buffer
	if err := pol.Save(&buf); err != nil {
		return nil, err
	}
	if err := os.WriteFile(in.model, buf.Bytes(), 0o644); err != nil {
		return nil, err
	}
	snap, err := core.SnapshotFromCheckpoint(bytes.NewReader(buf.Bytes()))
	if err != nil {
		return nil, err
	}
	ecfg := env.DefaultConfig()
	rng := rand.New(rand.NewSource(r.seed))
	hist := policy.NewHistory(ecfg.Channels, len(ecfg.TxPowers), snap.StateDim()/3)
	state := func() []float64 {
		// A realistic window: the encoder's view of random past slots.
		for i := 0; i < snap.StateDim()/3; i++ {
			hist.Push(env.Outcome(1+rng.Intn(3)), rng.Intn(ecfg.Channels), rng.Intn(len(ecfg.TxPowers)))
		}
		return hist.Snapshot()
	}
	greedy := func(states []float64) ([]int, error) {
		a := make([]int, len(states)/snap.StateDim())
		return a, snap.GreedyBatch(a, states)
	}
	for c := 0; c < serveClients; c++ {
		var lines [][]byte
		var want []int
		for i := 0; i < statePool; i++ {
			s := state()
			line, err := json.Marshal(serve.DecideRequest{State: s})
			if err != nil {
				return nil, err
			}
			a, err := greedy(s)
			if err != nil {
				return nil, err
			}
			lines = append(lines, append(line, '\n'))
			want = append(want, a[0])
		}
		in.link = append(in.link, lines)
		in.linkWant = append(in.linkWant, want)

		var bodies [][]byte
		var wants [][]int
		for i := 0; i < statePool/16; i++ {
			states := make([][]float64, r.sz.gatewayBatch)
			var flat []float64
			for j := range states {
				states[j] = state()
				flat = append(flat, states[j]...)
			}
			body, err := json.Marshal(serve.DecideRequest{States: states})
			if err != nil {
				return nil, err
			}
			a, err := greedy(flat)
			if err != nil {
				return nil, err
			}
			bodies = append(bodies, body)
			wants = append(wants, a)
		}
		in.gate = append(in.gate, bodies)
		in.gateWant = append(in.gateWant, wants)
	}
	return in, nil
}

// loadResult is what one closed-loop phase measured at the client.
type loadResult struct {
	lat     []float64 // per-operation latency, µs
	units   int       // decisions answered
	ops     int       // operations attempted
	failed  int       // operations that failed or answered wrongly
	elapsed time.Duration
	errs    []string
}

func (a *loadResult) merge(b *loadResult) {
	a.lat = append(a.lat, b.lat...)
	a.units += b.units
	a.ops += b.ops
	a.failed += b.failed
	a.errs = append(a.errs, b.errs...)
}

// serveRounds is how many link+gateway rounds a run alternates, so a
// stretch of host contention lands on both phases; each round gives one
// peak-RSS sample.
const serveRounds = 5

// closedLoop runs serveClients clients for d, each calling op in a loop
// (the next request goes out when the previous answer is in). Client
// goroutines carry the pprof label role=client.
func closedLoop(d time.Duration, client func(c int, deadline time.Time) *loadResult) *loadResult {
	start := time.Now()
	deadline := start.Add(d)
	results := make([]*loadResult, serveClients)
	var wg sync.WaitGroup
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		pprof.Do(context.Background(), pprof.Labels("role", "client"), func(context.Context) {
			go func(c int) {
				defer wg.Done()
				results[c] = client(c, deadline)
			}(c)
		})
	}
	wg.Wait()
	total := &loadResult{elapsed: time.Since(start)}
	for _, res := range results {
		total.merge(res)
	}
	return total
}

// linkPhase runs one NDJSON session per client, one state per line: the
// link path, whose decisions go through the micro-batcher.
func linkPhase(l *liveServer, in *serveInputs, d time.Duration) *loadResult {
	return closedLoop(d, func(c int, deadline time.Time) *loadResult {
		res := &loadResult{}
		fail := func(err error) *loadResult {
			res.ops++
			res.failed++
			res.errs = append(res.errs, err.Error())
			return res
		}
		pr, pw := io.Pipe()
		defer pw.Close()
		req, err := http.NewRequest(http.MethodPost, l.url+"/v1/session", pr)
		if err != nil {
			return fail(err)
		}
		tr := &http.Transport{}
		defer tr.CloseIdleConnections()
		resp, err := (&http.Client{Transport: tr}).Do(req)
		if err != nil {
			return fail(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			pw.Close()
			return fail(fmt.Errorf("session answered %s", resp.Status))
		}
		br := bufio.NewReader(resp.Body)
		var out serve.DecideResponse
		for i := 0; time.Now().Before(deadline); i++ {
			k := i % statePool
			res.ops++
			t := time.Now()
			if _, err := pw.Write(in.link[c][k]); err != nil {
				return fail(err)
			}
			line, err := br.ReadBytes('\n')
			if err != nil {
				return fail(err)
			}
			res.lat = append(res.lat, float64(time.Since(t).Nanoseconds())/1e3)
			out = serve.DecideResponse{}
			if err := json.Unmarshal(line, &out); err != nil || out.Action == nil || *out.Action != in.linkWant[c][k] {
				res.failed++
				res.errs = append(res.errs, fmt.Sprintf("link answer %q, want action %d", bytes.TrimSpace(line), in.linkWant[c][k]))
				continue
			}
			res.units++
		}
		pw.Close()
		io.Copy(io.Discard, br)
		return res
	})
}

// gatewayPhase runs one keep-alive connection per client posting stacked
// states to /v1/decide: the direct path, which bypasses the batcher.
func gatewayPhase(l *liveServer, in *serveInputs, d time.Duration) *loadResult {
	return closedLoop(d, func(c int, deadline time.Time) *loadResult {
		res := &loadResult{}
		tr := &http.Transport{MaxIdleConnsPerHost: 1}
		defer tr.CloseIdleConnections()
		client := &http.Client{Transport: tr}
		var out serve.DecideResponse
		var body bytes.Buffer
		for i := 0; time.Now().Before(deadline); i++ {
			k := i % len(in.gate[c])
			res.ops++
			t := time.Now()
			resp, err := client.Post(l.url+"/v1/decide", "application/json", bytes.NewReader(in.gate[c][k]))
			if err != nil {
				res.failed++
				res.errs = append(res.errs, err.Error())
				continue
			}
			body.Reset()
			_, err = body.ReadFrom(resp.Body)
			resp.Body.Close()
			res.lat = append(res.lat, float64(time.Since(t).Nanoseconds())/1e3)
			out = serve.DecideResponse{}
			if err != nil || resp.StatusCode != http.StatusOK || json.Unmarshal(body.Bytes(), &out) != nil || !equalInts(out.Actions, in.gateWant[c][k]) {
				res.failed++
				res.errs = append(res.errs, fmt.Sprintf("gateway answered %s: %.200q", resp.Status, body.String()))
				continue
			}
			res.units += len(out.Actions)
		}
		return res
	})
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// serverStats is the slice of GET /v1/stats the link metrics use.
type serverStats struct {
	Errors int64 `json:"errors"`
	Models map[string]struct {
		Latency struct {
			Count int64   `json:"count"`
			Mean  float64 `json:"mean_us"`
		} `json:"latency_us"`
		Batch struct {
			Flushes       int64   `json:"flushes"`
			FlushesWindow int64   `json:"flushes_window"`
			MeanFill      float64 `json:"mean_fill"`
		} `json:"batch"`
	} `json:"models"`
}

func getStats(l *liveServer) (*serverStats, error) {
	resp, err := http.Get(l.url + "/v1/stats")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var st serverStats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return nil, fmt.Errorf("decode /v1/stats: %w", err)
	}
	return &st, nil
}

// account adds a phase's client-side outcome to the run.
func account(r *run, res *loadResult, what string) {
	r.attempted += int64(res.ops)
	r.failed += int64(res.failed)
	for i, e := range res.errs {
		if i == 3 {
			r.fail("serve %s: %d more failures", what, len(res.errs)-i)
			break
		}
		r.fail("serve %s: %s", what, e)
	}
}

func runServe(r *run) error {
	in, err := makeServeInputs(r)
	if err != nil {
		return err
	}
	// Set-up is what ctjam-serve pays before its first answer: loading the
	// checkpoint, building the registry and batcher, and listening.
	st, err := newSetupTimer(r.sz.setupReps, func() (func() error, error) {
		l, err := startServer(in.model)
		if err != nil {
			return nil, err
		}
		return l.close, nil
	})
	if err != nil {
		return err
	}
	live, err := startServer(in.model)
	if err != nil {
		return err
	}
	defer live.close()

	// A short untimed warm-up of both paths.
	account(r, linkPhase(live, in, 200*time.Millisecond), "link")
	account(r, gatewayPhase(live, in, 200*time.Millisecond), "gateway")

	budget := r.halfIfTraced()
	var linkLat, cpuRates, wallRates, peaks []float64
	for i := 0; i < serveRounds; i++ {
		d := budget / (2 * serveRounds)
		if err := st.between(); err != nil {
			return err
		}
		resetPeakRSS()
		link := linkPhase(live, in, d)
		account(r, link, "link")
		c := cpuTime()
		gate := gatewayPhase(live, in, d)
		cpu := cpuTime() - c
		account(r, gate, "gateway")
		peaks = append(peaks, peakRSSMB())
		linkLat = append(linkLat, link.lat...)
		cpuRates = append(cpuRates, float64(gate.units)/cpu.Seconds())
		wallRates = append(wallRates, float64(gate.units)/gate.elapsed.Seconds())
	}
	r.e2e["setup_s"] = st.median()
	r.e2e["work_per_cpu_s"] = median(cpuRates)
	r.e2e["peak_rss_mb"] = median(peaks)
	r.layer["wall.work_per_s"] = median(wallRates)
	r.layer["serve.link.client_p50_us"] = median(linkLat)
	if r.trace {
		if err := traceServe(r, live, in, budget/2, median(cpuRates)); err != nil {
			return err
		}
	}
	stats, err := getStats(live)
	if err != nil {
		return err
	}
	r.layer["serve.errors"] = float64(stats.Errors)
	if stats.Errors != 0 {
		r.fail("serve: the server counted %d failed requests", stats.Errors)
	}
	return nil
}

func traceServe(r *run, live *liveServer, in *serveInputs, d time.Duration, untraced float64) error {
	before, err := getStats(live)
	if err != nil {
		return err
	}
	linkProf := filepath.Join(r.work, "serve-link.pprof")
	ph, err := startPhase(linkProf)
	if err != nil {
		return err
	}
	link := linkPhase(live, in, d)
	lst, err := ph.stop()
	if err != nil {
		return err
	}
	account(r, link, "link")
	after, err := getStats(live)
	if err != nil {
		return err
	}
	b, a := before.Models["default"], after.Models["default"]
	r.layer["serve.link.decisions_per_s"] = float64(link.units) / link.elapsed.Seconds()
	r.layer["serve.link.client_p99_us"] = quantile(link.lat, 0.99)
	// The server's latency histogram has power-of-two buckets, so its p50
	// is known only within a factor of two; its mean is exact.
	if n := a.Latency.Count - b.Latency.Count; n > 0 {
		r.layer["serve.link.server_mean_us"] = (a.Latency.Mean*float64(a.Latency.Count) - b.Latency.Mean*float64(b.Latency.Count)) / float64(n)
	}
	if flushes := a.Batch.Flushes - b.Batch.Flushes; flushes > 0 {
		fill := a.Batch.MeanFill*float64(a.Batch.Flushes) - b.Batch.MeanFill*float64(b.Batch.Flushes)
		r.layer["serve.link.batch_mean_fill"] = fill / float64(flushes)
		r.layer["serve.link.window_flush_share"] = float64(a.Batch.FlushesWindow-b.Batch.FlushesWindow) / float64(flushes)
	}
	r.layer["serve.link.cpu_util"] = lst.cpuUtil

	gateProf := filepath.Join(r.work, "serve-gateway.pprof")
	if ph, err = startPhase(gateProf); err != nil {
		return err
	}
	gate := gatewayPhase(live, in, d)
	gst, err := ph.stop()
	if err != nil {
		return err
	}
	account(r, gate, "gateway")
	if err := attribute(r, linkProf, gateProf); err != nil {
		return err
	}
	top, err := pprofTop(nil, gateProf)
	if err != nil {
		return err
	}
	shares := top.layerShares()
	r.layer["serve.gateway.json_cpu_share"] = shares["json"]
	r.layer["serve.gateway.http_cpu_share"] = shares["http"]
	r.layer["serve.gateway.nn_cpu_share"] = shares["nn"] + shares["rl"]
	r.layer["serve.gateway.serve_cpu_share"] = shares["serve"]
	r.layer["serve.gateway.gc_cpu_share"] = gst.gcShare
	client, err := pprofTop([]string{"-tagfocus=role=client"}, gateProf)
	if err != nil {
		return err
	}
	if top.total > 0 {
		r.layer["serve.gateway.client_cpu_share"] = client.kept() / top.total
	}
	r.layer["serve.gateway.alloc_kb_per_request"] = gst.allocBytes / float64(gate.ops) / 1024
	r.layer["serve.gateway.request_p50_us"] = quantile(gate.lat, 0.5)
	r.layer["serve.gateway.request_p99_us"] = quantile(gate.lat, 0.99)
	r.layer["parallel.cpu_util"] = (lst.cpuUtil*lst.wall.Seconds() + gst.cpuUtil*gst.wall.Seconds()) /
		(lst.wall + gst.wall).Seconds()
	r.layer["runtime.gc_cpu_share"] = gst.gcShare
	r.layer["trace.overhead"] = untraced / (float64(gate.units) / gst.cpu.Seconds())
	return nil
}
