package serve

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"ctjam/internal/rl"
)

// writePaperModel saves a random-weight learner at the paper's serving
// dimensions (24 features -> 48 -> 48 -> 160 actions), the same network
// BenchmarkPolicyBatch measures raw kernel throughput on.
func writePaperModel(b testing.TB, dir string) string {
	b.Helper()
	cfg := rl.DefaultDQNConfig(24, 160)
	cfg.Hidden = []int{48, 48}
	cfg.Seed = 7
	d, err := rl.NewDQN(cfg)
	if err != nil {
		b.Fatal(err)
	}
	path := filepath.Join(dir, "bench.ctdq")
	f, err := os.Create(path)
	if err != nil {
		b.Fatal(err)
	}
	if err := d.SaveState(f); err != nil {
		b.Fatal(err)
	}
	if err := f.Close(); err != nil {
		b.Fatal(err)
	}
	return path
}

// BenchmarkBatcherDecide measures the admission queue itself, no HTTP: many
// goroutines pushing single states through Batcher.Decide into fused
// GreedyBatch flushes on the paper-sized network. Its allocs/op is the
// per-batch cost (see TestBatcherAdmissionAllocs) divided by the fill.
func BenchmarkBatcherDecide(b *testing.B) {
	dir := b.TempDir()
	path := writePaperModel(b, dir)
	srv, err := New(Config{
		Models:   []ModelSpec{{Name: "default", Path: path}},
		Batching: true,
		MaxBatch: 64,
		Window:   200 * time.Microsecond,
	})
	if err != nil {
		b.Fatal(err)
	}
	m := srv.Registry().Default()
	const workers = 64
	states := make([][]float64, workers)
	for i := range states {
		states[i] = make([]float64, 24)
		for j := range states[i] {
			states[i][j] = float64(i*31+j) / (workers * 31)
		}
	}
	var next int
	var mu sync.Mutex
	b.SetParallelism(workers) // goroutines, not cores: they interleave in the queue
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		mu.Lock()
		id := next % workers
		next++
		mu.Unlock()
		st := states[id]
		for pb.Next() {
			if _, err := m.batcher.Decide(st); err != nil {
				b.Error(err)
				return
			}
		}
	})
}

// BenchmarkDecideBody measures one 64-state /v1/decide request through
// Server.Handler().ServeHTTP on the paper-sized network: body read, scan,
// one DecideBatch and the encoded answer, with the request and response
// writer reused so allocs/op is the handler's own (net/http's
// MaxBytesReader and Content-Type header). perfbench's serve gateway phase
// posts bodies of this shape.
func BenchmarkDecideBody(b *testing.B) {
	srv, _ := newPaperServer(b)
	h := srv.Handler()
	body, _ := paperBody(b)
	rd := bytes.NewReader(body)
	rc := io.NopCloser(rd)
	req := httptest.NewRequest(http.MethodPost, "/v1/decide", rd)
	w := &discardWriter{h: make(http.Header)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rd.Reset(body)
		req.Body = rc
		h.ServeHTTP(w, req)
		if w.code != http.StatusOK {
			b.Fatalf("status %d", w.code)
		}
	}
}

// discardWriter is a reusable http.ResponseWriter that keeps only the status.
type discardWriter struct {
	h    http.Header
	code int
}

func (w *discardWriter) Header() http.Header         { return w.h }
func (w *discardWriter) Write(p []byte) (int, error) { return len(p), nil }
func (w *discardWriter) WriteHeader(code int)        { w.code = code }
