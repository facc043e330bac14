package serve

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// fakePolicy counts DecideBatch calls and their sizes; action = index of the
// first feature truncated to int, so tests can check scatter correctness.
type fakePolicy struct {
	dim, actions int
	calls        atomic.Int64
	maxSeen      atomic.Int64
	states       atomic.Int64
	entered      atomic.Int64  // DecideBatch invocations, counted before blocking
	block        chan struct{} // if non-nil, DecideBatch waits on it
}

func (f *fakePolicy) StateDim() int   { return f.dim }
func (f *fakePolicy) NumActions() int { return f.actions }

func (f *fakePolicy) DecideBatch(states []float64, actions []int) error {
	f.entered.Add(1)
	if f.block != nil {
		<-f.block
	}
	n := len(actions)
	if len(states) != n*f.dim {
		return fmt.Errorf("fake: %d states for %d actions", len(states), n)
	}
	f.calls.Add(1)
	f.states.Add(int64(n))
	for {
		max := f.maxSeen.Load()
		if int64(n) <= max || f.maxSeen.CompareAndSwap(max, int64(n)) {
			break
		}
	}
	for i := range actions {
		actions[i] = int(states[i*f.dim])
	}
	return nil
}

func (f *fakePolicy) QValuesBatch(dst, states []float64) error {
	return fmt.Errorf("fake: no q values")
}

// newFakeModel wires a fakePolicy into a Model + Batcher without touching
// disk.
func newFakeModel(t *testing.T, pol *fakePolicy, maxBatch int, window time.Duration) *Model {
	t.Helper()
	m := &Model{name: "fake", path: "fake"}
	m.pol.Store(&polBox{pol})
	b, err := newBatcher(m, maxBatch, window)
	if err != nil {
		t.Fatal(err)
	}
	m.batcher = b
	return m
}

// TestBatcherCoalesces blocks the policy so admissions pile up, then proves
// they flush as one call, each caller getting its own action back.
func TestBatcherCoalesces(t *testing.T) {
	const k = 16
	pol := &fakePolicy{dim: 2, actions: k, block: make(chan struct{})}
	m := newFakeModel(t, pol, k, time.Hour) // window never fires; fill triggers
	var wg sync.WaitGroup
	results := make([]int, k)
	for i := 0; i < k; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			a, err := m.batcher.Decide([]float64{float64(i), 0.5})
			if err != nil {
				t.Errorf("decide %d: %v", i, err)
				return
			}
			results[i] = a
		}(i)
	}
	// Let all k admissions land; the k-th fills the batch and flushes into
	// the blocked policy (entered counts before the block).
	deadline := time.Now().Add(5 * time.Second)
	for pol.entered.Load() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	close(pol.block)
	wg.Wait()

	if got := pol.calls.Load(); got != 1 {
		t.Fatalf("policy called %d times, want 1 fused call", got)
	}
	if got := pol.maxSeen.Load(); got != k {
		t.Fatalf("fused batch size %d, want %d", got, k)
	}
	for i, a := range results {
		if a != i {
			t.Fatalf("caller %d got action %d (scatter mixed up results)", i, a)
		}
	}
	if m.stats.FlushFull.Load() != 1 || m.stats.FlushWindow.Load() != 0 {
		t.Fatalf("flush counters full=%d window=%d, want 1/0",
			m.stats.FlushFull.Load(), m.stats.FlushWindow.Load())
	}
}

// TestBatcherWindowFlush proves a lone admission is released by the window
// timer, not stuck waiting for a full batch.
func TestBatcherWindowFlush(t *testing.T) {
	pol := &fakePolicy{dim: 1, actions: 4}
	m := newFakeModel(t, pol, 64, 2*time.Millisecond)
	start := time.Now()
	a, err := m.batcher.Decide([]float64{3})
	if err != nil {
		t.Fatal(err)
	}
	if a != 3 {
		t.Fatalf("action %d, want 3", a)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("lone decide took %v; window flush broken", elapsed)
	}
	if m.stats.FlushWindow.Load() != 1 || m.stats.FlushFull.Load() != 0 {
		t.Fatalf("flush counters full=%d window=%d, want 0/1",
			m.stats.FlushFull.Load(), m.stats.FlushWindow.Load())
	}
	if fill := m.stats.BatchFill.Mean(); fill != 1 {
		t.Fatalf("mean fill %v, want 1", fill)
	}
}

// TestBatcherDimSwap hot-swaps the policy to different dimensions while a
// batch is filling: the pending batch must flush against the policy it was
// admitted under, and new admissions must use the new dimensions. maxBatch
// is 2 so the post-swap batch flushes by fill, with no timer involved.
func TestBatcherDimSwap(t *testing.T) {
	polA := &fakePolicy{dim: 2, actions: 4}
	m := newFakeModel(t, polA, 2, time.Hour)

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if a, err := m.batcher.Decide([]float64{7, 0}); err != nil || a != 7 {
			t.Errorf("old-dim decide: action %d err %v", a, err)
		}
	}()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		m.batcher.mu.Lock()
		pending := m.batcher.cur != nil && m.batcher.cur.n == 1
		m.batcher.mu.Unlock()
		if pending {
			break
		}
		time.Sleep(time.Millisecond)
	}

	// Swap in a 3-feature policy and run two new-shape decides: the first
	// flushes the pinned 2-feature singleton (unblocking the old caller) and
	// re-admits itself; the second fills the new batch to 2 and flushes it.
	polB := &fakePolicy{dim: 3, actions: 4}
	m.pol.Store(&polBox{polB})
	for _, v := range []float64{9, 11} {
		wg.Add(1)
		go func(v float64) {
			defer wg.Done()
			if a, err := m.batcher.Decide([]float64{v, 0, 0}); err != nil {
				t.Errorf("new-dim decide(%v): %v", v, err)
			} else if a != int(v) {
				t.Errorf("new-dim action %d, want %v", a, v)
			}
		}(v)
	}
	wg.Wait()

	if polA.maxSeen.Load() != 1 || polB.maxSeen.Load() != 2 {
		t.Fatalf("flushes went to the wrong policies: A=%d B=%d states",
			polA.states.Load(), polB.states.Load())
	}
	// A wrong-dimension state against the current policy is rejected.
	if _, err := m.batcher.Decide([]float64{1}); err == nil {
		t.Fatal("dim-1 state accepted by dim-3 policy")
	}
}

// TestBatcherClose proves drain semantics: the pending batch flushes
// immediately and later admissions still complete (as singleton flushes)
// rather than hanging on timers.
func TestBatcherClose(t *testing.T) {
	pol := &fakePolicy{dim: 1, actions: 4}
	m := newFakeModel(t, pol, 64, time.Hour) // window never fires in this test

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if a, err := m.batcher.Decide([]float64{2}); err != nil || a != 2 {
			t.Errorf("pre-close decide: action %d err %v", a, err)
		}
	}()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		m.batcher.mu.Lock()
		pending := m.batcher.cur != nil
		m.batcher.mu.Unlock()
		if pending {
			break
		}
		time.Sleep(time.Millisecond)
	}
	m.batcher.Close()
	wg.Wait() // would hang forever if Close did not flush (window is 1h)

	// Post-close admissions flush immediately as singletons.
	if a, err := m.batcher.Decide([]float64{5}); err != nil || a != 5 {
		t.Fatalf("post-close decide: action %d err %v", a, err)
	}
	m.batcher.Close() // idempotent
}

// TestBatcherConcurrentHammer drives many goroutines through admission,
// window flushes and full flushes at once under -race, and checks every
// caller gets its own result.
func TestBatcherConcurrentHammer(t *testing.T) {
	pol := &fakePolicy{dim: 1, actions: 1 << 20}
	m := newFakeModel(t, pol, 8, 50*time.Microsecond)
	const goroutines, perG = 16, 200
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				v := g*perG + i
				a, err := m.batcher.Decide([]float64{float64(v)})
				if err != nil {
					t.Errorf("decide(%d): %v", v, err)
					return
				}
				if a != v {
					t.Errorf("decide(%d) = %d: cross-request scatter corrupted", v, a)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if got := pol.states.Load(); got != goroutines*perG {
		t.Fatalf("policy saw %d states, want %d", got, goroutines*perG)
	}
	flushes := m.stats.FlushFull.Load() + m.stats.FlushWindow.Load()
	if flushes == 0 || flushes > goroutines*perG {
		t.Fatalf("implausible flush count %d for %d decisions", flushes, goroutines*perG)
	}
	if calls := pol.calls.Load(); calls != flushes {
		t.Fatalf("policy calls %d != flushes %d", calls, flushes)
	}
}

// TestBatcherAdmissionAllocs holds the admission queue's allocation budget:
// micro-batches recycle through the pool, so a flush costs only its ready
// channel plus the window timer and its closure, and the cost per decision
// falls as 1/fill. Eight goroutines against MaxBatch 8 and a 1 s window make
// every flush a full one.
func TestBatcherAdmissionAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("-race instrumentation allocates and sync.Pool drops items at random")
	}
	const goroutines, perG, maxAllocsPerFlush = 8, 500, 4
	pol := &fakePolicy{dim: 24, actions: goroutines}
	m := newFakeModel(t, pol, goroutines, time.Second)
	states := make([][]float64, goroutines)
	for g := range states {
		states[g] = make([]float64, pol.dim)
		states[g][0] = float64(g)
	}
	run := func(calls int) {
		var wg sync.WaitGroup
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := 0; i < calls; i++ {
					if a, err := m.batcher.Decide(states[g]); err != nil || a != g {
						t.Errorf("decide(%d) = %d, %v", g, a, err)
						return
					}
				}
			}(g)
		}
		wg.Wait()
	}
	flushes := func() int64 { return m.stats.FlushFull.Load() + m.stats.FlushWindow.Load() }

	run(20) // fill the micro-batch pool
	f0 := flushes()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	run(perG)
	runtime.ReadMemStats(&after)
	n := flushes() - f0
	if n == 0 {
		t.Fatal("no flushes")
	}
	perFlush := float64(after.Mallocs-before.Mallocs) / float64(n)
	t.Logf("%d flushes, %.2f allocs per flush, %.3f per decision", n, perFlush, perFlush*float64(n)/(goroutines*perG))
	if perFlush > maxAllocsPerFlush {
		t.Fatalf("admission allocates %.2f times per flush, want <= %d", perFlush, maxAllocsPerFlush)
	}
}

func TestHistQuantiles(t *testing.T) {
	var h Hist
	if h.Quantile(0.5) != 0 || h.Mean() != 0 {
		t.Fatal("empty hist must report zeros")
	}
	for v := int64(1); v <= 1000; v++ {
		h.Observe(v)
	}
	if h.Count() != 1000 {
		t.Fatalf("count %d", h.Count())
	}
	// Bucket upper bounds: the reported quantile must bracket the true one
	// within the 2x bucket resolution.
	for _, tc := range []struct{ q, truth float64 }{{0.50, 500}, {0.95, 950}, {0.99, 990}} {
		got := float64(h.Quantile(tc.q))
		if got < tc.truth || got > 2*tc.truth {
			t.Fatalf("q%.0f = %v, want in [%v, %v]", tc.q*100, got, tc.truth, 2*tc.truth)
		}
	}
	if m := h.Mean(); m != 500.5 {
		t.Fatalf("mean %v, want 500.5", m)
	}
	var total int64
	for _, c := range h.Buckets() {
		total += c
	}
	if total != 1000 {
		t.Fatalf("bucket counts sum to %d, want 1000", total)
	}
	// Negative observations clamp rather than corrupting the low bucket math.
	h.Observe(-5)
	if h.Count() != 1001 {
		t.Fatalf("count after clamp %d", h.Count())
	}
}
