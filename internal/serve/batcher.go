package serve

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// Batcher is the admission queue that turns a fleet of concurrent
// single-state decisions into batched forward passes. Callers block in
// Decide; the first admission into an empty queue arms a window timer, and
// the batch flushes as one policy.DQN.DecideBatch call when it fills to
// MaxBatch (the admitting goroutine flushes inline, so a full batch never
// waits on the timer) or when the window expires, whichever comes first. The
// window is therefore the worst-case queueing latency a lone request pays,
// and MaxBatch bounds how much work one forward pass carries.
//
// The steady state allocates nothing per decision: micro-batches (state and
// action buffers) recycle through a sync.Pool once their last waiter has read
// its result, states are copied straight into the pooled batch buffer at
// admission, and the snapshot's own pooled scratch backs the forward pass.
// Each batch allocates only its ready channel (a closed channel cannot be
// reused) and its window timer with the timer's closure, amortized across up
// to MaxBatch decisions; TestBatcherAdmissionAllocs holds that budget.
type Batcher struct {
	m        *Model
	maxBatch int
	window   time.Duration

	mu     sync.Mutex
	cur    *microbatch
	gen    uint64 // increments whenever cur is taken; guards stale timer flushes
	closed bool   // draining: admissions flush immediately, no timers armed

	free sync.Pool // *microbatch
}

// microbatch is one in-flight batch: admitted states, the policy generation
// they were validated against, and the rendezvous for its waiters.
type microbatch struct {
	pol     decidePolicy // pinned at creation so one flush is one consistent model
	dim     int
	states  []float64
	actions []int
	n       int
	err     error
	ready   chan struct{} // closed after flush; actions/err are then readable
	readers atomic.Int32  // waiters yet to read; the last one recycles the batch
}

// newBatcher builds the admission queue for one model. window must be
// positive: with no timer a lone admission would wait forever.
func newBatcher(m *Model, maxBatch int, window time.Duration) (*Batcher, error) {
	if maxBatch < 1 {
		return nil, fmt.Errorf("serve: max batch %d must be >= 1", maxBatch)
	}
	if window <= 0 {
		return nil, fmt.Errorf("serve: batch window %v must be positive", window)
	}
	return &Batcher{m: m, maxBatch: maxBatch, window: window}, nil
}

// Decide admits one state and blocks until its batch has been evaluated,
// returning the greedy action. len(state) must equal the current model's
// StateDim (the handler validates first; the batcher re-checks because a
// hot-swap can change dimensions between validation and admission).
func (b *Batcher) Decide(state []float64) (int, error) {
	for {
		b.mu.Lock()
		if b.cur == nil {
			pol := b.m.policy()
			if len(state) != pol.StateDim() {
				b.mu.Unlock()
				return 0, fmt.Errorf("serve: state has %d features, model wants %d", len(state), pol.StateDim())
			}
			b.cur = b.get(pol)
			if !b.closed {
				gen := b.gen
				time.AfterFunc(b.window, func() { b.flushGen(gen) })
			}
		} else if b.cur.dim != len(state) {
			// The model was hot-swapped to different dimensions while this
			// batch was filling. Flush what we have against its pinned policy
			// and re-admit against the new one.
			mb := b.take()
			b.mu.Unlock()
			b.flush(mb, &b.m.stats.FlushWindow)
			continue
		}
		mb := b.cur
		idx := mb.n
		copy(mb.states[idx*mb.dim:(idx+1)*mb.dim], state)
		mb.n++
		full := mb.n == b.maxBatch
		drain := b.closed
		if full || drain {
			b.take()
		}
		b.mu.Unlock()

		if full {
			b.flush(mb, &b.m.stats.FlushFull)
		} else if drain {
			b.flush(mb, &b.m.stats.FlushWindow)
		}
		<-mb.ready
		action, err := mb.actions[idx], mb.err
		if mb.readers.Add(-1) == 0 {
			b.put(mb)
		}
		return action, err
	}
}

// take detaches the current batch (caller holds b.mu) and bumps the
// generation so its timer becomes a no-op.
func (b *Batcher) take() *microbatch {
	mb := b.cur
	b.cur = nil
	b.gen++
	return mb
}

// flushGen is the window-timer callback for the batch that was current at
// generation gen; it does nothing if that batch has since flushed.
func (b *Batcher) flushGen(gen uint64) {
	b.mu.Lock()
	if b.gen != gen || b.cur == nil {
		b.mu.Unlock()
		return
	}
	mb := b.take()
	b.mu.Unlock()
	b.flush(mb, &b.m.stats.FlushWindow)
}

// flush runs the batched forward and releases the waiters. kind counts what
// triggered the flush.
func (b *Batcher) flush(mb *microbatch, kind *atomic.Int64) {
	mb.readers.Store(int32(mb.n))
	mb.err = mb.pol.DecideBatch(mb.states[:mb.n*mb.dim], mb.actions[:mb.n])
	kind.Add(1)
	b.m.stats.BatchFill.Observe(int64(mb.n))
	close(mb.ready)
}

// Close puts the batcher into drain mode: the pending batch flushes now, and
// any admission still in flight flushes immediately as a batch of one instead
// of arming new timers. Used by graceful shutdown so no decision is dropped.
func (b *Batcher) Close() {
	b.mu.Lock()
	b.closed = true
	var mb *microbatch
	if b.cur != nil {
		mb = b.take()
	}
	b.mu.Unlock()
	if mb != nil {
		b.flush(mb, &b.m.stats.FlushWindow)
	}
}

// get recycles (or grows) a pooled micro-batch sized for pol's dimensions.
func (b *Batcher) get(pol decidePolicy) *microbatch {
	mb, _ := b.free.Get().(*microbatch)
	if mb == nil {
		mb = &microbatch{}
	}
	dim := pol.StateDim()
	if cap(mb.states) < b.maxBatch*dim {
		mb.states = make([]float64, b.maxBatch*dim)
	}
	mb.states = mb.states[:b.maxBatch*dim]
	if cap(mb.actions) < b.maxBatch {
		mb.actions = make([]int, b.maxBatch)
	}
	mb.actions = mb.actions[:b.maxBatch]
	mb.pol, mb.dim, mb.n, mb.err = pol, dim, 0, nil
	mb.ready = make(chan struct{})
	return mb
}

// put returns a fully-read micro-batch to the pool, dropping its policy pin
// so a recycled batch never keeps an old snapshot alive.
func (b *Batcher) put(mb *microbatch) {
	mb.pol = nil
	b.free.Put(mb)
}
