package experiments

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
)

// memo is the Cache's concurrent memo table: each key is computed exactly
// once, by whichever caller claims it first, and every other caller waits for
// that claimant to fill it. The zero value is ready to use.
type memo[V any] struct {
	mu      sync.Mutex
	entries map[string]*memoEntry[V]

	// hits counts claims that found the key already present (resolved or in
	// flight); misses counts claims that made the caller the claimant.
	hits   atomic.Int64
	misses atomic.Int64
}

// memoEntry is one key's slot. done is closed once v/err are final; readers
// block on it.
type memoEntry[V any] struct {
	done chan struct{}
	v    V
	err  error
}

// entry returns the entry for key, creating an unfilled one if absent, and
// whether it already existed.
func (m *memo[V]) entry(key string) (*memoEntry[V], bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if e, ok := m.entries[key]; ok {
		return e, true
	}
	if m.entries == nil {
		m.entries = make(map[string]*memoEntry[V])
	}
	e := &memoEntry[V]{done: make(chan struct{})}
	m.entries[key] = e
	return e, false
}

// claim returns the entry for key and whether the caller claimed it. A
// claimed entry MUST be filled by the caller, or its waiters block until
// their contexts end; unclaimed entries are filled — now or eventually — by
// whoever claimed them.
func (m *memo[V]) claim(key string) (*memoEntry[V], bool) {
	e, found := m.entry(key)
	if found {
		m.hits.Add(1)
		return e, false
	}
	m.misses.Add(1)
	return e, true
}

// put installs an externally computed value under key. Results are pure
// functions of their keys, so a key that is already resolved keeps its
// (identical) value and an in-flight key is left for its claimant; put
// reports whether it installed v. It does not count as a hit or a miss.
func (m *memo[V]) put(key string, v V) bool {
	e, found := m.entry(key)
	if found {
		return false
	}
	e.fill(v, nil)
	return true
}

// get returns the value of a resolved, successful entry, or false if the key
// is unknown, still in flight, or failed.
func (m *memo[V]) get(key string) (V, bool) {
	m.mu.Lock()
	e, ok := m.entries[key]
	m.mu.Unlock()
	if !ok || !e.resolved() || e.err != nil {
		var zero V
		return zero, false
	}
	return e.v, true
}

// len returns the number of keys held, resolved or in flight.
func (m *memo[V]) len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.entries)
}

// fill resolves a claimed entry and releases its waiters.
func (e *memoEntry[V]) fill(v V, err error) {
	e.v, e.err = v, err
	close(e.done)
}

// resolved reports whether the entry has been filled.
func (e *memoEntry[V]) resolved() bool {
	select {
	case <-e.done:
		return true
	default:
		return false
	}
}

// wait blocks until the entry is filled or ctx ends; what names the entry
// kind in the error. A filled entry always wins the race: it is checked
// before ctx, so an expired context never fails a result that is already
// available.
func (e *memoEntry[V]) wait(ctx context.Context, what string) (V, error) {
	if e.resolved() {
		return e.v, e.err
	}
	select {
	case <-e.done:
		return e.v, e.err
	case <-ctx.Done():
		var zero V
		return zero, fmt.Errorf("experiments: waiting for in-flight %s: %w", what, ctx.Err())
	}
}
