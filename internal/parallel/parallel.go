// Package parallel provides a small, deterministic bounded worker pool for
// fanning independent index-addressed tasks out over the available cores.
//
// The determinism contract: callers hand ForEach/Map a pure function of the
// task index, results are written into pre-sized slices indexed by task (never
// appended from goroutines), and every task derives its randomness from an
// explicit per-task seed. Under that contract the output is bit-for-bit
// identical for any worker count, including the serial workers=1 fallback,
// which runs everything on the caller's goroutine.
package parallel

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers clamps a requested worker count for n independent tasks: a request
// of 0 or less means "use all cores" (runtime.GOMAXPROCS(0)); the result
// never exceeds n and is at least 1.
func Workers(requested, n int) int {
	w := requested
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}
	return w
}

// panicError carries a worker panic to the caller's goroutine.
type panicError struct {
	index int
	value any
}

// ForEach runs fn(i) for every i in [0, n) on a pool of at most `workers`
// goroutines (see Workers for the clamping rules). With one worker it runs
// serially on the calling goroutine and stops at the first error.
//
// In parallel mode every task runs to completion even after a failure, so
// which tasks executed does not depend on scheduling; the error of the
// lowest-index failed task is returned either way. A panicking task is
// re-panicked on the caller's goroutine with the task index attached.
func ForEach(workers, n int, fn func(i int) error) error {
	if n <= 0 {
		return nil
	}
	workers = Workers(workers, n)
	if workers == 1 {
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}

	var (
		next     atomic.Int64
		wg       sync.WaitGroup
		mu       sync.Mutex // guards failed, firstErr and panicked
		failed   = n        // lowest failed index, n while none failed
		firstErr error
		panicked *panicError
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				func() {
					defer func() {
						if r := recover(); r != nil {
							mu.Lock()
							if panicked == nil || i < panicked.index {
								panicked = &panicError{index: i, value: r}
							}
							mu.Unlock()
						}
					}()
					if err := fn(i); err != nil {
						mu.Lock()
						if i < failed {
							failed, firstErr = i, err
						}
						mu.Unlock()
					}
				}()
			}
		}()
	}
	wg.Wait()
	if panicked != nil {
		panic(fmt.Sprintf("parallel: task %d panicked: %v", panicked.index, panicked.value))
	}
	return firstErr
}

// Map runs fn over [0, n) with at most `workers` goroutines and collects the
// results into a slice indexed by task, preserving order regardless of the
// worker count. Error and panic semantics follow ForEach.
func Map[T any](workers, n int, fn func(i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	err := ForEach(workers, n, func(i int) error {
		v, err := fn(i)
		if err != nil {
			return err
		}
		out[i] = v
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
