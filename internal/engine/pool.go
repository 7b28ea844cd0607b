package engine

import (
	"context"
	"sync"
	"sync/atomic"
)

// Pool bounds the number of goroutines the engine runs concurrently.
// The zero/nil Pool is valid and means "no extra workers": Map runs
// sequentially in the calling goroutine.
//
// The pool shares work: each Map call keeps one cursor, and the calling
// goroutine plus the helpers recruited for it claim the next unclaimed
// index until none are left. Before running each item it claims, a
// goroutine tries to acquire a slot without blocking and, if one is
// free while unclaimed items remain, starts a helper that holds the
// slot while draining the same cursor. The caller always counts as one
// worker and every helper holds a slot, so a pool created with
// NewPool(n) yields at most n concurrently running items. Because
// acquisition never blocks, nested Map calls over the same pool (an
// experiment fanning out per-CPU-model sub-runs while the suite runner
// fans out experiments) cannot deadlock; and because a helper that
// finishes an item claims the next one instead of exiting, the rest of
// the items never wait behind a long one.
type Pool struct {
	sem chan struct{}
}

// NewPool returns a pool allowing up to workers concurrently running
// items (including the calling goroutine). workers <= 1 returns nil:
// fully sequential execution.
func NewPool(workers int) *Pool {
	if workers <= 1 {
		return nil
	}
	return &Pool{sem: make(chan struct{}, workers-1)}
}

// Workers reports the concurrency bound (1 for the nil pool).
func (p *Pool) Workers() int {
	if p == nil {
		return 1
	}
	return cap(p.sem) + 1
}

// tryAcquire takes a slot if one is free; it never blocks. The nil
// pool has no slots.
func (p *Pool) tryAcquire() bool {
	if p == nil {
		return false
	}
	select {
	case p.sem <- struct{}{}:
		return true
	default:
		return false
	}
}

// poolKey carries the process's pool through contexts so nested code
// (experiments decomposing into per-model units) inherits the same
// concurrency bound the CLI configured, without global state.
type poolKey struct{}

// WithPool returns a context carrying p. A nil p is valid (sequential).
func WithPool(ctx context.Context, p *Pool) context.Context {
	return context.WithValue(ctx, poolKey{}, p)
}

// PoolFrom extracts the pool installed by WithPool; nil (sequential)
// when the context carries none.
func PoolFrom(ctx context.Context) *Pool {
	p, _ := ctx.Value(poolKey{}).(*Pool)
	return p
}

// Map runs fn(0..n-1) with the parallelism bound of the context's pool
// and returns the results in index order. The caller and the helpers
// recruited from free pool slots share one cursor over the indices
// (see Pool). Determinism contract: the result slice depends only on
// fn, never on scheduling. If any fn returns an error, Map returns the
// error of the lowest index alongside the partial results. A canceled
// context stops new items from starting (running items finish);
// canceled items report ctx.Err().
func Map[T any](ctx context.Context, n int, fn func(i int) (T, error)) ([]T, error) {
	results := make([]T, n)
	errs := make([]error, n)
	p := PoolFrom(ctx)
	var next atomic.Int64
	var wg sync.WaitGroup
	// work claims items off the shared cursor until none are left.
	// Before running each one it recruits a helper into a free slot
	// while later items remain, so a slot freed mid-run is filled.
	var work func()
	work = func() {
		for {
			i := int(next.Add(1)) - 1
			if i >= n {
				return
			}
			if err := ctx.Err(); err != nil {
				errs[i] = err
				continue
			}
			if i+1 < n && p.tryAcquire() {
				wg.Add(1)
				go func() {
					defer wg.Done()
					defer func() { <-p.sem }()
					work()
				}()
			}
			results[i], errs[i] = fn(i)
		}
	}
	work()
	wg.Wait()
	return results, firstError(errs)
}

func firstError(errs []error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
