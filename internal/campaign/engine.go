package campaign

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"galsim/internal/pipeline"
	"galsim/internal/timeline"
)

// TimelineTap configures the microarchitecture timeline of one execution.
// Timelines are a local observation tap, like OnCommit and trace capture:
// they never join RunSpec, so they cannot perturb cache keys or results.
type TimelineTap struct {
	Recorder *timeline.Recorder
	// Detail records per-item push/pop instants on cross-domain links.
	Detail bool
	// StallThreshold (decode cycles without a commit) marks the recorder
	// triggered for a flight-recorder dump; 0 disables.
	StallThreshold uint64
}

// CacheStats snapshots the engine's memoization counters.
type CacheStats struct {
	Hits    uint64 `json:"hits"`    // runs served from the cache (or joined in flight)
	Misses  uint64 `json:"misses"`  // runs actually simulated
	Entries int    `json:"entries"` // completed runs currently held
}

// entry is one cached (or in-flight) run; done is closed when st/err are set.
type entry struct {
	done chan struct{}
	st   pipeline.Stats
	err  error
}

const numShards = 32

// shard is one lock-striped slice of the content-addressed cache.
type shard struct {
	mu      sync.Mutex
	entries map[string]*entry
}

// Engine executes RunSpecs with bounded concurrency and memoizes every
// completed run in a sharded in-memory cache keyed by RunSpec.Key. At most
// `workers` simulations execute at any moment, across all concurrent Run
// and RunAll callers. It is safe for concurrent use; concurrent requests
// for the same key share a single simulation (singleflight).
type Engine struct {
	workers int
	sem     chan struct{} // global simulation-concurrency bound
	shards  [numShards]shard
	hits    atomic.Uint64
	misses  atomic.Uint64
}

// NewEngine builds an engine with the given worker-pool width; workers <= 0
// selects GOMAXPROCS.
func NewEngine(workers int) *Engine {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	e := &Engine{workers: workers, sem: make(chan struct{}, workers)}
	for i := range e.shards {
		e.shards[i].entries = map[string]*entry{}
	}
	return e
}

// Workers returns the pool width.
func (e *Engine) Workers() int { return e.workers }

var (
	sharedOnce   sync.Once
	sharedEngine *Engine
)

// Shared returns the process-wide default engine (GOMAXPROCS workers).
// galsim.RunMany and the experiment drivers both execute through it, so
// overlapping specs issued via either API are simulated exactly once per
// process and share one result cache.
func Shared() *Engine {
	sharedOnce.Do(func() { sharedEngine = NewEngine(0) })
	return sharedEngine
}

// Stats returns a snapshot of the cache counters.
func (e *Engine) Stats() CacheStats {
	s := CacheStats{Hits: e.hits.Load(), Misses: e.misses.Load()}
	for i := range e.shards {
		sh := &e.shards[i]
		sh.mu.Lock()
		s.Entries += len(sh.entries)
		sh.mu.Unlock()
	}
	return s
}

func (e *Engine) shardFor(key string) *shard {
	// key is hex SHA-256: decode the leading byte (two nibbles) so the
	// index is uniform over 0..255 rather than over the 16 hex digits.
	return &e.shards[(hexNibble(key[0])<<4|hexNibble(key[1]))%numShards]
}

func hexNibble(c byte) byte {
	if c >= 'a' {
		return c - 'a' + 10
	}
	return c - '0'
}

// Run executes one unit through the cache: a previously completed identical
// spec returns instantly, an in-flight one is joined, and a new one is
// simulated on the calling goroutine once a worker slot frees up, so
// concurrent callers never exceed the engine's worker bound. ctx
// cancellation abandons the wait (an already-started simulation still
// completes and populates the cache).
func (e *Engine) Run(ctx context.Context, spec RunSpec) (pipeline.Stats, error) {
	st, _, err := e.RunOpts(ctx, spec, ExecOpts{})
	return st, err
}

// RunOpts is Run with the full execution options and a cache-hit report.
// hit is true when the result came from a completed cache entry or joined
// an in-flight simulation — the signal Progress.CacheHits aggregates. The
// taps and snapshot sinks in opts (OnCommit, TraceOut, Tap, SnapshotOut,
// OnSnapshot) fire only when this call actually simulates (hit == false):
// a cached result was produced elsewhere, and an observation belongs to one
// execution, not to the memoized value. opts never joins the cache key; a
// Resume restore is cache-grade because the pipeline differential gate
// proves it byte-identical to a cold execution. The cluster worker resumes
// checkpointed jobs through it.
func (e *Engine) RunOpts(ctx context.Context, spec RunSpec, opts ExecOpts) (pipeline.Stats, bool, error) {
	// Canonicalize once up front: this pins a trace's content digest, so
	// the cache key below and the execution's own Validate see the same
	// content. A trace file swapped between keying and execution then fails
	// the digest check with an explicit error instead of caching the new
	// content's results under the old content's key.
	spec = spec.Canonical()
	if err := spec.Validate(); err != nil {
		return pipeline.Stats{}, false, err
	}
	key := spec.Key()
	sh := e.shardFor(key)
	for {
		if err := ctx.Err(); err != nil {
			return pipeline.Stats{}, false, err
		}
		sh.mu.Lock()
		if ent, ok := sh.entries[key]; ok {
			sh.mu.Unlock()
			e.hits.Add(1)
			select {
			case <-ent.done:
				// The owner may have given up waiting for a worker slot
				// because ITS context was cancelled; that must not poison
				// a joiner whose context is still live. The failed entry
				// was already deleted, so loop and take ownership.
				if (errors.Is(ent.err, context.Canceled) || errors.Is(ent.err, context.DeadlineExceeded)) && ctx.Err() == nil {
					continue
				}
				return ent.st, true, ent.err
			case <-ctx.Done():
				return pipeline.Stats{}, false, ctx.Err()
			}
		}
		ent := &entry{done: make(chan struct{})}
		sh.entries[key] = ent
		sh.mu.Unlock()

		select {
		case e.sem <- struct{}{}:
		case <-ctx.Done():
			ent.err = ctx.Err()
		}
		if ent.err == nil {
			e.misses.Add(1)
			ent.st, ent.err = ExecuteOpts(spec, opts)
			<-e.sem
		}
		if ent.err != nil {
			// Do not cache failures: a later identical request re-validates.
			sh.mu.Lock()
			delete(sh.entries, key)
			sh.mu.Unlock()
		}
		close(ent.done)
		return ent.st, false, ent.err
	}
}

// RunAll fans specs out over the worker pool and returns their stats in
// input order. The first error cancels the remaining units and is returned;
// a cancelled ctx stops the pool promptly (units not yet started are never
// simulated). Duplicate specs within one call are simulated once.
func (e *Engine) RunAll(ctx context.Context, specs []RunSpec) ([]pipeline.Stats, error) {
	return e.RunAllProgress(ctx, specs, nil)
}

// RunAllProgress is RunAll with live progress reporting: fn (when non-nil)
// receives a monotone Progress snapshot after every completed unit, from
// the completing worker goroutines. Implements Backend.
func (e *Engine) RunAllProgress(ctx context.Context, specs []RunSpec, fn ProgressFunc) ([]pipeline.Stats, error) {
	if len(specs) == 0 {
		if fn != nil {
			fn(Progress{})
		}
		return nil, nil
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	var (
		progMu sync.Mutex
		prog   = Progress{Total: len(specs)}
	)
	report := func(mutate func(*Progress)) {
		if fn == nil {
			return
		}
		progMu.Lock()
		mutate(&prog)
		snap := prog
		progMu.Unlock()
		fn(snap)
	}

	results := make([]pipeline.Stats, len(specs))
	var (
		firstErr error
		errOnce  sync.Once
		wg       sync.WaitGroup
	)
	next := make(chan int)
	workers := min(e.workers, len(specs))
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				if ctx.Err() != nil {
					return
				}
				st, hit, err := e.RunOpts(ctx, specs[i], ExecOpts{})
				if err != nil {
					// Only the winning (first) error counts as a failed
					// unit; the cancellation errors it induces in the other
					// workers are not failures of their units.
					won := false
					errOnce.Do(func() {
						firstErr = fmt.Errorf("campaign: unit %d (%s/%s): %w",
							i, specs[i].MachineName(), specs[i].WorkloadName(), err)
						cancel()
						won = true
					})
					if won {
						report(func(p *Progress) { p.Failed++ })
					}
					return
				}
				results[i] = st
				report(func(p *Progress) {
					p.Completed++
					if hit {
						p.CacheHits++
					}
				})
			}
		}()
	}
feed:
	for i := range specs {
		select {
		case next <- i:
		case <-ctx.Done():
			break feed
		}
	}
	close(next)
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return results, nil
}
