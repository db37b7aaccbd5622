package campaign

import (
	"context"
	"errors"

	"galsim/internal/pipeline"
)

// ErrBackendBusy is the sentinel wrapped by backends whose admission queue
// is full: the batch was rejected up front, nothing was enqueued, and the
// caller should retry later (the galsimd service maps it to HTTP 429 with a
// Retry-After header). The local Engine never returns it; the cluster
// Coordinator does when Config.MaxQueuedJobs is set.
var ErrBackendBusy = errors.New("backend queue is full")

// Priority classifies a batch for backends with priority-aware queues: an
// interactive request (a human waiting on POST /run) is leased ahead of
// bulk work (sweep grids). Backends without lanes — the local Engine —
// ignore it.
type Priority int

const (
	// PriorityBulk is the default: throughput work, leased after any
	// pending interactive jobs.
	PriorityBulk Priority = iota
	// PriorityInteractive jumps the bulk queue.
	PriorityInteractive
)

func (p Priority) String() string {
	if p == PriorityInteractive {
		return "interactive"
	}
	return "bulk"
}

type priorityKey struct{}

// WithPriority returns ctx carrying the batch priority for RunAll calls.
func WithPriority(ctx context.Context, p Priority) context.Context {
	return context.WithValue(ctx, priorityKey{}, p)
}

// PriorityOf returns the priority carried by ctx (PriorityBulk if none).
func PriorityOf(ctx context.Context) Priority {
	if p, ok := ctx.Value(priorityKey{}).(Priority); ok {
		return p
	}
	return PriorityBulk
}

// Backend executes a batch of RunSpecs and returns their stats in input
// order. It is the campaign engine's execution seam: the local Engine (a
// GOMAXPROCS worker pool with a content-addressed result cache) is the
// default, and internal/cluster provides a distributed implementation that
// shards the batch across a fleet of galsimd workers. Both must be
// deterministic — for a given spec batch the returned stats are
// byte-identical regardless of scheduling, worker count, or retries — which
// the differential tests in internal/cluster enforce.
//
// fn, when non-nil, receives a monotone Progress snapshot as units finish;
// an empty batch delivers the zero Progress. Implementations must be safe for concurrent
// use and must honour ctx cancellation by returning promptly with the
// context's error.
type Backend interface {
	RunAllProgress(ctx context.Context, specs []RunSpec, fn ProgressFunc) ([]pipeline.Stats, error)
}

// Progress is a point-in-time view of a batch execution. Completed counts
// units whose stats are final (including cache hits); Failed counts units
// whose execution errored (at most one for backends that stop at the first
// error). Completed+Failed never exceeds Total, and snapshots delivered to
// one callback are monotone in Completed+Failed.
type Progress struct {
	Total     int `json:"total"`
	Completed int `json:"completed"`
	Failed    int `json:"failed"`
	// CacheHits counts completed units served from a result cache rather
	// than simulated. Backends without cache visibility (e.g. a cluster
	// coordinator, whose workers cache locally) report zero.
	CacheHits int `json:"cache_hits"`
}

// ProgressFunc receives progress snapshots during a batch execution. It may
// be called concurrently from worker goroutines and must not block for
// long; it must not call back into the backend.
type ProgressFunc func(Progress)

// Engine is the local, in-process Backend.
var _ Backend = (*Engine)(nil)
