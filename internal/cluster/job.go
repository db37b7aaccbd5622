// Package cluster turns the single-process campaign engine into a
// distributed fabric: a Coordinator shards a batch of RunSpecs into jobs
// and hands them to a fleet of galsimd workers over HTTP. Workers pull —
// they lease jobs from the coordinator, execute them on their local
// campaign engine (so each worker's content-addressed result cache serves
// repeated specs fleet-wide), and post completions back as each job
// finishes. Leases carry a TTL: a worker that dies or stalls mid-job has
// its jobs re-queued and picked up by the surviving fleet, and a job whose
// worker *reports* a failure is retried on other workers up to a bounded
// attempt count.
//
// The Coordinator implements campaign.Backend, so galsim.RunManyOn,
// campaign.RunSweep and the galsimd /sweep handler run on a fleet
// unchanged. Results are merged by unit index, never arrival order; the
// differential tests in this package assert the merged output is
// byte-identical to serial campaign.Execute output under concurrency,
// worker loss and lease retries.
package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"

	"galsim/internal/campaign"
	"galsim/internal/pipeline"
	"galsim/internal/timeline"
)

// Job is one schedulable simulation unit on the wire: a campaign RunSpec
// plus the coordinator-assigned identity the worker echoes back on
// completion. The spec is always sent in canonical form, so profile
// contents and pinned trace digests — a run's full cache identity — travel
// with the job and cache hits work fleet-wide.
type Job struct {
	ID   uint64           `json:"id"`
	Spec campaign.RunSpec `json:"spec"`
	// RequestID is the campaign-level correlation ID (see
	// telemetry.RequestID): every job of one RunAll batch carries the same
	// ID, and workers attach it to their job logs so a sweep's lifecycle is
	// greppable across the fleet.
	RequestID string `json:"request_id,omitempty"`
	// TraceParent is the W3C trace context of the campaign (trace ID plus
	// the job's lease span as parent). A worker holding it records spans
	// for its execution and ships them back in CompleteRequest.Spans, so
	// the whole sweep shares one trace.
	TraceParent string `json:"traceparent,omitempty"`
	// Checkpoint, when present, is an encoded mid-run state snapshot (see
	// internal/snapshot) posted by a previous holder of this job: the worker
	// resumes execution from it instead of re-simulating the prefix. A
	// checkpoint that fails its typed validation is discarded for a cold
	// run — never a partial restore.
	Checkpoint []byte `json:"checkpoint,omitempty"`
}

// JobResult is one completed (or failed) job on the wire. Exactly one of
// Stats and Error is set: stats for a finished simulation, an error string
// for a run the worker could not execute (unreadable trace file, local
// validation failure, simulator panic converted by campaign.Execute).
type JobResult struct {
	JobID uint64          `json:"job_id"`
	Stats *pipeline.Stats `json:"stats,omitempty"`
	Error string          `json:"error,omitempty"`
}

// EncodeJob serializes a job for the lease response.
func EncodeJob(j Job) []byte {
	return mustMarshal(j)
}

// DecodeJob parses a job, rejecting unknown fields so schema drift between
// coordinator and worker versions fails loudly instead of silently
// dropping settings (a dropped slowdown would change simulation results).
func DecodeJob(data []byte) (Job, error) {
	var j Job
	if err := decodeStrict(data, &j); err != nil {
		return Job{}, fmt.Errorf("cluster: decoding job: %w", err)
	}
	return j, nil
}

// EncodeJobResult serializes a completion for the complete request.
func EncodeJobResult(r JobResult) []byte {
	return mustMarshal(r)
}

// DecodeJobResult parses a completion with the same strictness as
// DecodeJob.
func DecodeJobResult(data []byte) (JobResult, error) {
	var r JobResult
	if err := decodeStrict(data, &r); err != nil {
		return JobResult{}, fmt.Errorf("cluster: decoding job result: %w", err)
	}
	if r.Stats != nil && r.Error != "" {
		return JobResult{}, fmt.Errorf("cluster: job result %d carries both stats and an error", r.JobID)
	}
	return r, nil
}

func mustMarshal(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		// Job and JobResult contain only marshalable fields; JSON-decoded
		// values can never hold NaN/Inf, the one way a float fails to encode.
		panic(fmt.Sprintf("cluster: marshaling wire message: %v", err))
	}
	return b
}

func decodeStrict(data []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	// Trailing garbage after the message is a framing bug, not a message.
	if dec.More() {
		return fmt.Errorf("trailing data after message")
	}
	return nil
}

// JoinRequest registers a worker with the coordinator (POST /join). Workers
// are also auto-registered on their first lease, but an explicit join lets
// a starting worker fail fast on a bad coordinator URL and advertise its
// serving address for the fleet /stats view.
type JoinRequest struct {
	WorkerID string `json:"worker_id"`
	// Addr is the worker's own HTTP address, if it serves one (galsimd
	// workers do); informational, shown in fleet stats.
	Addr string `json:"addr,omitempty"`
	// Slots is the worker's concurrent-job capacity.
	Slots int `json:"slots,omitempty"`
}

// JoinResponse acknowledges a registration.
type JoinResponse struct {
	// LeaseMs is the coordinator's lease TTL; a worker that cannot finish a
	// job within it should expect re-dispatch.
	LeaseMs int64 `json:"lease_ms"`
}

// LeaseRequest asks the coordinator for up to Slots jobs (POST
// /jobs/lease).
type LeaseRequest struct {
	WorkerID string `json:"worker_id"`
	// Slots caps how many jobs this lease may return (default 1).
	Slots int `json:"slots,omitempty"`
	// WaitMs long-polls: with no job pending, the coordinator holds the
	// request up to this long before answering empty.
	WaitMs int64 `json:"wait_ms,omitempty"`
	// Cache reports the worker's engine cache counters, aggregated into the
	// fleet-wide /stats view.
	Cache campaign.CacheStats `json:"cache"`
}

// LeaseResponse grants zero or more jobs.
type LeaseResponse struct {
	Jobs    []Job `json:"jobs"`
	LeaseMs int64 `json:"lease_ms"`
}

// CompleteRequest posts finished jobs back (POST /jobs/complete). Workers
// stream: each job is completed as it finishes rather than when the whole
// lease batch is done.
type CompleteRequest struct {
	WorkerID string              `json:"worker_id"`
	Results  []JobResult         `json:"results"`
	Cache    campaign.CacheStats `json:"cache"`
	// Spans carries the worker-side trace spans of the completed jobs
	// (execute, simulate/cache-hit, in-sim windows), recorded only when the
	// jobs carried a TraceParent. The coordinator folds them into its span
	// collector for GET /sweeps/{id}/trace.
	Spans []timeline.Span `json:"spans,omitempty"`
}

// CompleteResponse reports how many results filled a result slot. Stale
// duplicates (the job already completed elsewhere), stale failure reports,
// and accepted-but-failed results are not counted.
type CompleteResponse struct {
	Accepted int `json:"accepted"`
}

// CheckpointRequest posts one job's mid-run state snapshot (POST
// /jobs/checkpoint). The coordinator accepts it only from the job's current
// lease holder, stores it on the job (so a re-lease after this worker dies
// resumes from it), and journals it through the JobStore when one is
// configured — making long jobs durable across both worker and coordinator
// loss.
type CheckpointRequest struct {
	WorkerID string `json:"worker_id"`
	JobID    uint64 `json:"job_id"`
	// Committed is the snapshot's committed-instruction count, for logs and
	// fleet visibility; the authoritative value lives inside the snapshot.
	Committed uint64 `json:"committed"`
	// Snapshot is the envelope-encoded snapshot (internal/snapshot).
	Snapshot []byte `json:"snapshot"`
}

// CheckpointResponse acknowledges a checkpoint. Accepted is false when the
// posting worker no longer holds the job's lease — its run is now a zombie
// whose eventual completion may still win (results are deterministic), but
// its checkpoints no longer matter.
type CheckpointResponse struct {
	Accepted bool `json:"accepted"`
}
