package cluster

import (
	"fmt"
	"net/http"
	"net/url"
	"strconv"
	"time"

	"galsim/internal/httpjson"
	"galsim/internal/snapshot"
)

// maxBodyBytes bounds fleet-endpoint request bodies. Completion batches
// carry full Stats structs, but even a generous batch stays far under this.
// A checkpoint body is the raw snapshot envelope, so for checkpoints this
// bounds the envelope itself (a gcc capture is about 0.8 MB).
const maxBodyBytes = 8 << 20

// maxLeaseWait caps how long one lease request may long-poll; workers
// simply poll again.
const maxLeaseWait = 30 * time.Second

// Register mounts the coordinator's fleet endpoints on mux:
//
//	POST /join             explicit worker registration
//	POST /jobs/lease       lease up to N jobs (long-polls while idle)
//	POST /jobs/complete    post finished jobs (streamed per job)
//	POST /jobs/checkpoint  post a leased job's mid-run snapshot (raw body)
//	GET  /stats            aggregated fleet stats (see FleetStats)
//	GET  /metrics          Prometheus text exposition of the fleet metrics
//
// All bodies are JSON except the checkpoint post's: there the body is the
// snapshot envelope itself (internal/snapshot), sent as
// application/octet-stream and journaled byte for byte, with the poster in
// the query string:
//
//	POST /jobs/checkpoint?worker_id=W&job_id=J&committed=N
//
// committed must equal the envelope's own count. The 8 MiB maxBodyBytes
// limit applies to the envelope itself. A malformed query or envelope is
// answered 400 with code bad_checkpoint, a snapshot that cannot seed the job
// 400 with code checkpoint_mismatch, an oversized body 413 with code
// body_too_large, and a post from a worker that no longer holds the lease
// 200 with accepted:false.
//
// The paths are chosen so a service.Server can be mounted beneath at "/"
// (as cmd/galsim-fleet does): ServeMux prefers the more specific pattern,
// so the fleet-wide /stats shadows the service's per-process one while
// /run, /sweep, /benchmarks etc. fall through. (Point Config.Metrics at the
// service's registry so the shadowing /metrics page covers both.)
// When Config.Admission is set, the three POST endpoints require a tenant
// API key (workers send Worker.APIKey) — an open fleet port would let
// anyone execute jobs or inject results.
func (c *Coordinator) Register(mux *http.ServeMux) {
	mux.HandleFunc("POST /join", c.admitted(c.handleJoin))
	mux.HandleFunc("POST /jobs/lease", c.admitted(c.handleLease))
	mux.HandleFunc("POST /jobs/complete", c.admitted(c.handleComplete))
	mux.HandleFunc("POST /jobs/checkpoint", c.admitted(c.handleCheckpoint))
	mux.HandleFunc("GET /stats", c.handleStats)
	mux.Handle("GET /metrics", c.metrics.Handler())
}

// admitted wraps a fleet handler behind the admission gate (identity when
// no gate is configured).
func (c *Coordinator) admitted(h http.HandlerFunc) http.HandlerFunc {
	if c.cfg.Admission == nil {
		return h
	}
	return func(w http.ResponseWriter, r *http.Request) {
		if _, ok := c.cfg.Admission.Admit(w, r); !ok {
			return
		}
		h(w, r)
	}
}

// Handler returns a standalone handler serving only the fleet endpoints.
func (c *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	c.Register(mux)
	return mux
}

func (c *Coordinator) handleJoin(w http.ResponseWriter, r *http.Request) {
	var req JoinRequest
	if !decodeBody(w, r, &req) {
		return
	}
	if req.WorkerID == "" {
		writeError(w, http.StatusBadRequest, fmt.Errorf("worker_id is required"))
		return
	}
	c.join(req)
	writeJSON(w, http.StatusOK, JoinResponse{LeaseMs: c.cfg.LeaseTTL.Milliseconds()})
}

func (c *Coordinator) handleLease(w http.ResponseWriter, r *http.Request) {
	var req LeaseRequest
	if !decodeBody(w, r, &req) {
		return
	}
	if req.WorkerID == "" {
		writeError(w, http.StatusBadRequest, fmt.Errorf("worker_id is required"))
		return
	}
	slots := req.Slots
	if slots <= 0 {
		slots = 1
	}
	wait := time.Duration(req.WaitMs) * time.Millisecond
	if wait > maxLeaseWait {
		wait = maxLeaseWait
	}
	// Long-poll: wall-clock here, the injectable coordinator clock only for
	// lease deadlines (fake-clock tests drive tryLease directly).
	deadline := time.Now().Add(wait)
	for {
		jobs, wake := c.tryLease(req.WorkerID, slots, req.Cache)
		if len(jobs) > 0 || !time.Now().Before(deadline) {
			writeJSON(w, http.StatusOK, LeaseResponse{
				Jobs:    jobs,
				LeaseMs: c.cfg.LeaseTTL.Milliseconds(),
			})
			return
		}
		timer := time.NewTimer(time.Until(deadline))
		select {
		case <-wake:
		case <-timer.C:
		case <-r.Context().Done():
			timer.Stop()
			return // worker gone; nothing was leased
		}
		timer.Stop()
	}
}

func (c *Coordinator) handleComplete(w http.ResponseWriter, r *http.Request) {
	var req CompleteRequest
	if !decodeBody(w, r, &req) {
		return
	}
	if req.WorkerID == "" {
		writeError(w, http.StatusBadRequest, fmt.Errorf("worker_id is required"))
		return
	}
	for _, res := range req.Results {
		if res.Stats != nil && res.Error != "" {
			writeError(w, http.StatusBadRequest,
				fmt.Errorf("job result %d carries both stats and an error", res.JobID))
			return
		}
	}
	accepted := c.complete(req.WorkerID, req.Results, req.Cache)
	c.addSpans(req.Spans)
	writeJSON(w, http.StatusOK, CompleteResponse{Accepted: accepted})
}

func (c *Coordinator) handleCheckpoint(w http.ResponseWriter, r *http.Request) {
	workerID, jobID, committed, err := checkpointQuery(r.URL.RawQuery)
	if err != nil {
		httpjson.ErrorCode(w, http.StatusBadRequest, CodeBadCheckpoint, err)
		return
	}
	blob, ok := httpjson.ReadBody(w, r, maxBodyBytes)
	if !ok {
		return
	}
	// Validate the envelope before anything is stored or journaled: a
	// corrupt checkpoint fails typed here, never a partial restore later.
	snap, err := snapshot.DecodeBytes(blob)
	if err == nil && snap.Committed != committed {
		err = fmt.Errorf("query says committed=%d, the snapshot holds %d", committed, snap.Committed)
	}
	if err != nil {
		httpjson.ErrorCode(w, http.StatusBadRequest, CodeBadCheckpoint,
			fmt.Errorf("checkpoint for job %d rejected: %w", jobID, err))
		return
	}
	accepted, err := c.checkpoint(workerID, jobID, blob, snap)
	if err != nil {
		httpjson.ErrorCode(w, http.StatusBadRequest, CodeCheckpointMismatch, err)
		return
	}
	writeJSON(w, http.StatusOK, CheckpointResponse{Accepted: accepted})
}

// checkpointQuery parses the query string of POST /jobs/checkpoint as
// strictly as the JSON endpoints parse their bodies: exactly worker_id,
// job_id and committed, each once.
func checkpointQuery(raw string) (workerID string, jobID, committed uint64, err error) {
	q, err := url.ParseQuery(raw)
	if err != nil {
		return "", 0, 0, err
	}
	for k, v := range q {
		if (k != "worker_id" && k != "job_id" && k != "committed") || len(v) != 1 {
			return "", 0, 0, fmt.Errorf("unexpected or repeated query parameter %q", k)
		}
	}
	if workerID = q.Get("worker_id"); workerID == "" {
		return "", 0, 0, fmt.Errorf("worker_id is required")
	}
	if jobID, err = strconv.ParseUint(q.Get("job_id"), 10, 64); err != nil {
		return "", 0, 0, fmt.Errorf("job_id: %w", err)
	}
	if committed, err = strconv.ParseUint(q.Get("committed"), 10, 64); err != nil {
		return "", 0, 0, fmt.Errorf("committed: %w", err)
	}
	return workerID, jobID, committed, nil
}

func (c *Coordinator) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, c.Stats())
}

func writeJSON(w http.ResponseWriter, status int, v any) { httpjson.Write(w, status, v) }

func writeError(w http.ResponseWriter, status int, err error) { httpjson.Error(w, status, err) }

func decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	return httpjson.Decode(w, r, v, maxBodyBytes)
}
