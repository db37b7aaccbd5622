package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"galsim/internal/campaign"
	"galsim/internal/httpjson"
	"galsim/internal/pipeline"
	"galsim/internal/snapshot"
	"galsim/internal/telemetry"
	"galsim/internal/wal"
)

// ckptSpec is the long-job spec the checkpoint tests share.
func ckptSpec() campaign.RunSpec {
	return campaign.RunSpec{Benchmark: "gcc", Machine: "gals", Instructions: 20_000}.Canonical()
}

// captureCheckpoint runs the spec's prefix for real and returns the encoded
// checkpoint at the first decode-cycle boundary at or above the given
// commit count — exactly what a worker posts.
func captureCheckpoint(t testing.TB, spec campaign.RunSpec, at uint64) []byte {
	t.Helper()
	var blob []byte
	_, err := campaign.ExecuteOpts(spec, campaign.ExecOpts{
		CheckpointEvery: at,
		OnSnapshot: func(sn *snapshot.Snapshot) {
			if sn.Committed >= at && blob == nil {
				b, err := sn.EncodeBytes()
				if err != nil {
					t.Fatal(err)
				}
				blob = b
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if blob == nil {
		t.Fatalf("no checkpoint captured at %d", at)
	}
	return blob
}

// TestCheckpointStateMachine pins the coordinator's checkpoint protocol with
// a fake clock: only the lease holder may checkpoint, an accepted checkpoint
// extends the lease, a re-lease after worker loss carries the checkpoint,
// and the resumed execution is byte-identical to a straight run.
func TestCheckpointStateMachine(t *testing.T) {
	clock := newFakeClock()
	c := NewCoordinator(Config{LeaseTTL: time.Minute, MaxAttempts: 5, Now: clock.Now})
	spec := ckptSpec()
	straight, err := campaign.Execute(spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	camp, err := c.submit([]campaign.RunSpec{spec}, "", telemetry.TraceContext{}, nil, campaign.PriorityBulk)
	if err != nil {
		t.Fatal(err)
	}
	jobs, _ := c.tryLease("w1", 1, campaign.CacheStats{})
	if len(jobs) != 1 {
		t.Fatal("initial lease failed")
	}
	if len(jobs[0].Checkpoint) != 0 {
		t.Error("fresh job carries a checkpoint")
	}
	blob := captureCheckpoint(t, spec, 8_000)
	post := func(worker string) bool {
		t.Helper()
		snap, err := snapshot.DecodeBytes(blob)
		if err != nil {
			t.Fatal(err)
		}
		accepted, err := c.checkpoint(worker, jobs[0].ID, blob, snap)
		if err != nil {
			t.Fatal(err)
		}
		return accepted
	}

	// A worker that does not hold the lease is not believed.
	if post("w2") {
		t.Error("checkpoint accepted from a non-holder")
	}
	// The holder checkpoints 59s in; the original lease would expire at 60s,
	// but an accepted checkpoint is proof of life and renews it.
	clock.Advance(59 * time.Second)
	if !post("w1") {
		t.Fatal("holder's checkpoint rejected")
	}
	clock.Advance(30 * time.Second) // 89s: past the original deadline, inside the renewed one
	if early, _ := c.tryLease("w2", 1, campaign.CacheStats{}); len(early) != 0 {
		t.Fatal("checkpointing job expired despite renewed lease")
	}
	// w1 goes silent; the renewed lease runs out and w2 inherits the job
	// with the checkpoint attached.
	clock.Advance(31 * time.Second)
	release, _ := c.tryLease("w2", 1, campaign.CacheStats{})
	if len(release) != 1 {
		t.Fatal("expired job not re-leased")
	}
	if !bytes.Equal(release[0].Checkpoint, blob) {
		t.Fatal("re-leased job does not carry the posted checkpoint")
	}
	// The zombie's late checkpoint is now rejected.
	if post("w1") {
		t.Error("zombie checkpoint accepted after re-lease")
	}
	// w2 resumes from the checkpoint; the result must be byte-identical to
	// the straight run.
	snap, err := snapshot.DecodeBytes(release[0].Checkpoint)
	if err != nil {
		t.Fatal(err)
	}
	resumed, err := campaign.ExecuteOpts(release[0].Spec, campaign.ExecOpts{Resume: snap})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(mustJSON(t, resumed), mustJSON(t, straight)) {
		t.Error("resumed execution differs from straight run")
	}
	if acc := c.complete("w2", []JobResult{{JobID: release[0].ID, Stats: &resumed}}, campaign.CacheStats{}); acc != 1 {
		t.Fatalf("completion rejected (accepted=%d)", acc)
	}
	select {
	case <-camp.done:
	default:
		t.Fatal("campaign not settled")
	}
	if !bytes.Equal(mustJSON(t, camp.results[0]), mustJSON(t, straight)) {
		t.Error("campaign result differs from straight run")
	}
}

// TestCheckpointSurvivesCoordinatorCrash drives the durable path end to end:
// a checkpoint journaled through the WAL store must come back from Recover
// after a coordinator restart, re-leased jobs must carry it, and the resumed
// campaign must produce the stats the original RunAll would have.
func TestCheckpointSurvivesCoordinatorCrash(t *testing.T) {
	dir := t.TempDir()
	spec := ckptSpec()
	straight, err := campaign.Execute(spec, nil)
	if err != nil {
		t.Fatal(err)
	}

	store1, err := OpenJournal(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	clock := newFakeClock()
	c1 := NewCoordinator(Config{LeaseTTL: time.Minute, Now: clock.Now, Store: store1})
	ts := httptest.NewServer(c1.Handler())
	defer ts.Close()
	if _, err := c1.submit([]campaign.RunSpec{spec}, "req-ckpt", telemetry.TraceContext{}, nil, campaign.PriorityBulk); err != nil {
		t.Fatal(err)
	}
	jobs, _ := c1.tryLease("w1", 1, campaign.CacheStats{})
	if len(jobs) != 1 {
		t.Fatal("lease failed")
	}
	blob := captureCheckpoint(t, spec, 8_000)

	// A corrupt checkpoint is rejected at the door with a typed reason.
	bad := append([]byte(nil), blob...)
	bad[len(bad)-1] ^= 0xFF
	w1 := &Worker{Coordinator: ts.URL, ID: "w1", Client: ts.Client()}
	if _, err := w1.postCheckpoint(context.Background(), jobs[0].ID, 8_000, bad); err == nil ||
		!strings.Contains(err.Error(), "HTTP 400") {
		t.Fatalf("corrupt checkpoint: got %v, want HTTP 400", err)
	}
	// The good one lands over the real endpoint and reaches the journal.
	if accepted, err := w1.postCheckpoint(context.Background(), jobs[0].ID, 8_000, blob); err != nil || !accepted {
		t.Fatalf("checkpoint post: accepted=%v, %v", accepted, err)
	}

	// Crash: the coordinator process dies (we just abandon c1) and the store
	// is reopened from disk, exactly as a restarted galsim-fleet would.
	if err := store1.Close(); err != nil {
		t.Fatal(err)
	}
	store2, err := OpenJournal(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer store2.Close()
	recs, err := store2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 {
		t.Fatalf("recovered %d campaigns, want 1", len(recs))
	}
	if got := len(recs[0].Checkpoints); got != 1 {
		t.Fatalf("recovered %d checkpoints, want 1", got)
	}
	if !bytes.Equal(recs[0].Checkpoints[spec.Key()], blob) {
		t.Fatal("recovered checkpoint differs from the posted one")
	}

	c2 := NewCoordinator(Config{LeaseTTL: time.Minute, Now: clock.Now, Store: store2})
	resumedCamps, err := c2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if len(resumedCamps) != 1 {
		t.Fatalf("coordinator resumed %d campaigns, want 1", len(resumedCamps))
	}
	release, _ := c2.tryLease("w2", 1, campaign.CacheStats{})
	if len(release) != 1 || !bytes.Equal(release[0].Checkpoint, blob) {
		t.Fatal("re-created job does not carry the journaled checkpoint")
	}
	snap, err := snapshot.DecodeBytes(release[0].Checkpoint)
	if err != nil {
		t.Fatal(err)
	}
	resumed, err := campaign.ExecuteOpts(release[0].Spec, campaign.ExecOpts{Resume: snap})
	if err != nil {
		t.Fatal(err)
	}
	c2.complete("w2", []JobResult{{JobID: release[0].ID, Stats: &resumed}}, campaign.CacheStats{})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	stats, err := resumedCamps[0].Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(mustJSON(t, stats), mustJSON(t, []any{straight})) {
		t.Error("resumed campaign stats differ from the straight run")
	}
}

// TestCheckpointResumeAfterWorkerLoss is the live chaos case: a real worker
// checkpointing on cadence is killed mid-job, and its successor must log
// "resuming from checkpoint" and still deliver stats byte-identical to a
// serial run.
func TestCheckpointResumeAfterWorkerLoss(t *testing.T) {
	spec := campaign.RunSpec{Benchmark: "gcc", Machine: "gals", Instructions: 400_000}.Canonical()
	coord := NewCoordinator(Config{LeaseTTL: 500 * time.Millisecond, MaxAttempts: 25})
	var ckpts atomic.Int64
	inner := coord.Handler()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/jobs/checkpoint" {
			ckpts.Add(1)
		}
		inner.ServeHTTP(w, r)
	}))
	defer ts.Close()

	newWorker := func(id string, logs *syncBuffer) (context.CancelFunc, *sync.WaitGroup) {
		w := &Worker{
			Coordinator:     ts.URL,
			ID:              id,
			Engine:          campaign.NewEngine(1),
			Slots:           1,
			PollInterval:    10 * time.Millisecond,
			CheckpointEvery: 10_000,
			Log:             slog.New(slog.NewTextHandler(logs, nil)),
		}
		ctx, cancel := context.WithCancel(context.Background())
		var wg sync.WaitGroup
		wg.Add(1)
		go func() { defer wg.Done(); w.Run(ctx) }() //nolint:errcheck
		return cancel, &wg
	}

	done := make(chan error, 1)
	resCh := make(chan []campaign.UnitResult, 1)
	go func() {
		res, err := campaign.RunSweep(context.Background(), coord,
			campaign.Sweep{Benchmarks: []string{"gcc"}, Machines: []string{"gals"}, Instructions: spec.Instructions}, nil)
		resCh <- res
		done <- err
	}()

	var logs1 syncBuffer
	cancel1, wg1 := newWorker("ck-w1", &logs1)
	// Kill the first worker once it has durably checkpointed some progress.
	waitFor(t, func() bool { return ckpts.Load() >= 2 }, "first checkpoints")
	cancel1()
	wg1.Wait()

	var logs2 syncBuffer
	cancel2, wg2 := newWorker("ck-w2", &logs2)
	defer func() { cancel2(); wg2.Wait() }()

	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(120 * time.Second):
		t.Fatal("campaign did not finish after worker loss")
	}
	res := <-resCh
	st, err := campaign.Execute(spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := campaign.UnitResult{Key: spec.Key(), Spec: spec, Summary: campaign.Summarize(spec, st)}
	if !bytes.Equal(mustJSON(t, res), mustJSON(t, []campaign.UnitResult{want})) {
		t.Error("results after checkpointed worker loss differ from serial execution")
	}
	if !strings.Contains(logs2.String(), "resuming from checkpoint") {
		t.Error("successor worker did not resume from the checkpoint (no resume log line)")
	}
}

// TestJournalCheckpointLifecycle pins the store semantics in isolation:
// latest checkpoint wins, completion retires it, compaction keeps it for
// unfinished units, and unknown-type records from newer versions skip.
func TestJournalCheckpointLifecycle(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenJournal(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	specs := []campaign.RunSpec{
		{Benchmark: "gcc", Machine: "gals", Instructions: 10_000},
		{Benchmark: "swim", Machine: "gals", Instructions: 10_000},
	}
	for i := range specs {
		specs[i] = specs[i].Canonical()
	}
	if err := s.CampaignEnqueued("c1", "r1", campaign.PriorityBulk, specs); err != nil {
		t.Fatal(err)
	}
	k0, k1 := specs[0].Key(), specs[1].Key()
	if err := s.JobCheckpoint("c1", k0, []byte("v1")); err != nil {
		t.Fatal(err)
	}
	if err := s.JobCheckpoint("c1", k0, []byte("v2")); err != nil {
		t.Fatal(err)
	}
	if err := s.JobCheckpoint("c1", k1, []byte("other")); err != nil {
		t.Fatal(err)
	}
	// Completion retires unit 1's checkpoint; a late zombie checkpoint for a
	// done unit is dropped.
	st, err := campaign.Execute(specs[1], nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.JobCompleted("c1", k1, &st); err != nil {
		t.Fatal(err)
	}
	if err := s.JobCheckpoint("c1", k1, []byte("zombie")); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := OpenJournal(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	recs, err := s2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 {
		t.Fatalf("recovered %d campaigns, want 1", len(recs))
	}
	rec := recs[0]
	if got := string(rec.Checkpoints[k0]); got != "v2" {
		t.Errorf("checkpoint for unit 0 = %q, want the latest (v2)", got)
	}
	if _, ok := rec.Checkpoints[k1]; ok {
		t.Error("completed unit still has a checkpoint after replay")
	}
	if len(rec.Completed) != 1 {
		t.Errorf("recovered %d completions, want 1", len(rec.Completed))
	}
}

// memStore is an in-memory JobStore that counts checkpoint appends.
type memStore struct{ ckpts atomic.Int64 }

func (*memStore) CampaignEnqueued(string, string, campaign.Priority, []campaign.RunSpec) error {
	return nil
}
func (*memStore) JobCompleted(string, string, *pipeline.Stats) error { return nil }
func (*memStore) CampaignFinished(string, string) error              { return nil }
func (s *memStore) JobCheckpoint(string, string, []byte) error {
	s.ckpts.Add(1)
	return nil
}
func (*memStore) Recover() ([]RecoveredCampaign, error) { return nil, nil }
func (*memStore) WALStats() wal.Stats                   { return wal.Stats{} }
func (*memStore) Close() error                          { return nil }

// ckptFixture is a journaled coordinator holding one ckptSpec job leased
// to w1 under a clock that never moves, so the lease never expires.
type ckptFixture struct {
	c     *Coordinator
	store *memStore
	jobID uint64
}

func newCkptFixture(t testing.TB) *ckptFixture {
	t.Helper()
	fx := &ckptFixture{store: &memStore{}}
	fx.c = NewCoordinator(Config{LeaseTTL: time.Minute, Now: newFakeClock().Now, Store: fx.store})
	if _, err := fx.c.submit([]campaign.RunSpec{ckptSpec()}, "", telemetry.TraceContext{}, nil, campaign.PriorityBulk); err != nil {
		t.Fatal(err)
	}
	jobs, _ := fx.c.tryLease("w1", 1, campaign.CacheStats{})
	if len(jobs) != 1 {
		t.Fatal("lease failed")
	}
	fx.jobID = jobs[0].ID
	return fx
}

// query is the query string a worker posts a checkpoint for the job under.
func (fx *ckptFixture) query(worker string, committed uint64) string {
	return url.Values{
		"worker_id": {worker},
		"job_id":    {strconv.FormatUint(fx.jobID, 10)},
		"committed": {strconv.FormatUint(committed, 10)},
	}.Encode()
}

// committedOf returns the committed count inside an encoded checkpoint.
func committedOf(t testing.TB, blob []byte) uint64 {
	t.Helper()
	snap, err := snapshot.DecodeBytes(blob)
	if err != nil {
		t.Fatal(err)
	}
	return snap.Committed
}

// heldCheckpoint returns the checkpoint the coordinator stored on the job.
func (fx *ckptFixture) heldCheckpoint() []byte {
	fx.c.mu.Lock()
	defer fx.c.mu.Unlock()
	return fx.c.jobs[fx.jobID].checkpoint
}

// TestCheckpointPostRejections pins the checkpoint door: every malformed,
// corrupt, oversized or foreign post is answered with a typed 4xx and
// neither stored on the job nor journaled. A checkpoint of another spec, or
// one already at the job's budget, used to be accepted and attached to the
// re-lease, where every resumed attempt then failed until MaxAttempts.
func TestCheckpointPostRejections(t *testing.T) {
	fx := newCkptFixture(t)
	ts := httptest.NewServer(fx.c.Handler())
	defer ts.Close()
	good := captureCheckpoint(t, ckptSpec(), 8_000)
	corrupt := append([]byte(nil), good...)
	corrupt[len(corrupt)-1] ^= 0xFF
	foreign := captureCheckpoint(t, campaign.RunSpec{Benchmark: "perl", Machine: "gals", Instructions: 20_000}.Canonical(), 8_000)
	longer := ckptSpec()
	longer.Instructions = 30_000 // same snapshot key, so only the budget check can catch it
	spent := captureCheckpoint(t, longer, 20_000)
	n := committedOf(t, good)

	cases := []struct {
		name   string
		query  string
		body   []byte
		status int
		code   string
	}{
		{"no query", "", good, 400, CodeBadCheckpoint},
		{"unknown parameter", fx.query("w1", n) + "&extra=1", good, 400, CodeBadCheckpoint},
		{"repeated parameter", fx.query("w1", n) + "&worker_id=w1", good, 400, CodeBadCheckpoint},
		{"non-numeric job_id", "worker_id=w1&job_id=x&committed=1", good, 400, CodeBadCheckpoint},
		{"corrupt envelope", fx.query("w1", n), corrupt, 400, CodeBadCheckpoint},
		{"committed disagrees with envelope", fx.query("w1", n-1), good, 400, CodeBadCheckpoint},
		{"another spec", fx.query("w1", committedOf(t, foreign)), foreign, 400, CodeCheckpointMismatch},
		{"at the budget", fx.query("w1", committedOf(t, spent)), spent, 400, CodeCheckpointMismatch},
		{"oversized body", fx.query("w1", n), make([]byte, maxBodyBytes+1), 413, httpjson.CodeBodyTooLarge},
		{"not the lease holder", fx.query("w2", n), good, 200, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, err := http.Post(ts.URL+"/jobs/checkpoint?"+tc.query, "application/octet-stream", bytes.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			var out struct {
				Accepted    bool
				Error, Code string
			}
			if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
				t.Fatal(err)
			}
			if resp.StatusCode != tc.status || out.Code != tc.code || out.Accepted {
				t.Errorf("HTTP %d code %q accepted=%v (%s), want HTTP %d code %q, not accepted",
					resp.StatusCode, out.Code, out.Accepted, out.Error, tc.status, tc.code)
			}
		})
	}
	if n := fx.store.ckpts.Load(); n != 0 {
		t.Errorf("%d rejected checkpoints journaled", n)
	}
	if fx.heldCheckpoint() != nil {
		t.Error("a rejected checkpoint was stored on the job")
	}

	// The holder's own checkpoint still lands, byte for byte.
	w1 := &Worker{Coordinator: ts.URL, ID: "w1", Client: ts.Client()}
	if accepted, err := w1.postCheckpoint(context.Background(), fx.jobID, n, good); err != nil || !accepted {
		t.Fatalf("holder's checkpoint: accepted=%v, %v", accepted, err)
	}
	if n := fx.store.ckpts.Load(); n != 1 || !bytes.Equal(fx.heldCheckpoint(), good) {
		t.Errorf("accepted checkpoint: %d journaled, stored bytes equal=%v", n, bytes.Equal(fx.heldCheckpoint(), good))
	}
}

// TestWorkerRunsColdOnMismatchedCheckpoint is the worker half of the same
// fix: a job arriving with a checkpoint that cannot seed its spec runs cold,
// with a warning, and still returns the straight run's stats.
func TestWorkerRunsColdOnMismatchedCheckpoint(t *testing.T) {
	spec := ckptSpec()
	straight, err := campaign.Execute(spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	longer := spec
	longer.Instructions = 30_000
	for name, blob := range map[string][]byte{
		"another spec":  captureCheckpoint(t, campaign.RunSpec{Benchmark: "perl", Machine: "gals", Instructions: 20_000}.Canonical(), 8_000),
		"at the budget": captureCheckpoint(t, longer, 20_000),
	} {
		t.Run(name, func(t *testing.T) {
			var logs syncBuffer
			w := &Worker{ID: "w1", Engine: campaign.NewEngine(1), CheckpointEvery: spec.Instructions,
				Log: slog.New(slog.NewTextHandler(&logs, nil))}
			st, err := w.runCheckpointed(context.Background(), Job{ID: 1, Spec: spec, Checkpoint: blob})
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(mustJSON(t, st), mustJSON(t, straight)) {
				t.Error("cold fallback differs from the straight run")
			}
			if !strings.Contains(logs.String(), "running cold") {
				t.Error("no cold-run warning logged")
			}
		})
	}
}
