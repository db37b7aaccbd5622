package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"testing"
	"time"

	"galsim/internal/campaign"
	"galsim/internal/pipeline"
)

// goldenSweep is the differential-test grid: the PR 3 golden benchmarks
// (gcc, swim, perl) on both machines across three slowdown points. The
// base machine collapses the per-domain point to full speed, so the grid
// also exercises the coordinator's duplicate-spec fan-out.
func goldenSweep() campaign.Sweep {
	return campaign.Sweep{
		Benchmarks:   []string{"gcc", "swim", "perl"},
		Machines:     []string{"base", "gals"},
		SlowdownGrid: []map[string]float64{nil, {"all": 1.5}, {"fp": 3}},
		Instructions: 6_000,
	}
}

// serialReference executes every unit of the sweep one at a time through
// campaign.Execute — no engine, no cache, no concurrency — and aggregates
// exactly like RunSweep. This is the seed semantics every distributed
// configuration must reproduce byte-for-byte.
func serialReference(t *testing.T, s campaign.Sweep) ([]campaign.RunSpec, []pipeline.Stats, []campaign.UnitResult) {
	t.Helper()
	units, err := s.Units()
	if err != nil {
		t.Fatal(err)
	}
	stats := make([]pipeline.Stats, len(units))
	results := make([]campaign.UnitResult, len(units))
	for i, u := range units {
		st, err := campaign.Execute(u, nil)
		if err != nil {
			t.Fatalf("serial unit %d: %v", i, err)
		}
		stats[i] = st
		results[i] = campaign.UnitResult{Key: u.Key(), Spec: u.Canonical(), Summary: campaign.Summarize(u, st)}
	}
	return units, stats, results
}

// testFleet is a coordinator plus a set of in-process workers talking to it
// over a real HTTP server.
type testFleet struct {
	t       testing.TB
	coord   *Coordinator
	ts      *httptest.Server
	engines []*campaign.Engine
	cancels []context.CancelFunc
	wg      sync.WaitGroup
	stopped sync.Once
}

func startFleet(t testing.TB, cfg Config, workers, slots int) *testFleet {
	t.Helper()
	f := &testFleet{t: t, coord: NewCoordinator(cfg)}
	f.ts = httptest.NewServer(f.coord.Handler())
	for i := 0; i < workers; i++ {
		f.addWorker(slots)
	}
	t.Cleanup(f.stop)
	return f
}

func (f *testFleet) addWorker(slots int) int {
	engine := campaign.NewEngine(slots)
	w := &Worker{
		Coordinator:  f.ts.URL,
		ID:           fmt.Sprintf("w%d", len(f.cancels)+1),
		Engine:       engine,
		Slots:        slots,
		PollInterval: 10 * time.Millisecond,
	}
	ctx, cancel := context.WithCancel(context.Background())
	f.engines = append(f.engines, engine)
	f.cancels = append(f.cancels, cancel)
	f.wg.Add(1)
	go func() {
		defer f.wg.Done()
		w.Run(ctx) //nolint:errcheck // exits via ctx cancellation
	}()
	return len(f.cancels) - 1
}

// kill cancels one worker's context: from the coordinator's point of view
// the worker silently vanishes, exactly like a killed process — leased
// jobs are never completed and must be re-dispatched on lease expiry.
func (f *testFleet) kill(i int) { f.cancels[i]() }

func (f *testFleet) stop() {
	f.stopped.Do(func() {
		for _, cancel := range f.cancels {
			cancel()
		}
		done := make(chan struct{})
		go func() { f.wg.Wait(); close(done) }()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			f.t.Error("fleet workers did not stop within 10s")
		}
		f.ts.Close()
	})
}

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestFleetDifferentialDeterminism is the fabric's correctness contract:
// the golden sweep routed through an HTTP worker fleet must produce output
// byte-identical to serial campaign.Execute, for 1, 3 and 8 workers.
func TestFleetDifferentialDeterminism(t *testing.T) {
	sweep := goldenSweep()
	units, serialStats, serialResults := serialReference(t, sweep)
	serialJSON := mustJSON(t, serialResults)
	for _, workers := range []int{1, 3, 8} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			f := startFleet(t, Config{}, workers, 2)
			got, err := campaign.RunSweep(context.Background(), f.coord, sweep, nil)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(mustJSON(t, got), serialJSON) {
				t.Errorf("workers=%d: aggregated fleet results differ from serial execution", workers)
			}
			// The raw stats must match too — not just the summarized digests.
			stats, err := f.coord.RunAll(context.Background(), units)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(stats, serialStats) {
				t.Errorf("workers=%d: raw stats diverged from serial execution", workers)
			}
		})
	}
}

// TestFleetCacheHitsAcrossCampaigns: a repeated batch must be served from
// the single worker's engine cache, not re-simulated — the job carries the
// spec's full cache identity, so hits work fleet-wide.
func TestFleetCacheHitsAcrossCampaigns(t *testing.T) {
	f := startFleet(t, Config{}, 1, 2)
	units, err := goldenSweep().Units()
	if err != nil {
		t.Fatal(err)
	}
	first, err := f.coord.RunAll(context.Background(), units)
	if err != nil {
		t.Fatal(err)
	}
	misses := f.engines[0].Stats().Misses
	if misses == 0 {
		t.Fatal("first campaign reported no cache misses")
	}
	second, err := f.coord.RunAll(context.Background(), units)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first, second) {
		t.Error("repeated campaign returned different results")
	}
	if after := f.engines[0].Stats().Misses; after != misses {
		t.Errorf("repeated campaign re-simulated cached specs: misses %d -> %d", misses, after)
	}
}

// TestRunAllValidatesUpFront: a bad unit fails the whole batch before any
// job is enqueued, with the same error surface as the local engine.
func TestRunAllValidatesUpFront(t *testing.T) {
	f := startFleet(t, Config{}, 1, 1)
	_, err := f.coord.RunAll(context.Background(), []campaign.RunSpec{
		{Benchmark: "gcc", Instructions: 2_000},
		{Benchmark: "nope", Instructions: 2_000},
	})
	if err == nil {
		t.Fatal("invalid unit ran without error")
	}
	if st := f.coord.Stats(); st.JobsDone != 0 || st.JobsPending != 0 {
		t.Errorf("invalid batch left queue state: %+v", st)
	}
}

// TestRunAllCancellation: cancelling the campaign context abandons its
// jobs so the queue drains instead of dispatching work nobody collects.
func TestRunAllCancellation(t *testing.T) {
	// No workers: jobs would sit pending forever without cancellation.
	f := startFleet(t, Config{}, 0, 0)
	units, err := goldenSweep().Units()
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := f.coord.RunAll(ctx, units)
		done <- err
	}()
	waitFor(t, func() bool { return f.coord.Stats().JobsPending > 0 }, "jobs enqueued")
	cancel()
	select {
	case err := <-done:
		if err == nil {
			t.Error("cancelled RunAll returned no error")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("RunAll did not stop after cancellation")
	}
	if st := f.coord.Stats(); st.JobsPending != 0 || st.JobsInFlight != 0 {
		t.Errorf("cancelled campaign left jobs behind: %+v", st)
	}
}

// waitFor polls cond until true or the deadline lapses.
func waitFor(t *testing.T, cond func() bool, what string) {
	t.Helper()
	deadline := time.Now().Add(20 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// drainBody asserts an HTTP status and returns the body.
func doJSON(t *testing.T, method, url string, in, out any) int {
	t.Helper()
	var body bytes.Buffer
	if in != nil {
		if err := json.NewEncoder(&body).Encode(in); err != nil {
			t.Fatal(err)
		}
	}
	req, err := http.NewRequest(method, url, &body)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatal(err)
		}
	}
	return resp.StatusCode
}
