package cluster

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"galsim"
	"galsim/internal/campaign"
	"galsim/internal/service"
)

// TestAggregatedFleetStats covers the coordinator's /stats: galsimd's own
// endpoint is per-process, so the fleet view must aggregate worker-reported
// cache counters and expose queue depth and per-worker health — mounted
// exactly as cmd/galsim-fleet mounts it, shadowing the service's /stats.
func TestAggregatedFleetStats(t *testing.T) {
	f := startFleet(t, Config{}, 2, 1)
	// Front door: fleet endpoints over a service.Server, like galsim-fleet.
	svc := service.New(campaign.NewEngine(1))
	svc.Backend = f.coord
	mux := http.NewServeMux()
	f.coord.Register(mux)
	mux.Handle("/", svc)
	front := httptest.NewServer(mux)
	defer front.Close()

	sweep := goldenSweep()
	_, _, serialResults := serialReference(t, sweep)

	var sr service.SweepResponse
	if code := doJSON(t, "POST", front.URL+"/sweep", sweep, &sr); code != 200 {
		t.Fatalf("fleet sweep: HTTP %d", code)
	}
	if !bytes.Equal(mustJSON(t, sr.Results), mustJSON(t, serialResults)) {
		t.Error("fleet sweep through the service front differs from serial execution")
	}

	// 18 grid points collapse to 15 unique jobs (the base machine drops the
	// per-domain point, duplicating its full-speed unit per benchmark).
	const uniqueJobs = 15
	var fs FleetStats
	if code := doJSON(t, "GET", front.URL+"/stats", nil, &fs); code != 200 {
		t.Fatalf("fleet stats: HTTP %d", code)
	}
	if fs.Workers != 2 || fs.Alive != 2 {
		t.Errorf("workers = %d alive = %d, want 2/2", fs.Workers, fs.Alive)
	}
	if fs.JobsDone != uniqueJobs || fs.JobsPending != 0 || fs.JobsInFlight != 0 {
		t.Errorf("job counters = %+v, want %d done and an empty queue", fs, uniqueJobs)
	}
	if fs.Cache.Misses != uniqueJobs {
		t.Errorf("fleet-wide cache misses = %d, want %d (each unique job simulated once)", fs.Cache.Misses, uniqueJobs)
	}
	if len(fs.WorkerList) != 2 {
		t.Fatalf("worker list = %+v", fs.WorkerList)
	}
	var completed uint64
	for _, w := range fs.WorkerList {
		if !strings.HasPrefix(w.ID, "w") || !w.Alive {
			t.Errorf("worker status = %+v", w)
		}
		completed += w.Completed
	}
	if completed != uniqueJobs {
		t.Errorf("per-worker completions sum to %d, want %d", completed, uniqueJobs)
	}

	// The service endpoints still work beneath the fleet routes.
	var health map[string]string
	if code := doJSON(t, "GET", front.URL+"/healthz", nil, &health); code != 200 || health["status"] != "ok" {
		t.Errorf("healthz through fleet mux: %d %v", code, health)
	}
	var rr service.RunResponse
	if code := doJSON(t, "POST", front.URL+"/run",
		campaign.RunSpec{Benchmark: "li", Instructions: 3_000}, &rr); code != 200 {
		t.Fatalf("fleet /run: HTTP %d", code)
	}
	if rr.Summary.Committed != 3_000 {
		t.Errorf("fleet /run summary = %+v", rr.Summary)
	}
	// That single run executed on the fleet, not the front's local engine.
	if st := svc.Engine().Stats(); st.Misses != 0 {
		t.Errorf("front-door engine simulated %d units; the fleet should have", st.Misses)
	}
}

// TestRunManyOnFleet: the public RunManyOn API reaches the fleet and
// matches local execution exactly.
func TestRunManyOnFleet(t *testing.T) {
	f := startFleet(t, Config{}, 2, 1)
	opts := []galsim.Options{
		{Benchmark: "gcc", Instructions: 4_000},
		{Benchmark: "gcc", Machine: galsim.GALS, Instructions: 4_000, Slowdowns: map[string]float64{"fp": 2}},
	}
	fleet, err := galsim.RunManyOn(context.Background(), f.coord, opts, nil)
	if err != nil {
		t.Fatal(err)
	}
	local, err := galsim.RunManyOn(context.Background(), campaign.NewEngine(1), opts, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(mustJSON(t, fleet), mustJSON(t, local)) {
		t.Error("RunManyOn results diverged between fleet and local backends")
	}
}
