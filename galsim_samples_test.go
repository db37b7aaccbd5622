package galsim_test

import (
	"context"
	"strings"
	"sync"
	"testing"

	"galsim"
)

// TestRunWithSampling: the public sampling surface — Options.SampleInterval
// produces a Result.Samples series aligned to interval boundaries, and the
// CSV export is rectangular with the documented header.
func TestRunWithSampling(t *testing.T) {
	r, err := galsim.Run(galsim.Options{
		Benchmark:      "gcc",
		Machine:        galsim.GALS,
		Instructions:   8_000,
		SampleInterval: 1_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Samples) == 0 {
		t.Fatal("sampled run returned no samples")
	}
	for i, s := range r.Samples {
		if s.Cycle%1_000 != 0 {
			t.Errorf("sample %d at cycle %d, not on an interval boundary", i, s.Cycle)
		}
		if i > 0 && s.Committed < r.Samples[i-1].Committed {
			t.Errorf("sample %d committed count regressed", i)
		}
	}

	var csv strings.Builder
	if err := galsim.WriteSamplesCSV(&csv, r.Samples); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(csv.String()), "\n")
	if len(lines) != len(r.Samples)+1 {
		t.Fatalf("CSV has %d lines for %d samples", len(lines), len(r.Samples))
	}
	header := strings.Split(lines[0], ",")
	if header[0] != "cycle" || header[len(header)-1] != "stall_loads_blocked" {
		t.Errorf("CSV header = %v", header)
	}
	for i, line := range lines[1:] {
		if got := len(strings.Split(line, ",")); got != len(header) {
			t.Errorf("CSV row %d has %d fields, header has %d", i, got, len(header))
		}
	}

	// Off by default: no samples, identical results to a sampled run.
	plain, err := galsim.Run(galsim.Options{
		Benchmark: "gcc", Machine: galsim.GALS, Instructions: 8_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if plain.Samples != nil {
		t.Error("unsampled run carries samples")
	}
	if plain.IPC != r.IPC || plain.EnergyJoules != r.EnergyJoules {
		t.Error("sampling changed simulation results")
	}

	// Validation floor surfaces through the public API.
	if err := (galsim.Options{Benchmark: "gcc", SampleInterval: 7}).Validate(); err == nil {
		t.Error("SampleInterval=7 validated")
	}
}

// TestRunManyOnProgress: the progress callback covers the whole batch and
// reports the duplicate option set as a cache hit.
func TestRunManyOnProgress(t *testing.T) {
	opts := []galsim.Options{
		{Benchmark: "gcc", Instructions: 2_000},
		{Benchmark: "swim", Instructions: 2_000},
		{Benchmark: "gcc", Instructions: 2_000}, // dup of [0]
	}
	var (
		mu   sync.Mutex
		last galsim.Progress
		n    int
	)
	results, err := galsim.RunManyOn(context.Background(), galsim.LocalBackend(), opts, func(p galsim.Progress) {
		mu.Lock()
		last = p
		n++
		mu.Unlock()
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(opts) {
		t.Fatalf("got %d results", len(results))
	}
	if n != len(opts) {
		t.Errorf("got %d progress snapshots, want %d", n, len(opts))
	}
	if last.Completed != len(opts) || last.Total != len(opts) || last.Failed != 0 {
		t.Errorf("terminal progress = %+v", last)
	}
	if last.CacheHits == 0 {
		t.Errorf("duplicate options produced no cache hit: %+v", last)
	}
}

// TestRunManyOnEmptyBatchProgress: an empty batch still delivers the
// terminal zero Progress, as every backend does for an empty RunAllProgress.
func TestRunManyOnEmptyBatchProgress(t *testing.T) {
	var snaps []galsim.Progress
	results, err := galsim.RunManyOn(context.Background(), galsim.LocalBackend(), nil,
		func(p galsim.Progress) { snaps = append(snaps, p) })
	if err != nil || len(results) != 0 {
		t.Fatalf("empty batch: results %v, err %v", results, err)
	}
	if len(snaps) != 1 || snaps[0] != (galsim.Progress{}) {
		t.Errorf("empty batch progress = %+v, want exactly one zero Progress", snaps)
	}
}
