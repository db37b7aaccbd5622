package campaign

import (
	"context"
	"sync"
	"testing"
)

// TestEngineRunAllProgress: every unit produces exactly one snapshot,
// snapshots are monotone, the terminal snapshot accounts for the whole
// batch, and duplicate specs surface as cache hits.
func TestEngineRunAllProgress(t *testing.T) {
	e := NewEngine(4)
	specs := []RunSpec{
		{Benchmark: "gcc", Machine: "base", Instructions: 2000},
		{Benchmark: "gcc", Machine: "gals", Instructions: 2000},
		{Benchmark: "li", Machine: "base", Instructions: 2000},
		{Benchmark: "gcc", Machine: "base", Instructions: 2000}, // dup of unit 0
	}

	var (
		mu    sync.Mutex
		snaps []Progress
	)
	stats, err := e.RunAllProgress(context.Background(), specs, func(p Progress) {
		mu.Lock()
		snaps = append(snaps, p)
		mu.Unlock()
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(stats) != len(specs) {
		t.Fatalf("got %d stats", len(stats))
	}
	if len(snaps) != len(specs) {
		t.Fatalf("got %d progress snapshots, want %d", len(snaps), len(specs))
	}
	last := -1
	for i, p := range snaps {
		if p.Total != len(specs) {
			t.Errorf("snapshot %d total = %d", i, p.Total)
		}
		if done := p.Completed + p.Failed; done <= last {
			t.Errorf("snapshot %d not monotone: %+v", i, p)
		} else {
			last = done
		}
	}
	final := snaps[len(snaps)-1]
	if final.Completed != len(specs) || final.Failed != 0 {
		t.Errorf("terminal snapshot %+v", final)
	}
	if final.CacheHits == 0 {
		t.Errorf("duplicate unit did not register a cache hit: %+v", final)
	}

	// A failing unit reports Failed exactly once and the batch errors.
	bad := []RunSpec{
		{Benchmark: "gcc", Instructions: 1000},
		{Benchmark: "no-such-benchmark", Instructions: 1000},
	}
	var failed int
	_, err = e.RunAllProgress(context.Background(), bad, func(p Progress) {
		mu.Lock()
		failed = p.Failed
		mu.Unlock()
	})
	if err == nil {
		t.Fatal("bad batch succeeded")
	}
	if failed != 1 {
		t.Errorf("terminal Failed = %d, want 1", failed)
	}
}
