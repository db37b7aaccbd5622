package cluster

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"net/http/httptest"
	"testing"
	"time"

	"galsim/internal/campaign"
	"galsim/internal/pipeline"
	"galsim/internal/telemetry"
	"galsim/internal/wal"
)

// BenchmarkFleetSweep compares the golden sweep on the single-process
// engine against in-process HTTP worker fleets. Engines are rebuilt every
// iteration so the caches start cold — this measures simulation plus
// fabric overhead, not cache hits. On a single-core host the fleet adds
// only coordination overhead; the speedup needs real cores (one per
// worker), like the campaign parallel benchmarks.
func BenchmarkFleetSweep(b *testing.B) {
	sweep := goldenSweep()
	units, err := sweep.Units()
	if err != nil {
		b.Fatal(err)
	}
	instrs := int64(len(units)) * int64(sweep.Instructions)

	b.Run("single-process", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := campaign.NewEngine(0).RunAll(context.Background(), units); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(instrs*int64(b.N))/b.Elapsed().Seconds(), "sim-instrs/s")
	})
	for _, workers := range []int{1, 3} {
		b.Run(fmt.Sprintf("fleet-%dworker", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				f := startFleet(b, Config{}, workers, 2)
				b.StartTimer()
				if _, err := f.coord.RunAll(context.Background(), units); err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				f.stop()
				b.StartTimer()
			}
			b.ReportMetric(float64(instrs*int64(b.N))/b.Elapsed().Seconds(), "sim-instrs/s")
		})
	}
}

// BenchmarkCheckpoint pushes one gals/gcc checkpoint, captured at 40k
// committed instructions of a 60k run (an 823 KB envelope), through the
// fleet's checkpoint path, one layer per sub-benchmark:
//
//   - encode: the worker's side, campaign.NewSnapshot plus EncodeBytes —
//     the state marshaled once and wrapped in the envelope;
//   - accept: the raw-body POST /jobs/checkpoint over loopback HTTP, the
//     coordinator's envelope decode and spec check, and the journal append
//     with its fsync.
//
// Each reports ms/op besides B/op and allocs/op.
func BenchmarkCheckpoint(b *testing.B) {
	spec := campaign.RunSpec{Benchmark: "gcc", Machine: "gals", Instructions: 60_000}.Canonical()
	cfg, err := spec.PipelineConfig()
	if err != nil {
		b.Fatal(err)
	}
	src, name, err := spec.NewSource()
	if err != nil {
		b.Fatal(err)
	}
	core := pipeline.NewCoreWithSource(cfg, name, src)
	var (
		cs *pipeline.CoreState
		at uint64
	)
	if err := core.SnapshotAt([]uint64{40_000}, func(n uint64, st *pipeline.CoreState) { cs, at = st, n }); err != nil {
		b.Fatal(err)
	}
	core.Run(spec.Instructions)
	encode := func() []byte {
		sn, err := campaign.NewSnapshot(spec, at, cs)
		if err != nil {
			b.Fatal(err)
		}
		blob, err := sn.EncodeBytes()
		if err != nil {
			b.Fatal(err)
		}
		return blob
	}
	msPerOp := func(b *testing.B) {
		b.ReportMetric(float64(b.Elapsed())/1e6/float64(b.N), "ms/op")
	}

	b.Run("encode", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			encode()
		}
		msPerOp(b)
	})
	b.Run("accept", func(b *testing.B) {
		store, err := OpenJournal(b.TempDir(), wal.Options{})
		if err != nil {
			b.Fatal(err)
		}
		defer store.Close()
		c := NewCoordinator(Config{LeaseTTL: time.Hour, Store: store,
			Log: slog.New(slog.NewTextHandler(io.Discard, nil))})
		ts := httptest.NewServer(c.Handler())
		defer ts.Close()
		if _, err := c.submit([]campaign.RunSpec{spec}, "", telemetry.TraceContext{}, nil, campaign.PriorityBulk); err != nil {
			b.Fatal(err)
		}
		jobs, _ := c.tryLease("w1", 1, campaign.CacheStats{})
		if len(jobs) != 1 {
			b.Fatal("lease failed")
		}
		w := &Worker{Coordinator: ts.URL, ID: "w1", Client: ts.Client()}
		blob := encode()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if accepted, err := w.postCheckpoint(context.Background(), jobs[0].ID, at, blob); err != nil || !accepted {
				b.Fatalf("checkpoint post: accepted=%v, %v", accepted, err)
			}
		}
		msPerOp(b)
	})
}
