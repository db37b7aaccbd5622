package campaign

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"galsim/internal/pipeline"
	"galsim/internal/snapshot"
	"galsim/internal/timeline"
)

// TestEngineRunOptsContract pins the engine's single-run contract: taps
// and snapshot sinks fire only when RunOpts actually simulates, a cache
// hit fires neither, and every path returns the cold run's Stats exactly.
func TestEngineRunOptsContract(t *testing.T) {
	const every = 2_000
	spec := RunSpec{Benchmark: "gcc", Machine: "gals", Instructions: 7_000}
	cold, err := NewEngine(1).Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	var mid *snapshot.Snapshot
	if _, err := ExecuteOpts(spec, ExecOpts{Warmup: every,
		OnSnapshot: func(s *snapshot.Snapshot) { mid = s }}); err != nil {
		t.Fatal(err)
	}

	shared := NewEngine(1)
	cases := []struct {
		name    string
		e       *Engine
		resume  *snapshot.Snapshot
		wantHit bool
		wantAt  []uint64 // CheckpointEvery targets above the starting count
	}{
		{"miss simulates and observes", shared, nil, false, []uint64{2_000, 4_000, 6_000}},
		{"identical call is a silent hit", shared, nil, true, nil},
		{"resume on a cold engine", NewEngine(1), mid, false, []uint64{4_000, 6_000}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rec := timeline.NewRecorder(timeline.Options{})
			var snaps []uint64
			st, hit, err := tc.e.RunOpts(context.Background(), spec, ExecOpts{
				Tap:             TimelineTap{Recorder: rec},
				CheckpointEvery: every,
				OnSnapshot:      func(s *snapshot.Snapshot) { snaps = append(snaps, s.Committed) },
				Resume:          tc.resume,
			})
			if err != nil {
				t.Fatal(err)
			}
			if hit != tc.wantHit {
				t.Errorf("hit = %v, want %v", hit, tc.wantHit)
			}
			if !reflect.DeepEqual(st, cold) {
				t.Error("Stats differ from a cold Run")
			}
			if len(snaps) != len(tc.wantAt) {
				t.Fatalf("OnSnapshot fired at %v committed, want captures at %v", snaps, tc.wantAt)
			}
			for i, n := range snaps {
				if want := tc.wantAt[i]; n < want || n >= want+every {
					t.Errorf("capture %d at %d committed, want the first boundary at or above %d", i, n, want)
				}
			}
			if got := rec.Len() > 0; got == hit {
				t.Errorf("timeline recorded %d events on hit=%v; the tap must fire exactly when the call simulates", rec.Len(), hit)
			}
		})
	}
}

// TestSnapshotSpecRoundTrip drives the file-based path: capture a warm-up
// snapshot via ExecOpts, then seed a RunSpec.Snapshot run from it and check
// the stats match a straight cold run — and that the snapshot joins the
// spec's cache key by content.
func TestSnapshotSpecRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "warm.gsnp")
	spec := RunSpec{Benchmark: "perl", Machine: "gals", Instructions: 15_000}

	straight, err := Execute(spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	capStats, err := ExecuteOpts(spec, ExecOpts{Warmup: 5_000, SnapshotOut: path})
	if err != nil {
		t.Fatal(err)
	}
	wantJSON, _ := json.Marshal(straight)
	if got, _ := json.Marshal(capStats); !bytes.Equal(got, wantJSON) {
		t.Errorf("capturing run perturbed stats")
	}

	seeded := spec
	seeded.Snapshot = &SnapshotRef{Path: path}
	if err := seeded.Validate(); err != nil {
		t.Fatalf("snapshot-seeded spec invalid: %v", err)
	}
	if seeded.Key() == spec.Key() {
		t.Error("snapshot-seeded spec shares the cold spec's cache key; the snapshot content must join it")
	}
	resumed, err := Execute(seeded, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := json.Marshal(resumed); !bytes.Equal(got, wantJSON) {
		t.Errorf("snapshot-seeded run differs from straight run")
	}

	// A snapshot captured under one configuration must not restore another.
	foreign := RunSpec{Benchmark: "gcc", Machine: "gals", Instructions: 15_000,
		Snapshot: &SnapshotRef{Path: path}}
	if err := foreign.Validate(); err == nil {
		t.Error("spec with a foreign-configuration snapshot validated")
	}

	// Corruption fails typed, never a partial restore.
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-1] ^= 0xFF
	bad := filepath.Join(dir, "bad.gsnp")
	if err := os.WriteFile(bad, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	seeded.Snapshot = &SnapshotRef{Path: bad}
	var corrupt *snapshot.CorruptError
	if err := seeded.Validate(); !errors.As(err, &corrupt) {
		t.Errorf("corrupted snapshot: got %v, want *snapshot.CorruptError", err)
	}
}

// TestTraceLengthError is the satellite regression: a same-configuration
// replay must not silently wrap a shorter trace, while an explicitly
// divergent replay keeps the wrap.
func TestTraceLengthError(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "short.trace")
	rec := RunSpec{Benchmark: "gcc", Machine: "gals", Instructions: 3_000}
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ExecuteOpts(rec, ExecOpts{TraceOut: f}); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	// Same configuration, over-length: typed error.
	over := RunSpec{Trace: &TraceRef{Path: path}, Machine: "gals", Instructions: 5_000}
	var tle *TraceLengthError
	if err := over.Validate(); !errors.As(err, &tle) {
		t.Fatalf("same-config over-length replay: got %v, want *TraceLengthError", err)
	} else if tle.Requested != 5_000 || tle.Recorded != 3_000 {
		t.Errorf("TraceLengthError = %+v, want Requested 5000, Recorded 3000", tle)
	}

	// Zero budget defaults to the recorded length: valid, no wrap.
	def := RunSpec{Trace: &TraceRef{Path: path}, Machine: "gals"}
	if err := def.Validate(); err != nil {
		t.Errorf("defaulted replay budget: %v", err)
	}
	if got := def.Canonical().Instructions; got != 3_000 {
		t.Errorf("canonical replay budget = %d, want the recorded 3000", got)
	}

	// Within the recorded length: fine.
	under := RunSpec{Trace: &TraceRef{Path: path}, Machine: "gals", Instructions: 2_000}
	if err := under.Validate(); err != nil {
		t.Errorf("under-length replay: %v", err)
	}

	// Explicitly divergent configuration (slowed domain): the wrap is the
	// documented what-if behaviour and must keep working end to end.
	divergent := RunSpec{Trace: &TraceRef{Path: path}, Machine: "gals", Instructions: 5_000,
		Slowdowns: map[string]float64{"fp": 2}}
	if err := divergent.Validate(); err != nil {
		t.Fatalf("divergent over-length replay rejected: %v", err)
	}
	if st, err := Execute(divergent, nil); err != nil {
		t.Errorf("divergent over-length replay failed: %v", err)
	} else if st.Committed != 5_000 {
		t.Errorf("divergent replay committed %d, want 5000", st.Committed)
	}
}

// recordTrace writes a cold run of spec as a trace file and returns its path.
func recordTrace(t *testing.T, spec RunSpec) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "rec.trace")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ExecuteOpts(spec, ExecOpts{TraceOut: f}); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestSnapshotBytesMatchReference is the byte-identity differential for the
// single-pass checkpoint encoders. For real captures from every kind of
// workload source it compares the state bytes NewSnapshot produces, and
// the envelope EncodeBytes returns, with a test-local reference encoder:
// plain json.Marshal of the source state on its own, then of the whole
// CoreState and Snapshot, which re-compacts each embedded RawMessage.
func TestSnapshotBytesMatchReference(t *testing.T) {
	const budget = 9_000
	trace := recordTrace(t, RunSpec{Benchmark: "gcc", Machine: "gals", Instructions: budget})
	cases := []struct {
		name string
		spec RunSpec
	}{
		{"base/gcc", RunSpec{Benchmark: "gcc", Machine: "base"}},
		{"gals/gcc", RunSpec{Benchmark: "gcc", Machine: "gals"}},
		{"base/swim", RunSpec{Benchmark: "swim", Machine: "base"}},
		{"gals/swim", RunSpec{Benchmark: "swim", Machine: "gals"}},
		{"gals/phased", RunSpec{Profile: customProfile("phased"), Machine: "gals"}},
		{"gals/trace", RunSpec{Trace: &TraceRef{Path: trace}, Machine: "gals"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tc.spec.Instructions = budget
			spec := tc.spec.Canonical()
			cfg, err := spec.PipelineConfig()
			if err != nil {
				t.Fatal(err)
			}
			src, name, err := spec.NewSource()
			if err != nil {
				t.Fatal(err)
			}
			core := pipeline.NewCoreWithSource(cfg, name, src)
			captures := 0
			if err := core.SnapshotAt([]uint64{3_000, 6_000}, func(commits uint64, cs *pipeline.CoreState) {
				captures++
				got, err := NewSnapshot(spec, commits, cs)
				if err != nil {
					t.Fatal(err)
				}
				source, err := json.Marshal(cs.Source)
				if err != nil {
					t.Fatal(err)
				}
				ref := *cs
				ref.Source = json.RawMessage(source)
				wantState, err := json.Marshal(&ref)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got.State, wantState) {
					t.Errorf("capture at %d: state bytes differ from the reference encoder", commits)
				}
				env, err := got.EncodeBytes()
				if err != nil {
					t.Fatal(err)
				}
				body, err := json.Marshal(got)
				if err != nil {
					t.Fatal(err)
				}
				hdr := make([]byte, 16, 16+len(body))
				copy(hdr, "GSNP")
				binary.LittleEndian.PutUint32(hdr[4:8], snapshot.Version)
				binary.LittleEndian.PutUint32(hdr[8:12], uint32(len(body)))
				binary.LittleEndian.PutUint32(hdr[12:16], crc32.Checksum(body, crc32.MakeTable(crc32.Castagnoli)))
				if !bytes.Equal(env, append(hdr, body...)) {
					t.Errorf("capture at %d: envelope differs from the reference encoder", commits)
				}
			}); err != nil {
				t.Fatal(err)
			}
			core.Run(spec.Instructions)
			if captures != 2 {
				t.Fatalf("%d captures, want 2", captures)
			}
		})
	}
}
