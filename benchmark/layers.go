package main

import (
	"bytes"
	"context"
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"runtime/metrics"
	"runtime/pprof"
	"sort"
	"time"

	"galsim/internal/campaign"
	"galsim/internal/pipeline"
	"galsim/internal/snapshot"
)

// unitPass is the sum over units run through the public construction path
// one call at a time: RunSpec.NewSource, pipeline.NewCoreWithSource and
// Core.Run, with the source wrapped to time its Next calls.
type unitPass struct {
	Units     int
	Committed uint64
	SourceNs  int64 // RunSpec.NewSource
	CoreNs    int64 // pipeline.NewCoreWithSource
	RunNs     int64 // Core.Run
	NextNs    int64 // InstrSource.Next / NextWrongPath, inside Core.Run
	NextCalls uint64
	AllocObjs uint64 // heap objects allocated during Core.Run
	UnitNs    []float64
	work      workCounts
	stats     []pipeline.Stats
}

// workCounts are the exact, host-independent counts of simulated work.
type workCounts struct {
	Committed, DomainEdges, FIFOOps, WrongPath, Fetched, CacheAccesses, Mispredicts uint64
}

func (w *workCounts) add(st pipeline.Stats) {
	w.Committed += st.Committed
	for _, c := range st.Cycles {
		w.DomainEdges += c
	}
	for _, l := range st.Links {
		w.FIFOOps += l.Puts + l.Gets
	}
	w.WrongPath += st.WrongPathFetched
	w.Fetched += st.Fetched
	w.CacheAccesses += st.L1I.Accesses + st.L1D.Accesses + st.L2.Accesses
	w.Mispredicts += st.Mispredicts
}

func (w workCounts) into(c map[string]uint64) {
	c["committed"] = w.Committed
	c["domain_edges"] = w.DomainEdges
	c["fifo_ops"] = w.FIFOOps
	c["wrong_path_fetched"] = w.WrongPath
	c["fetched"] = w.Fetched
	c["cache_accesses"] = w.CacheAccesses
	c["mispredicts"] = w.Mispredicts
}

// runUnits executes specs one at a time through the public construction
// path, recording a span per call.
func runUnits(tr *tracer, specs []campaign.RunSpec) (unitPass, error) {
	var p unitPass
	for _, spec := range specs {
		st, err := runUnit(tr, spec, &p)
		if err != nil {
			return p, err
		}
		p.stats = append(p.stats, st)
		p.work.add(st)
	}
	return p, nil
}

func runUnit(tr *tracer, spec campaign.RunSpec, p *unitPass) (st pipeline.Stats, err error) {
	spec = spec.Canonical()
	cfg, err := spec.PipelineConfig()
	if err != nil {
		return st, err
	}
	defer func() {
		if rec := recover(); rec != nil {
			err = fmt.Errorf("unit %s/%s: %v", spec.MachineName(), spec.WorkloadName(), rec)
		}
	}()
	t0 := time.Now()
	root := tr.root("unit")
	sp := root.child("campaign.RunSpec.NewSource")
	src, name, err := spec.NewSource()
	sp.end()
	t1 := time.Now()
	if err != nil {
		return st, err
	}
	ts := &timedSource{src: src}
	sp = root.child("pipeline.NewCoreWithSource")
	core := pipeline.NewCoreWithSource(cfg, name, ts)
	sp.end()
	t2 := time.Now()
	sp = root.child("pipeline.Core.Run")
	a0 := heapAllocs().objects
	st = core.Run(spec.Instructions)
	a1 := heapAllocs().objects
	sp.aggregate("workload.InstrSource.Next", ts.spent, ts.calls)
	sp.end()
	t3 := time.Now()
	root.end()
	p.Units++
	p.Committed += st.Committed
	p.SourceNs += t1.Sub(t0).Nanoseconds()
	p.CoreNs += t2.Sub(t1).Nanoseconds()
	p.RunNs += t3.Sub(t2).Nanoseconds()
	p.NextNs += ts.spent.Nanoseconds()
	p.NextCalls += ts.calls
	p.AllocObjs += a1 - a0
	p.UnitNs = append(p.UnitNs, float64(t3.Sub(t0).Nanoseconds()))
	return st, nil
}

// setPipelineLayers fills the pipeline, workload and structure-count
// metrics from a unit pass.
func (r *report) setPipelineLayers(p unitPass) {
	n := float64(p.Committed)
	r.set("pipeline.run_ns_per_instr", ratio(float64(p.RunNs), n))
	r.set("pipeline.setup_us", ratio(float64(p.CoreNs), float64(p.Units))/1e3)
	r.set("pipeline.allocs_per_kinstr", ratio(float64(p.AllocObjs), n)*1e3)
	r.set("pipeline.domain_edges_per_instr", ratio(float64(p.work.DomainEdges), n))
	r.set("pipeline.fifo_ops_per_instr", ratio(float64(p.work.FIFOOps), n))
	r.set("pipeline.wrong_path_frac", ratio(float64(p.work.WrongPath), float64(p.work.Fetched)))
	r.set("workload.next_ns", ratio(float64(p.NextNs), float64(p.NextCalls)))
	r.set("workload.setup_us", ratio(float64(p.SourceNs), float64(p.Units))/1e3)
	r.set("cache.accesses_per_instr", ratio(float64(p.work.CacheAccesses), n))
	r.set("bpred.mispredicts_per_kinstr", ratio(float64(p.work.Mispredicts), n)*1e3)
	for _, ns := range p.UnitNs {
		r.sample("unit_pass_ms", ns/1e6)
	}
}

// setProfileLayers fills the self-time shares and the GC share.
func (r *report) setProfileLayers(p *cpuProfile) {
	r.Profile = p
	for _, pkg := range selfSharePackages {
		r.set(pkg+".self_share", p.share(pkg))
	}
	r.set("runtime.gc_share", ratio(float64(p.GC), float64(p.Total)))
}

// sameStats checks that units re-run through the traced construction path
// reproduce the statistics the workload itself produced.
func sameStats(got, want []pipeline.Stats) error {
	if len(got) != len(want) {
		return fmt.Errorf("traced unit pass: %d results, want %d", len(got), len(want))
	}
	for i := range got {
		if !reflect.DeepEqual(got[i], want[i]) {
			return fmt.Errorf("traced unit pass: %s/%v differs from the workload's own result",
				got[i].Benchmark, got[i].Kind)
		}
	}
	return nil
}

// lookups times Engine.Run on specs the engine has already completed: the
// cost of a campaign cache hit. It fails if any lookup simulated.
func lookups(r *report, e *campaign.Engine, specs []campaign.RunSpec) ([]pipeline.Stats, error) {
	before := e.Stats().Misses
	out := make([]pipeline.Stats, 0, len(specs))
	var us []float64
	for _, s := range specs {
		root := r.tr.root("campaign.lookup")
		t0 := time.Now()
		st, err := e.Run(context.Background(), s)
		us = append(us, float64(time.Since(t0).Nanoseconds())/1e3)
		root.end()
		if err != nil {
			return nil, err
		}
		out = append(out, st)
	}
	if after := e.Stats().Misses; after != before {
		return nil, fmt.Errorf("campaign: %d of %d lookups of completed units simulated again", after-before, len(specs))
	}
	for _, u := range us {
		r.sample("campaign_lookup_us", u)
	}
	r.set("campaign.lookup_us", median(us))
	return out, nil
}

// snapshotProbe captures a gals/gcc checkpoint at the fleet's cadence and
// times the snapshot codec on it. The probe is the same in every workload:
// it measures the codec, which only fleet-mix exercises under load.
func snapshotProbe(r *report, cadence uint64) error {
	spec := campaign.RunSpec{Benchmark: "gcc", Machine: "gals", Instructions: 2 * cadence,
		WorkloadSeed: workloadSeed(defaultSeed)}
	var snaps []*snapshot.Snapshot
	if _, err := campaign.ExecuteOpts(spec, campaign.ExecOpts{CheckpointEvery: cadence,
		OnSnapshot: func(s *snapshot.Snapshot) { snaps = append(snaps, s) }}); err != nil {
		return err
	}
	if len(snaps) == 0 {
		return fmt.Errorf("snapshot: no checkpoint captured")
	}
	var enc, dec []float64
	var data []byte
	for range 7 {
		root := r.tr.root("snapshot.EncodeBytes")
		t0 := time.Now()
		b, err := snaps[0].EncodeBytes()
		enc = append(enc, float64(time.Since(t0).Nanoseconds())/1e6)
		root.end()
		if err != nil {
			return err
		}
		if data != nil && !bytes.Equal(b, data) {
			return fmt.Errorf("snapshot: encoding is not deterministic")
		}
		data = b
	}
	for range 7 {
		root := r.tr.root("snapshot.DecodeBytes")
		t0 := time.Now()
		s, err := snapshot.DecodeBytes(data)
		dec = append(dec, float64(time.Since(t0).Nanoseconds())/1e6)
		root.end()
		if err != nil {
			return err
		}
		if b, err := s.EncodeBytes(); err != nil || !bytes.Equal(b, data) {
			return fmt.Errorf("snapshot: decode does not round-trip")
		}
	}
	for i := range enc {
		r.sample("snapshot_encode_ms", enc[i])
		r.sample("snapshot_decode_ms", dec[i])
	}
	r.set("snapshot.bytes", float64(len(data)))
	r.set("snapshot.encode_ms", median(enc))
	r.set("snapshot.decode_ms", median(dec))
	return nil
}

type allocs struct{ bytes, objects uint64 }

func heapAllocs() allocs {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/gc/heap/allocs:objects"}}
	metrics.Read(s)
	return allocs{bytes: s[0].Value.Uint64(), objects: s[1].Value.Uint64()}
}

// profiled runs fn under the CPU profiler and returns its reduced profile.
func profiled(fn func()) (*cpuProfile, error) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		return nil, err
	}
	fn()
	pprof.StopCPUProfile()
	return parseCPUProfile(buf.Bytes())
}

//go:embed counters.json
var committedCounters []byte

// compareCounters checks a workload's work counters against the committed
// file. They are exact: a difference means the simulated work changed.
func compareCounters(workload string, got map[string]uint64) error {
	var all map[string]map[string]uint64
	if err := json.Unmarshal(committedCounters, &all); err != nil {
		return fmt.Errorf("counters.json: %w", err)
	}
	want := all[workload]
	var diffs []string
	for k, v := range got {
		if w, ok := want[k]; !ok || w != v {
			diffs = append(diffs, fmt.Sprintf("%s=%d (committed %d)", k, v, w))
		}
	}
	for k, w := range want {
		if _, ok := got[k]; !ok {
			diffs = append(diffs, fmt.Sprintf("%s missing (committed %d)", k, w))
		}
	}
	if len(diffs) > 0 {
		sort.Strings(diffs)
		return fmt.Errorf("work counters differ from counters.json: %v", diffs)
	}
	return nil
}

// storeCounters records a workload's counters in the committed file.
func storeCounters(path, workload string, got map[string]uint64) error {
	all := map[string]map[string]uint64{}
	if b, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(b, &all); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	}
	all[workload] = got
	b, err := json.MarshalIndent(all, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
