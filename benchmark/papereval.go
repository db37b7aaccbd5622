package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"strconv"
	"sync"
	"time"

	"galsim/internal/campaign"
	"galsim/internal/experiments"
	"galsim/internal/pipeline"
	"galsim/internal/workload"
)

// paperEval regenerates every artifact of the paper's evaluation for the
// measurement window, each repetition on a fresh engine. Long runs over the
// whole corpus put almost all host time in the simulator proper, and the
// figures reuse each other's runs through the engine cache. Two closed-loop
// clients regenerate at once, each on a one-worker engine: the experiment
// drivers run most figures one unit at a time, so a lone regeneration keeps
// one CPU busy and its time would hang on which CPU the serial part lands.
func paperEval(o options, r *report) error {
	cfg := func(seed int64, e *campaign.Engine) experiments.Config {
		return experiments.Config{Instructions: o.size.paperInstr, WorkloadSeed: workloadSeed(seed),
			PhaseSeed: 1, Benchmarks: o.size.paperBenches, Engine: e}
	}
	if err := engineSetup(o, r, nil); err != nil {
		return err
	}
	type rep struct {
		out          []byte
		wall         time.Duration
		hits, misses uint64
		engine       *campaign.Engine
	}
	// phase runs the clients until the deadline and returns their
	// repetitions.
	phase := func(deadline time.Time, tracing bool) ([]rep, error) {
		var (
			mu   sync.Mutex
			reps []rep
			errs []error
			wg   sync.WaitGroup
		)
		for range clients {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for n := 0; n < 1 || time.Now().Before(deadline); n++ {
					e := campaign.NewEngine(1)
					out, d, err := regenerate(r, tracing, cfg(o.seed, e))
					st := e.Stats()
					mu.Lock()
					if err != nil {
						errs = append(errs, err)
					} else {
						reps = append(reps, rep{out: out, wall: d, hits: st.Hits, misses: st.Misses, engine: e})
					}
					mu.Unlock()
					if err != nil {
						return
					}
				}
			}()
		}
		wg.Wait()
		return reps, errors.Join(errs...)
	}
	start := time.Now()
	untracedEnd := start.Add(o.window)
	if o.trace {
		untracedEnd = start.Add(o.window / 2)
	}
	cpu0 := cpuSeconds()
	plain, err := phase(untracedEnd, false)
	r.sample("cpu_per_wall", (cpuSeconds()-cpu0)/time.Since(start).Seconds())
	var (
		traced       []rep
		prof         *cpuProfile
		tracedAllocs uint64
	)
	if o.trace && err == nil {
		a0 := heapAllocs().bytes
		var perr error
		prof, perr = profiled(func() { traced, err = phase(start.Add(o.window), true) })
		if perr != nil {
			return perr
		}
		tracedAllocs = heapAllocs().bytes - a0
	}
	if err != nil {
		r.check(err)
		r.Failed++
	}
	all := append(plain[:len(plain):len(plain)], traced...)
	if len(plain) == 0 || len(all) < 2 {
		return nil
	}
	var plainWall, tracedWall []float64
	var tracedInstr float64
	for _, p := range all {
		r.Attempted += int(p.hits + p.misses)
		r.check(checkIdentical("rendered paper tables", all[0].out, p.out))
	}
	for _, p := range plain {
		d := p.wall.Seconds()
		plainWall = append(plainWall, d)
		r.sample("wall_s", d)
		r.sample("sim_instr_per_s", float64(p.misses*o.size.paperInstr)/d)
		r.sample("units_per_s", float64(p.hits+p.misses)/d)
	}
	for _, p := range traced {
		tracedWall = append(tracedWall, p.wall.Seconds())
		tracedInstr += float64(p.misses * o.size.paperInstr)
		r.sample("traced_wall_s", p.wall.Seconds())
	}
	last := all[len(all)-1]

	corpus := corpusSpecs(cfg(o.seed, last.engine))
	stats, err := lookups(r, last.engine, corpus)
	if err != nil {
		return err
	}
	for _, st := range stats {
		r.check(checkUnit(o.size.paperInstr, st))
	}
	r.Paper = paperReference(experiments.RunCorpus(cfg(o.seed, last.engine)))

	r.setMedian("wall_s")
	r.setMedian("sim_instr_per_s")
	r.setMedian("units_per_s")
	r.set("max_rss_mb", peakRSSMB(strconv.Itoa(os.Getpid())))
	r.set("error_rate", ratio(float64(r.Failed), float64(r.Attempted)))
	if !o.trace {
		return nil
	}

	r.setProfileLayers(prof)
	r.set("runtime.alloc_bytes_per_instr", ratio(float64(tracedAllocs), tracedInstr))
	r.set("campaign.hit_rate", ratio(float64(last.hits), float64(last.hits+last.misses)))
	r.set("trace.overhead_frac", ratio(median(tracedWall), median(plainWall))-1)
	p, err := runUnits(r.tr, corpus)
	if err != nil {
		return err
	}
	r.check(sameStats(p.stats, stats))
	r.setPipelineLayers(p)
	if err := snapshotProbe(r, o.size.cadence); err != nil {
		return err
	}
	if !o.size.full {
		return nil
	}
	// Work counters at the default seed, from a fresh regeneration unless
	// this run already used that seed.
	e, hits, misses := last.engine, last.hits, last.misses
	if o.seed != defaultSeed {
		e = campaign.NewEngine(1)
		if _, _, err := regenerate(r, false, cfg(defaultSeed, e)); err != nil {
			return err
		}
		st := e.Stats()
		hits, misses = st.Hits, st.Misses
	}
	r.Counters = map[string]uint64{}
	var w workCounts
	for _, s := range corpusSpecs(cfg(defaultSeed, e)) {
		u, err := e.Run(context.Background(), s)
		if err != nil {
			return err
		}
		w.add(u)
	}
	r.Counters["campaign_hits"] = hits
	r.Counters["campaign_misses"] = misses
	r.Counters["units"] = hits + misses
	w.into(r.Counters)
	r.check(compareCounters(r.Workload, r.Counters))
	return nil
}

// regenerate renders every artifact once on cfg's engine and returns the
// rendered bytes and the wall time.
func regenerate(r *report, tracing bool, cfg experiments.Config) (out []byte, d time.Duration, err error) {
	defer func() {
		if rec := recover(); rec != nil {
			err = fmt.Errorf("regeneration failed: %v", rec)
		}
	}()
	var root *active
	if tracing {
		root = r.tr.root("paper-eval.regenerate")
	}
	var buf bytes.Buffer
	t0 := time.Now()
	for _, id := range experiments.Artifacts() {
		sp := root.child("experiments.Regenerate")
		tables, err := experiments.Regenerate(cfg, id)
		sp.end()
		if err != nil {
			return nil, 0, err
		}
		for _, t := range tables {
			t.Render(&buf)
		}
	}
	d = time.Since(t0)
	root.end()
	return buf.Bytes(), d, nil
}

// corpusSpecs are the base and GALS units of every corpus benchmark, built
// as experiments.RunCorpus builds them.
func corpusSpecs(cfg experiments.Config) []campaign.RunSpec {
	benches := cfg.Benchmarks
	if len(benches) == 0 {
		benches = workload.Names()
	}
	var out []campaign.RunSpec
	for _, b := range benches {
		for _, k := range []pipeline.Kind{pipeline.Base, pipeline.GALS} {
			out = append(out, campaign.RunSpec{Benchmark: b, Machine: k.String(), Instructions: cfg.Instructions,
				WorkloadSeed: cfg.WorkloadSeed, PhaseSeed: cfg.PhaseSeed})
		}
	}
	return out
}

// engineSetup times the in-process system from nothing to its first
// result: prepare (when given), a fresh engine, and one small unit served.
func engineSetup(o options, r *report, prepare func() error) error {
	var xs []float64
	for range o.size.setupReps {
		t0 := time.Now()
		if prepare != nil {
			if err := prepare(); err != nil {
				return err
			}
		}
		e := campaign.NewEngine(workers())
		st, err := e.Run(context.Background(), campaign.RunSpec{Benchmark: "gcc", Machine: "gals",
			Instructions: 1000, WorkloadSeed: workloadSeed(o.seed)})
		xs = append(xs, time.Since(t0).Seconds())
		if err != nil {
			return err
		}
		r.check(checkUnit(1000, st))
	}
	for _, x := range xs {
		r.sample("setup_s", x)
	}
	r.set("setup_s", median(xs))
	return nil
}
