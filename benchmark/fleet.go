package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"galsim/internal/campaign"
	"galsim/internal/workload"
)

// slowdownFactors are the paper's selective-slowdown factors (Figs 11-13).
var slowdownFactors = []float64{1.1, 1.2, 1.5, 2, 3}

// faultBenchmarks are where a 5x fp or mem slowdown trips the known
// overlapping-squash fault, so the fault shows in the error rate.
var faultBenchmarks = []string{"gcc", "perl", "li"}

// fleet is a running galsim-fleet process.
type fleet struct {
	cmd    *exec.Cmd
	url    string
	exited chan error
}

// startFleet launches galsim-fleet with a WAL journal in dir, spawned
// workers and checkpointing, and returns once every worker has joined. The
// duration is the fleet's set-up time.
func startFleet(o options, dir string) (*fleet, time.Duration, error) {
	args := []string{"-addr", "127.0.0.1:0", "-spawn", strconv.Itoa(clients), "-journal", dir,
		"-checkpoint-every", strconv.FormatUint(o.size.cadence, 10),
		"-drain-timeout", "5s", "-grace", "5s", "-log-format", "json"}
	if o.trace {
		args = append(args, "-pprof")
	}
	cmd := exec.Command(o.fleetBin, args...)
	// The fleet must not outlive the benchmark, even one that is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, 0, err
	}
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("starting galsim-fleet: %w", err)
	}
	f := &fleet{cmd: cmd, exited: make(chan error, 1)}
	addr := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stderr)
		sc.Buffer(make([]byte, 64<<10), 1<<20)
		sent := false
		for sc.Scan() {
			var line struct{ Msg, Addr string }
			if !sent && json.Unmarshal(sc.Bytes(), &line) == nil && line.Msg == "coordinating" {
				addr <- line.Addr
				sent = true
			}
		}
		_, _ = io.Copy(io.Discard, stderr) // keep the pipe drained past an over-long line
		f.exited <- cmd.Wait()
	}()
	select {
	case a := <-addr:
		f.url = "http://" + a
	case err := <-f.exited:
		return nil, 0, fmt.Errorf("galsim-fleet exited during start-up: %v", err)
	case <-time.After(60 * time.Second):
		f.stop()
		return nil, 0, fmt.Errorf("galsim-fleet did not start listening")
	}
	deadline := time.Now().Add(60 * time.Second)
	for {
		var st struct {
			Alive int `json:"alive"`
		}
		if err := getJSON(f.url+"/stats", &st); err == nil && st.Alive >= clients {
			break
		}
		if time.Now().After(deadline) {
			f.stop()
			return nil, 0, fmt.Errorf("galsim-fleet workers did not join")
		}
		time.Sleep(time.Millisecond)
	}
	return f, time.Since(t0), nil
}

// stop terminates the fleet, waits for it to exit and returns its peak
// resident memory. The fleet is idle by then; a shutdown that lingers in
// the workers' drain wait is cut short, since nothing is measured after.
func (f *fleet) stop() float64 {
	if f.cmd.Process == nil {
		return 0
	}
	rss := peakRSSMB(strconv.Itoa(f.cmd.Process.Pid))
	_ = f.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-f.exited:
	case <-time.After(time.Second):
		_ = f.cmd.Process.Kill()
		<-f.exited
	}
	f.cmd.Process = nil
	return rss
}

// loadClient carries the closed-loop load over exactly `clients`
// connections; control requests (stats, metrics, profiles) use their own
// client so they never take a load connection.
var (
	loadClient = &http.Client{
		Timeout:   150 * time.Second,
		Transport: &http.Transport{MaxConnsPerHost: clients, MaxIdleConnsPerHost: clients},
	}
	controlClient = &http.Client{Timeout: 150 * time.Second}
)

func getJSON(url string, v any) error {
	b, err := get(url)
	if err != nil {
		return err
	}
	return json.Unmarshal(b, v)
}

func get(url string) ([]byte, error) {
	resp, err := controlClient.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("GET %s: HTTP %d", url, resp.StatusCode)
	}
	return b, err
}

// promSums reads a Prometheus text page and sums each metric over its
// label sets.
func promSums(url string) (map[string]float64, error) {
	b, err := get(url)
	if err != nil {
		return nil, err
	}
	out := map[string]float64{}
	for _, line := range strings.Split(string(b), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		name := line[:i]
		if j := strings.IndexByte(name, '{'); j >= 0 {
			name = name[:j]
		}
		out[name] += v
	}
	return out, nil
}

// totalAlloc reads the fleet's cumulative heap allocation from its runtime
// profile endpoint.
func totalAlloc(url string) (float64, error) {
	b, err := get(url + "/debug/pprof/allocs?debug=1")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "# TotalAlloc = "); ok {
			return strconv.ParseFloat(strings.TrimSpace(rest), 64)
		}
	}
	return 0, fmt.Errorf("no TotalAlloc in the allocs profile")
}

// fleetReq is one request of the mix.
type fleetReq struct {
	path   string
	body   []byte
	faulty bool // the 5x slowdown class
	run    campaign.RunSpec
	budget uint64
}

// fleetResp is a request's outcome.
type fleetResp struct {
	status int
	body   []byte
	lat    time.Duration
	err    error
}

// mix generates the request stream from a seed: per round, runsPerRound
// distinct /run units and two /sweep requests, interleaved.
type mix struct {
	o     options
	rng   *rand.Rand
	seed  int64
	count int64
	round int
}

func newMix(o options, seed int64) *mix {
	return &mix{o: o, rng: rand.New(rand.NewPCG(uint64(seed), 0x9e3779b97f4a7c15)), seed: seed}
}

// nextSeed gives every unit of a run its own workload seed, so every unit
// is a cache miss on the fleet.
func (m *mix) nextSeed() int64 {
	m.count++
	return m.seed*1_000_000 + m.count
}

func (m *mix) runReq(faulty bool) fleetReq {
	names := workload.Names()
	spec := campaign.RunSpec{Machine: "gals", Instructions: m.o.size.runInstr, WorkloadSeed: m.nextSeed()}
	if faulty {
		spec.Benchmark = faultBenchmarks[m.rng.IntN(len(faultBenchmarks))]
		spec.Slowdowns = map[string]float64{[]string{"fp", "mem"}[m.round%2]: 5}
	} else {
		spec.Benchmark = names[m.rng.IntN(len(names))]
		doms := campaign.DomainNames()
		spec.Slowdowns = map[string]float64{doms[m.rng.IntN(len(doms))]: slowdownFactors[m.rng.IntN(len(slowdownFactors))]}
	}
	body, _ := json.Marshal(spec) // a RunSpec always marshals
	return fleetReq{path: "/run", body: body, faulty: faulty, run: spec, budget: spec.Instructions}
}

func (m *mix) sweepReq() fleetReq {
	names := workload.Names()
	var benches []string
	for _, i := range m.rng.Perm(len(names))[:4] {
		benches = append(benches, names[i])
	}
	sw := campaign.Sweep{Benchmarks: benches, Machines: []string{"base", "gals"},
		Instructions: m.o.size.sweepInstr, WorkloadSeeds: []int64{m.nextSeed()}}
	body, _ := json.Marshal(sw) // a Sweep always marshals
	return fleetReq{path: "/sweep", body: body, budget: sw.Instructions}
}

// nextRound returns one round: two sweeps, then the runs, the last of which
// is the 5x class. The sweeps go first so the two connections start them
// together and the round does not end waiting on one long sweep.
func (m *mix) nextRound() []fleetReq {
	n := m.o.size.runsPerRound
	out := []fleetReq{m.sweepReq(), m.sweepReq()}
	for j := range n {
		out = append(out, m.runReq(j == n-1))
	}
	m.round++
	return out
}

// drive sends reqs over `clients` closed-loop connections: each connection
// sends its next request when the previous reply has arrived.
func drive(f *fleet, tr *tracer, reqs []fleetReq) []fleetResp {
	out := make([]fleetResp, len(reqs))
	next := make(chan int)
	var wg sync.WaitGroup
	for range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				out[i] = send(f, tr, reqs[i])
			}
		}()
	}
	for i := range reqs {
		next <- i
	}
	close(next)
	wg.Wait()
	return out
}

func send(f *fleet, tr *tracer, q fleetReq) fleetResp {
	root := tr.root("fleet.POST " + q.path)
	t0 := time.Now()
	resp, err := loadClient.Post(f.url+q.path, "application/json", bytes.NewReader(q.body))
	var r fleetResp
	if err == nil {
		r.status = resp.StatusCode
		r.body, err = io.ReadAll(resp.Body)
		resp.Body.Close()
	}
	r.lat, r.err = time.Since(t0), err
	root.end()
	return r
}

type runResult struct {
	Spec    campaign.RunSpec `json:"spec"`
	Summary json.RawMessage  `json:"summary"`
}

// outcome tallies answered requests and keeps a sample of each class for
// the in-process comparison.
type outcome struct {
	requests, failed, units int
	instr                   float64
	runMs, sweepMs          []float64 // failed requests are +Inf
	normal                  []runResult
	normalLat               []time.Duration
	sweep                   []runResult // the first completed sweep's units
	faulty                  *fleetReq   // the first 5x request
	faultyResp              fleetResp
}

func (oc *outcome) add(r *report, q fleetReq, s fleetResp) {
	oc.requests++
	if s.err != nil || s.status != http.StatusOK {
		oc.failed++
		if s.err != nil {
			r.check(fmt.Errorf("POST %s: %w", q.path, s.err))
		} else {
			r.check(checkErrorBody(s.status, s.body))
		}
		if q.path == "/run" {
			oc.runMs = append(oc.runMs, inf)
		} else {
			oc.sweepMs = append(oc.sweepMs, inf)
		}
	}
	if q.faulty && oc.faulty == nil {
		oc.faulty, oc.faultyResp = &q, s
	}
	if s.err != nil || s.status != http.StatusOK {
		return
	}
	ms := float64(s.lat.Nanoseconds()) / 1e6
	var units []runResult
	if q.path == "/run" {
		var u runResult
		if err := json.Unmarshal(s.body, &u); err != nil {
			r.check(fmt.Errorf("/run reply: %w", err))
			return
		}
		units = []runResult{u}
		oc.runMs = append(oc.runMs, ms)
		if !q.faulty {
			oc.normal = append(oc.normal, u)
			oc.normalLat = append(oc.normalLat, s.lat)
		}
	} else {
		var sw struct {
			Results []runResult `json:"results"`
		}
		if err := json.Unmarshal(s.body, &sw); err != nil {
			r.check(fmt.Errorf("/sweep reply: %w", err))
			return
		}
		units = sw.Results
		oc.sweepMs = append(oc.sweepMs, ms)
		if oc.sweep == nil {
			oc.sweep = sw.Results
		}
	}
	for _, u := range units {
		var sum campaign.Summary
		if err := json.Unmarshal(u.Summary, &sum); err != nil {
			r.check(fmt.Errorf("unit summary: %w", err))
			continue
		}
		r.check(checkCommitted(q.budget, sum))
		oc.units++
		oc.instr += float64(sum.Committed)
	}
}

// compareInProcess re-executes units the fleet completed with
// campaign.Execute and requires byte-identical summaries.
func compareInProcess(r *report, budget uint64, units []runResult) {
	for _, u := range units {
		st, err := campaign.Execute(u.Spec, nil)
		if err != nil {
			r.check(fmt.Errorf("in-process %s/%s: %w", u.Spec.MachineName(), u.Spec.WorkloadName(), err))
			continue
		}
		r.check(checkUnit(budget, st))
		r.check(checkSameSummary(u.Summary, u.Spec, st))
	}
}

// compareFaulty requires a 5x request to fail on the fleet exactly when it
// fails in process.
func compareFaulty(r *report, q *fleetReq, s fleetResp) {
	_, err := campaign.Execute(q.run, nil)
	if failedRemote := s.status != http.StatusOK; failedRemote != (err != nil) {
		r.check(fmt.Errorf("5x unit %s: fleet status %d but in-process error %v", q.run.WorkloadName(), s.status, err))
	}
}

// fleetMix drives a journaled galsim-fleet over loopback HTTP with the
// /run + /sweep mix for the measurement window.
func fleetMix(o options, r *report) error {
	if _, err := os.Stat(o.fleetBin); err != nil {
		return fmt.Errorf("galsim-fleet binary: %w", err)
	}
	if err := os.MkdirAll(o.workDir, 0o755); err != nil {
		return err
	}
	work, err := os.MkdirTemp(o.workDir, "fleet-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(work)

	// Set-up is measured over several fresh starts; the last fleet serves
	// the load, and in the traced run the first one counts the work of a
	// fixed request set.
	var f *fleet
	for i := range o.size.fleetStarts {
		fl, d, err := startFleet(o, filepath.Join(work, fmt.Sprintf("journal-%d", i)))
		if err != nil {
			return err
		}
		r.sample("setup_s", d.Seconds())
		if i == 0 && o.trace && o.size.full {
			if err := fleetCounters(o, r, fl); err != nil {
				fl.stop()
				return err
			}
		}
		if i < o.size.fleetStarts-1 {
			fl.stop()
		} else {
			f = fl
		}
	}
	defer f.stop()
	r.setMedian("setup_s")

	m := newMix(o, o.seed)
	before, err := promSums(f.url + "/metrics")
	if err != nil {
		return err
	}
	var cache0 struct{ Cache campaign.CacheStats }
	if err := getJSON(f.url+"/stats", &cache0); err != nil {
		return err
	}
	var (
		plain, traced       outcome
		plainWall, tracWall []float64
		prof                *cpuProfile
		profErr             error
		profDone            chan struct{}
		alloc0              float64
	)
	start := time.Now()
	for round := 0; round < 2 || time.Since(start) < o.window; round++ {
		tracing := o.trace && round > 0 && time.Since(start) >= o.window/2
		if tracing && profDone == nil {
			if alloc0, err = totalAlloc(f.url); err != nil {
				return err
			}
			secs := max(1, int(math.Ceil((o.window - time.Since(start)).Seconds())))
			profDone = make(chan struct{})
			go func() {
				defer close(profDone)
				var b []byte
				if b, profErr = get(fmt.Sprintf("%s/debug/pprof/profile?seconds=%d", f.url, secs)); profErr == nil {
					prof, profErr = parseCPUProfile(b)
				}
			}()
		}
		reqs := m.nextRound()
		var tr *tracer
		if tracing {
			tr = r.tr
		}
		t0 := time.Now()
		resps := drive(f, tr, reqs)
		d := time.Since(t0).Seconds()
		oc, walls := &plain, &plainWall
		if tracing {
			oc, walls = &traced, &tracWall
		}
		*walls = append(*walls, d)
		units, instr := oc.units, oc.instr
		for i := range reqs {
			oc.add(r, reqs[i], resps[i])
		}
		if tracing {
			r.sample("traced_wall_s", d)
		} else {
			r.sample("wall_s", d)
			r.sample("sim_instr_per_s", (oc.instr-instr)/d)
			r.sample("units_per_s", float64(oc.units-units)/d)
		}
	}
	after, err := promSums(f.url + "/metrics")
	if err != nil {
		return err
	}
	var cache1 struct{ Cache campaign.CacheStats }
	if err := getJSON(f.url+"/stats", &cache1); err != nil {
		return err
	}
	var alloc1 float64
	if profDone != nil {
		if alloc1, err = totalAlloc(f.url); err != nil {
			return err
		}
		<-profDone
		if profErr != nil {
			return profErr
		}
	}
	r.set("max_rss_mb", f.stop())

	r.Attempted, r.Failed = plain.requests+traced.requests, plain.failed+traced.failed
	completed := plain.units + traced.units
	for _, x := range plain.runMs {
		if !math.IsInf(x, 1) {
			r.sample("run_ms", x)
		}
	}
	for _, x := range plain.sweepMs {
		if !math.IsInf(x, 1) {
			r.sample("sweep_ms", x)
		}
	}
	r.setMedian("wall_s")
	r.setMedian("sim_instr_per_s")
	r.setMedian("units_per_s")
	r.set("run_p50_ms", percentile(plain.runMs, 0.5))
	r.set("run_p90_ms", percentile(plain.runMs, 0.9))
	r.set("sweep_p50_ms", percentile(plain.sweepMs, 0.5))
	r.set("error_rate", ratio(float64(r.Failed), float64(r.Attempted)))

	if len(plain.normal) == 0 || len(plain.sweep) == 0 || plain.faulty == nil {
		return fmt.Errorf("fleet-mix: a request class has no completed sample")
	}
	compareInProcess(r, o.size.runInstr, plain.normal[:min(3, len(plain.normal))])
	compareInProcess(r, o.size.sweepInstr, plain.sweep)
	compareFaulty(r, plain.faulty, plain.faultyResp)
	if !o.trace {
		return nil
	}

	delta := func(name string) float64 { return after[name] - before[name] }
	r.set("cluster.job_ms", ratio(delta("galsim_fleet_job_seconds_sum"), delta("galsim_fleet_job_seconds_count"))*1e3)
	r.set("cluster.leases_per_job", ratio(delta("galsim_fleet_leases_granted_total"), delta("galsim_fleet_jobs_completed_total")))
	r.set("wal.bytes_per_unit", ratio(delta("galsim_wal_bytes_written"), float64(completed)))
	r.set("wal.fsyncs_per_request", ratio(delta("galsim_wal_fsyncs"), float64(r.Attempted)))
	hits, misses := cache1.Cache.Hits-cache0.Cache.Hits, cache1.Cache.Misses-cache0.Cache.Misses
	r.set("campaign.hit_rate", ratio(float64(hits), float64(hits+misses)))
	r.set("trace.overhead_frac", ratio(median(tracWall), median(plainWall))-1)
	if prof != nil {
		r.setProfileLayers(prof)
	}
	r.set("runtime.alloc_bytes_per_instr", ratio(alloc1-alloc0, traced.instr))

	// The traced half's /run units, and one sweep, re-run in process through
	// the public construction path: pipeline metrics for fleet-mix and the
	// service's overhead over the simulation it carries.
	runs := traced.normal[:min(len(traced.normal), 10)]
	sample := append(runs[:len(runs):len(runs)], traced.sweep...)
	var specs []campaign.RunSpec
	for _, u := range sample {
		specs = append(specs, u.Spec)
	}
	p, err := runUnits(r.tr, specs)
	if err != nil {
		return err
	}
	for i, u := range sample {
		r.check(checkSameSummary(u.Summary, u.Spec, p.stats[i]))
	}
	var over []float64
	for i := range runs {
		over = append(over, float64(traced.normalLat[i].Nanoseconds())/1e6-p.UnitNs[i]/1e6)
	}
	for _, x := range over {
		r.sample("service_overhead_ms", x)
	}
	r.set("service.run_overhead_ms", median(over))
	r.setPipelineLayers(p)
	e := campaign.NewEngine(workers())
	if _, err := e.RunAll(context.Background(), specs); err != nil {
		return err
	}
	if _, err := lookups(r, e, specs); err != nil {
		return err
	}
	if err := snapshotProbe(r, o.size.cadence); err != nil {
		return err
	}
	if r.Counters != nil {
		r.Counters["snapshot_bytes"] = uint64(r.Metrics["snapshot.bytes"].Value)
		r.check(compareCounters(r.Workload, r.Counters))
	}
	return nil
}

// fleetCounters sends a fixed request set at the default seed, one at a
// time, to a fresh fleet and records its exact work counters.
func fleetCounters(o options, r *report, f *fleet) error {
	before, err := promSums(f.url + "/metrics")
	if err != nil {
		return err
	}
	m := newMix(o, defaultSeed)
	reqs := []fleetReq{m.sweepReq(), m.runReq(false), m.runReq(false), m.runReq(true)}
	var oc outcome
	for _, q := range reqs {
		oc.add(r, q, send(f, nil, q))
	}
	after, err := promSums(f.url + "/metrics")
	if err != nil {
		return err
	}
	delta := func(name string) uint64 { return uint64(after[name] - before[name]) }
	r.Counters = map[string]uint64{
		"requests":        uint64(oc.requests),
		"failed_requests": uint64(oc.failed),
		"units":           uint64(oc.units),
		"committed":       uint64(oc.instr),
		"wal_appends":     delta("galsim_wal_appends"),
		"wal_bytes":       delta("galsim_wal_bytes_written"),
		"wal_fsyncs":      delta("galsim_wal_fsyncs"),
		"checkpoints":     delta("galsim_fleet_checkpoints_total"),
		"jobs_completed":  delta("galsim_fleet_jobs_completed_total"),
	}
	return nil
}
