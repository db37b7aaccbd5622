// Command benchmark measures galsim end to end on three workloads and, in a
// separate traced run, layer by layer. See README.md for the workloads, the
// metrics and how each layer metric maps to an end-to-end one.
//
// Run it from the root of a galsim checkout through run.sh, which builds it:
//
//	bash benchmark/run.sh --workload paper-eval --seed 1 --seconds 30 --trace 0
//
// The last line of standard output is the result as one JSON object; a
// report with the host fingerprint, every raw sample and (when traced) every
// span is written under .bench_build/reports/.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// defaultSeed is the seed the committed work counters are measured at. It
// maps to the paper's own workload seed (42) and the README search seed.
const defaultSeed = 1

// clients is the closed-loop concurrency of every workload: the engine
// worker count, the fleet's spawned workers and its client connections.
const clients = 2

type options struct {
	workload string
	seed     int64
	window   time.Duration
	trace    bool
	fleetBin string
	workDir  string // scratch space for fleet journals
	size     sizes
}

// sizes scales the workloads; the benchmark runs at fullSize and the smoke
// tests at a tiny one.
type sizes struct {
	full         bool // work counters are compared only at full size
	setupReps    int
	paperInstr   uint64
	paperBenches []string // nil = every benchmark
	searchInstr  uint64
	searchGens   int
	searchPop    int
	runInstr     uint64
	sweepInstr   uint64
	cadence      uint64
	runsPerRound int
	fleetStarts  int
	unitSample   int // units re-run through the traced construction path
}

var fullSize = sizes{
	full: true, setupReps: 31,
	paperInstr:  60_000,
	searchInstr: 10_000, searchGens: 8, searchPop: 16,
	runInstr: 10_000, sweepInstr: 60_000, cadence: 20_000, runsPerRound: 20, fleetStarts: 11,
	unitSample: 40,
}

// report is everything one run measured. It is written whole to the report
// file; the result line carries the declared metrics.
type report struct {
	Workload  string               `json:"workload"`
	Seed      int64                `json:"seed"`
	Seconds   float64              `json:"seconds"`
	Trace     bool                 `json:"trace"`
	Host      host                 `json:"host"`
	Metrics   map[string]value     `json:"metrics"`
	Samples   map[string]summary   `json:"samples"`
	Counters  map[string]uint64    `json:"counters,omitempty"`
	Paper     []paperRef           `json:"paper_reference,omitempty"`
	Failures  []string             `json:"check_failures"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Layers    map[string]layerTime `json:"span_times,omitempty"`
	Profile   *cpuProfile          `json:"cpu_profile,omitempty"`
	Spans     []span               `json:"spans,omitempty"`
	raw       map[string][]float64 // samples by name, summarized at the end
	tr        *tracer              // nil in the untraced run
	units     map[string]string    // metric units, for printing
}

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func newReport(o options) *report {
	r := &report{Workload: o.workload, Seed: o.seed, Seconds: o.window.Seconds(), Trace: o.trace,
		Metrics: map[string]value{}, Samples: map[string]summary{}, raw: map[string][]float64{},
		Failures: []string{}, units: map[string]string{}}
	for _, list := range [][]metricDef{endToEnd, perLayer, workloadMetrics[o.workload]} {
		for _, m := range list {
			r.units[m.name] = m.unit
		}
	}
	if o.trace {
		r.tr = newTracer()
	}
	return r
}

func (r *report) sample(name string, v float64) { r.raw[name] = append(r.raw[name], v) }

// setMedian sets a metric to the median of its samples.
func (r *report) setMedian(name string) { r.set(name, median(r.raw[name])) }

// set records a metric. An infinite value (a percentile past the failed
// requests) is stored as the largest float, which JSON can carry.
func (r *report) set(name string, v float64) {
	if math.IsInf(v, 1) {
		v = math.MaxFloat64
	}
	r.Metrics[name] = value{Value: v, Unit: r.units[name]}
}

// check records a failed output check; nil passes.
func (r *report) check(err error) {
	if err != nil {
		r.Failures = append(r.Failures, err.Error())
	}
}

// result is the last line of standard output.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

func (r *report) result() result {
	defs := endToEnd
	if r.Trace {
		defs = perLayer
	}
	m := map[string]value{}
	for _, d := range defs {
		m[d.name] = value{Value: r.Metrics[d.name].Value, Unit: d.unit}
	}
	return result{Correct: len(r.Failures) == 0, Attempted: r.Attempted, Failed: r.Failed, Metrics: m}
}

var workloads = map[string]func(options, *report) error{
	"paper-eval":     paperEval,
	"explore-search": exploreSearch,
	"fleet-mix":      fleetMix,
}

// run measures one workload and returns its finished report.
func run(o options) (*report, error) {
	fn, ok := workloads[o.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", o.workload)
	}
	r := newReport(o)
	root, _ := os.Getwd()
	r.Host = fingerprint(root)
	if err := fn(o, r); err != nil {
		return nil, err
	}
	r.Host.LoadEnd = loadAvg()
	if o.trace {
		for _, d := range perLayer {
			if _, ok := r.Metrics[d.name]; !ok {
				r.set(d.name, 0) // a layer this workload does not use
			}
		}
	}
	for name, xs := range r.raw {
		r.Samples[name] = summarize(xs)
	}
	if r.tr != nil {
		r.Spans = r.tr.spans
		r.Layers = selfTimes(r.tr.spans)
	}
	return r, nil
}

func main() {
	var o options
	var seconds float64
	var trace int
	flag.StringVar(&o.workload, "workload", "", "paper-eval | explore-search | fleet-mix")
	flag.Int64Var(&o.seed, "seed", defaultSeed, "input seed")
	flag.Float64Var(&seconds, "seconds", 30, "measurement window")
	flag.IntVar(&trace, "trace", 0, "1 = traced run printing the per-layer metrics")
	flag.StringVar(&o.fleetBin, "fleet", filepath.Join(".bench_build", "galsim-fleet"), "galsim-fleet binary")
	writeCounters := flag.Bool("write-counters", false,
		"record this run's work counters in benchmark/counters.json (only for an intended change of the simulated work)")
	flag.Parse()
	o.window = time.Duration(seconds * float64(time.Second))
	o.trace = trace == 1
	o.size = fullSize
	o.workDir = ".bench_build"

	r, err := run(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	if *writeCounters {
		if err := storeCounters(filepath.Join("benchmark", "counters.json"), o.workload, r.Counters); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(1)
		}
	}
	path := filepath.Join(".bench_build", "reports", fmt.Sprintf("%s-seed%d-trace%d.json", o.workload, o.seed, trace))
	if err := writeReport(path, r); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	printHuman(os.Stdout, r, path)
	line, err := json.Marshal(r.result())
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

func writeReport(path string, r *report) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(r, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// printHuman prints the host, every metric by name and unit, the paper
// reference, the work counters and any failed check.
func printHuman(w io.Writer, r *report, path string) {
	h := r.Host
	fmt.Fprintf(w, "galsim benchmark %s seed=%d seconds=%g trace=%v\n", r.Workload, r.Seed, r.Seconds, r.Trace)
	fmt.Fprintf(w, "host: %s, nproc=%d, GOMAXPROCS=%d, %s, %s (%d files), load %.2f -> %.2f\n",
		h.CPUModel, h.NumCPU, h.GOMAXPROCS, h.GoVersion, h.Commit, h.SourceFiles, h.LoadStart, h.LoadEnd)
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		v := r.Metrics[n]
		fmt.Fprintf(w, "  %-34s %14.6g %s\n", n, v.Value, v.Unit)
	}
	for _, p := range r.Paper {
		fmt.Fprintf(w, "  paper %-28s simulated %-10.4g paper %s\n", p.Figure, p.Simulated, p.Paper)
	}
	if len(r.Paper) > 0 {
		fmt.Fprintln(w, "  (caches start cold; the model is checked only against these published figures)")
	}
	keys := make([]string, 0, len(r.Counters))
	for k := range r.Counters {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(w, "  counter %-30s %d\n", k, r.Counters[k])
	}
	for _, f := range r.Failures {
		fmt.Fprintf(w, "  CHECK FAILED: %s\n", f)
	}
	fmt.Fprintf(w, "report: %s\n", path)
}

// inf marks a failed request's latency.
var inf = math.Inf(1)

// workers is the engine width: the closed-loop client count, capped by the
// host's CPUs.
func workers() int { return min(clients, runtime.NumCPU()) }

// workloadSeed maps the benchmark seed to a campaign workload seed; the
// default seed gives the paper's 42.
func workloadSeed(seed int64) int64 { return seed + 41 }
