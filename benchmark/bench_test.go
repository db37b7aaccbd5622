package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"testing"
	"time"

	"galsim/internal/campaign"
	"galsim/internal/pipeline"
)

// tinySize runs every workload in well under a second of simulation.
var tinySize = sizes{
	setupReps:    2,
	paperInstr:   2000,
	paperBenches: []string{"gcc", "swim"},
	searchInstr:  2000, searchGens: 2, searchPop: 4,
	runInstr: 2000, sweepInstr: 6000, cadence: 2000, runsPerRound: 4, fleetStarts: 1,
	unitSample: 4,
}

type declared struct {
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	Workloads []struct{ Name string }       `json:"workloads"`
}

func readBenchmarkJSON(t *testing.T) declared {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var d declared
	if err := json.Unmarshal(b, &d); err != nil {
		t.Fatal(err)
	}
	return d
}

func units(list []struct{ Name, Unit string }) map[string]string {
	m := map[string]string{}
	for _, x := range list {
		m[x.Name] = x.Unit
	}
	return m
}

func defUnits(list []metricDef) map[string]string {
	m := map[string]string{}
	for _, x := range list {
		m[x.name] = x.unit
	}
	return m
}

func sameKeys(t *testing.T, what string, got map[string]value, want map[string]string) {
	t.Helper()
	for name, unit := range want {
		v, ok := got[name]
		if !ok {
			t.Errorf("%s: metric %s missing", what, name)
		} else if v.Unit != unit {
			t.Errorf("%s: metric %s has unit %q, BENCHMARK.json says %q", what, name, v.Unit, unit)
		}
	}
	for name := range got {
		if _, ok := want[name]; !ok {
			t.Errorf("%s: metric %s is not declared in BENCHMARK.json", what, name)
		}
	}
}

func TestMetricNamesMatchBenchmarkJSON(t *testing.T) {
	d := readBenchmarkJSON(t)
	for what, pair := range map[string][2]map[string]string{
		"end_to_end": {units(d.EndToEnd), defUnits(endToEnd)},
		"per_layer":  {units(d.PerLayer), defUnits(perLayer)},
	} {
		if len(pair[0]) != len(pair[1]) {
			t.Errorf("%s: BENCHMARK.json declares %d metrics, the benchmark %d", what, len(pair[0]), len(pair[1]))
		}
		for name, unit := range pair[1] {
			if pair[0][name] != unit {
				t.Errorf("%s: %s is %q in the benchmark, %q in BENCHMARK.json", what, name, unit, pair[0][name])
			}
		}
	}
	var names []string
	for _, w := range d.Workloads {
		names = append(names, w.Name)
	}
	var have []string
	for w := range workloads {
		have = append(have, w)
	}
	sort.Strings(names)
	sort.Strings(have)
	if !equalStrings(names, have) {
		t.Errorf("workloads: BENCHMARK.json %v, benchmark %v", names, have)
	}
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// buildFleet builds galsim-fleet for the fleet-mix smoke test.
func buildFleet(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "galsim-fleet")
	cmd := exec.Command("go", "build", "-o", bin, "galsim/cmd/galsim-fleet")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("building galsim-fleet: %v\n%s", err, out)
	}
	return bin
}

// TestSmoke runs every workload at a tiny size, untraced and traced, and
// validates the printed result against BENCHMARK.json.
func TestSmoke(t *testing.T) {
	d := readBenchmarkJSON(t)
	var fleetBin string
	if !testing.Short() {
		fleetBin = buildFleet(t)
	}
	for _, w := range d.Workloads {
		for _, trace := range []bool{false, true} {
			name := w.Name
			if trace {
				name += "/traced"
			}
			t.Run(name, func(t *testing.T) {
				if w.Name == "fleet-mix" && testing.Short() {
					t.Skip("starts galsim-fleet processes")
				}
				o := options{workload: w.Name, seed: 3, window: 200 * time.Millisecond, trace: trace,
					fleetBin: fleetBin, workDir: t.TempDir(), size: tinySize}
				r, err := run(o)
				if err != nil {
					t.Fatal(err)
				}
				res := r.result()
				if !res.Correct {
					t.Errorf("output checks failed: %v", r.Failures)
				}
				if res.Attempted < 1 {
					t.Errorf("attempted = %d", res.Attempted)
				}
				want := units(d.EndToEnd)
				if trace {
					want = units(d.PerLayer)
				}
				sameKeys(t, name, res.Metrics, want)
				var buf bytes.Buffer
				printHuman(&buf, r, "report.json")
				if _, err := json.Marshal(r); err != nil {
					t.Errorf("report does not encode: %v", err)
				}
				for n := range res.Metrics {
					if !bytes.Contains(buf.Bytes(), []byte(n)) {
						t.Errorf("human report does not print %s", n)
					}
				}
			})
		}
	}
}

// TestChecksTripOnTamperedOutput shows that every output check passes the
// real output and fails a tampered copy.
func TestChecksTripOnTamperedOutput(t *testing.T) {
	spec := campaign.RunSpec{Benchmark: "gcc", Machine: "gals", Instructions: 2000}
	st, err := campaign.Execute(spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	summary, err := json.Marshal(campaign.Summarize(spec, st))
	if err != nil {
		t.Fatal(err)
	}
	tamper := func(fn func(*pipeline.Stats)) pipeline.Stats {
		c := st
		c.EnergyBreakdown = st.EnergyBreakdown
		fn(&c)
		return c
	}
	var committed map[string]map[string]uint64
	if err := json.Unmarshal(committedCounters, &committed); err != nil {
		t.Fatal(err)
	}
	changed := map[string]uint64{}
	for k, v := range committed["paper-eval"] {
		changed[k] = v
	}
	changed["domain_edges"]++

	cases := []struct {
		name      string
		good, bad error
	}{
		{"identical tables", checkIdentical("x", []byte("table"), []byte("table")),
			checkIdentical("x", []byte("table"), []byte("tablf"))},
		{"budget committed", checkUnit(2000, st),
			checkUnit(2000, tamper(func(s *pipeline.Stats) { s.Committed-- }))},
		{"energy breakdown", checkUnit(2000, st),
			checkUnit(2000, tamper(func(s *pipeline.Stats) { s.EnergyBreakdown[0] += 1 }))},
		{"summary committed", checkCommitted(2000, campaign.Summarize(spec, st)),
			checkCommitted(2001, campaign.Summarize(spec, st))},
		{"fleet summary", checkSameSummary(summary, spec, st),
			checkSameSummary(bytes.Replace(summary, []byte(`"ipc":`), []byte(`"ipc":1`), 1), spec, st)},
		{"error body", checkErrorBody(500, []byte(`{"error":"boom"}`)),
			checkErrorBody(500, []byte(`internal error`))},
		{"traced unit pass", sameStats([]pipeline.Stats{st}, []pipeline.Stats{st}),
			sameStats([]pipeline.Stats{tamper(func(s *pipeline.Stats) { s.Fetched++ })}, []pipeline.Stats{st})},
		{"work counters", compareCounters("paper-eval", committed["paper-eval"]),
			compareCounters("paper-eval", changed)},
	}
	for _, c := range cases {
		if c.good != nil {
			t.Errorf("%s: check failed on the real output: %v", c.name, c.good)
		}
		if c.bad == nil {
			t.Errorf("%s: check passed a tampered output", c.name)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	if q1, q3 := quartiles(xs); q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v; want 2.75, 8.25", q1, q3)
	}
	if m := median(xs); m != 5.5 {
		t.Errorf("median = %v", m)
	}
	if p := percentile([]float64{1, 2, 3, inf}, 0.5); p != 2 {
		t.Errorf("p50 with a failure = %v", p)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "parent", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "child", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "child", Start: 20, End: 50},
	}
	got := selfTimes(spans)
	if p := got["parent"]; p.TotalNs != 100 || p.SelfNs != 60 {
		t.Errorf("parent = %+v, want total 100 self 60", p)
	}
	if c := got["child"]; c.Spans != 2 || c.SelfNs != 50 {
		t.Errorf("child = %+v, want 2 spans, self 50", c)
	}
}

func TestPackageOf(t *testing.T) {
	for fn, want := range map[string]string{
		"galsim/internal/pipeline.(*Core).Run":                    "pipeline",
		"galsim/internal/fifo.(*Link[go.shape.struct {}]).Put":    "fifo",
		"galsim/internal/workload.(*Generator).materialize.func1": "workload",
		"runtime.mallocgc": "runtime",
	} {
		if got := packageOf(fn); got != want {
			t.Errorf("packageOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

func TestParseCPUProfile(t *testing.T) {
	p, err := profiled(func() {
		end := time.Now().Add(300 * time.Millisecond)
		x := 0
		for time.Now().Before(end) {
			x++
		}
		_ = x
	})
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, v := range p.ByPkg {
		total += v
	}
	if total != p.Total || p.GC > p.Total {
		t.Errorf("inconsistent profile %+v", p)
	}
}
