package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// metricDef names one metric the benchmark prints and its unit. The lists
// below mirror BENCHMARK.json; TestMetricNamesMatchBenchmarkJSON keeps them
// in step.
type metricDef struct{ name, unit string }

// endToEnd are the host-time metrics a user of galsim sees, printed by every
// untraced run of every workload. What each means per workload is set out in
// README.md.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"sim_instr_per_s", "1/s"},
	{"units_per_s", "1/s"},
	{"max_rss_mb", "MB"},
}

// workloadMetrics are end-to-end metrics that exist on one workload only.
// They are printed in the human-readable report and kept in the report file,
// but they are not part of the result line, which must hold the same metrics
// for every workload.
var workloadMetrics = map[string][]metricDef{
	"paper-eval":     {{"error_rate", "ratio"}},
	"explore-search": {{"evals_per_s", "1/s"}, {"error_rate", "ratio"}},
	"fleet-mix": {{"run_p50_ms", "ms"}, {"run_p90_ms", "ms"}, {"sweep_p50_ms", "ms"},
		{"error_rate", "ratio"}},
}

// perLayer are the traced run's metrics. A layer that a workload bypasses
// reports 0 there: that is the measured amount of work it did.
var perLayer = []metricDef{
	{"pipeline.run_ns_per_instr", "ns"},
	{"pipeline.setup_us", "us"},
	{"pipeline.allocs_per_kinstr", "count"},
	{"pipeline.domain_edges_per_instr", "count"},
	{"pipeline.fifo_ops_per_instr", "count"},
	{"pipeline.wrong_path_frac", "ratio"},
	{"pipeline.self_share", "ratio"},
	{"event.self_share", "ratio"},
	{"workload.next_ns", "ns"},
	{"workload.setup_us", "us"},
	{"workload.self_share", "ratio"},
	{"fifo.self_share", "ratio"},
	{"iq.self_share", "ratio"},
	{"rob.self_share", "ratio"},
	{"rename.self_share", "ratio"},
	{"cache.self_share", "ratio"},
	{"bpred.self_share", "ratio"},
	{"power.self_share", "ratio"},
	{"clock.self_share", "ratio"},
	{"cache.accesses_per_instr", "count"},
	{"bpred.mispredicts_per_kinstr", "count"},
	{"runtime.gc_share", "ratio"},
	{"runtime.alloc_bytes_per_instr", "B"},
	{"campaign.hit_rate", "ratio"},
	{"campaign.lookup_us", "us"},
	{"campaign.self_share", "ratio"},
	{"explore.eval_share", "ratio"},
	{"explore.generation_ms", "ms"},
	{"service.run_overhead_ms", "ms"},
	{"cluster.job_ms", "ms"},
	{"cluster.leases_per_job", "count"},
	{"wal.bytes_per_unit", "B"},
	{"wal.fsyncs_per_request", "count"},
	{"snapshot.bytes", "B"},
	{"snapshot.encode_ms", "ms"},
	{"snapshot.decode_ms", "ms"},
	{"trace.overhead_frac", "ratio"},
}

// selfSharePackages are the galsim/internal packages whose CPU self-time
// share the traced run reports as <package>.self_share.
var selfSharePackages = []string{"pipeline", "event", "workload", "fifo", "iq", "rob",
	"rename", "cache", "bpred", "power", "clock", "campaign"}

// summary is a sample set with its median and quartiles.
type summary struct {
	Samples []float64 `json:"samples"`
	Median  float64   `json:"median"`
	Q1      float64   `json:"q1"`
	Q3      float64   `json:"q3"`
}

func summarize(xs []float64) summary {
	q1, q3 := quartiles(xs)
	return summary{Samples: xs, Median: median(xs), Q1: q1, Q3: q3}
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles follows Python's statistics.quantiles(xs, n=4) ("exclusive"
// method), the definition the spread of a metric is judged by.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sortedCopy(xs)
	ld := len(s)
	switch ld {
	case 0:
		return 0, 0
	case 1:
		return s[0], s[0]
	}
	q := func(i int) float64 {
		const n = 4
		m := ld + 1
		j := min(max(i*m/n, 1), ld-1)
		delta := i*m - j*n
		return (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return q(1), q(3)
}

// percentile is the nearest-rank percentile; +Inf samples (failed
// requests) sort last, so a percentile is finite while the failures stay
// beyond it.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	k := int(math.Ceil(p*float64(len(s)))) - 1
	return s[min(max(k, 0), len(s)-1)]
}

// ratio returns a/b, or 0 when b is 0 (a layer that did no work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// host describes the machine a report was measured on.
type host struct {
	CPUModel    string  `json:"cpu_model"`
	NumCPU      int     `json:"nproc"`
	GOMAXPROCS  int     `json:"gomaxprocs"`
	GoVersion   string  `json:"go_version"`
	Commit      string  `json:"commit"`
	LoadStart   float64 `json:"loadavg_1m_start"`
	LoadEnd     float64 `json:"loadavg_1m_end"`
	SourceFiles int     `json:"source_files"`
}

func fingerprint(root string) host {
	h := host{
		CPUModel:   cpuModel(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		LoadStart:  loadAvg(),
	}
	h.Commit, h.SourceFiles = sourceDigest(root)
	return h
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

func loadAvg() float64 {
	b, err := os.ReadFile("/proc/loadavg")
	if err != nil {
		return -1
	}
	f, err := strconv.ParseFloat(strings.Fields(string(b))[0], 64)
	if err != nil {
		return -1
	}
	return f
}

// sourceDigest identifies the measured code: the benchmark runs from a
// checkout that need not be a git repository, so it hashes the Go sources
// and go.mod files under root (build output directories excluded) instead
// of naming a commit.
func sourceDigest(root string) (string, int) {
	var paths []string
	_ = filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil // an unreadable entry only narrows the digest
		}
		if d.IsDir() && p != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			paths = append(paths, p)
		}
		return nil
	})
	sort.Strings(paths)
	h := sha256.New()
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		rel, _ := filepath.Rel(root, p)
		h.Write([]byte(rel))
		h.Write([]byte{0})
		h.Write(b)
	}
	return "src-" + hex.EncodeToString(h.Sum(nil))[:16], len(paths)
}

// cpuSeconds is the process's user plus system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// peakRSSMB reads a process's peak resident set size (VmHWM) in MB.
func peakRSSMB(pid string) float64 {
	b, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.Fields(rest)[0], 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}
