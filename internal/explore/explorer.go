package explore

import (
	"context"
	"fmt"
	"log/slog"
	"sort"
	"sync"

	"galsim/internal/campaign"
	"galsim/internal/machine"
	"galsim/internal/telemetry"
)

// Evaluator scores one generation: it executes the sweep (one unit per
// workload × candidate) and returns results in expansion order. The
// campaign engine, a cluster coordinator, and a remote galsimd /sweep
// endpoint all fit behind it.
type Evaluator interface {
	EvaluateSweep(ctx context.Context, s campaign.Sweep, fn campaign.ProgressFunc) ([]campaign.UnitResult, error)
}

// BackendEvaluator adapts any campaign.Backend — the local engine or a
// cluster coordinator — into an Evaluator.
type BackendEvaluator struct{ Backend campaign.Backend }

// EvaluateSweep implements Evaluator.
func (b BackendEvaluator) EvaluateSweep(ctx context.Context, s campaign.Sweep, fn campaign.ProgressFunc) ([]campaign.UnitResult, error) {
	return campaign.RunSweep(ctx, b.Backend, s, fn)
}

// Point is one evaluated machine design.
type Point struct {
	// Machine is the full candidate spec; populated on frontier points
	// (and the best point) so the frontier file is directly runnable.
	Machine *machine.Spec `json:"machine,omitempty"`
	// MachineName and MachineDigest identify the candidate on every
	// point: the digest is machine.Spec.Digest, the provenance key used
	// across BENCH and frontier artifacts.
	MachineName   string `json:"machine_name"`
	MachineDigest string `json:"machine_digest"`
	// Domains is the candidate's clock-domain count.
	Domains int `json:"domains"`
	// Generation is the generation that first proposed the design.
	Generation int `json:"generation"`
	// Objectives holds the absolute aggregated objective values;
	// Relative divides them by the baseline machine's.
	Objectives map[string]float64 `json:"objectives"`
	Relative   map[string]float64 `json:"relative"`
	// Fitness is the weighted scalarization of Relative (lower is
	// better; the baseline scores 1).
	Fitness float64 `json:"fitness"`
	// Rank is the Pareto non-domination rank: 0 = on the frontier.
	Rank int `json:"rank"`

	rel []float64 // Relative in objective order, for ranking
}

// Result is the search outcome. Its JSON form is deterministic: the same
// canonical spec and seed produce byte-identical bytes on any backend at
// any worker count.
type Result struct {
	// Spec is the canonical search spec that produced the result.
	Spec SearchSpec `json:"spec"`
	// BaselineMachine/BaselineDigest identify the normalization
	// reference (the built-in base machine), and Baseline holds its
	// absolute objective values.
	BaselineMachine string             `json:"baseline_machine"`
	BaselineDigest  string             `json:"baseline_digest"`
	Baseline        map[string]float64 `json:"baseline"`
	// Best is the lowest-fitness design found.
	Best Point `json:"best"`
	// Frontier is the Pareto frontier (rank-0 points, no point dominated
	// by any evaluated design), sorted by fitness then digest.
	Frontier []Point `json:"frontier"`
	// Points lists every distinct design evaluated, in first-evaluation
	// order.
	Points []Point `json:"points"`
	// Evaluations counts candidate scorings (cache hits included);
	// Generations counts strategy rounds. Exhausted marks a strategy
	// that ran out of moves (grid walked the space, hill-climb
	// converged) before the budget did.
	Evaluations int  `json:"evaluations"`
	Generations int  `json:"generations"`
	Exhausted   bool `json:"exhausted,omitempty"`

	// Exec holds execution-side counters (units, cache hits).
	// Deliberately excluded from the JSON artifact: they vary by backend
	// and cache temperature while the search result must not.
	Exec ExecStats `json:"-"`
}

// ExecStats are execution-side counters for one search.
type ExecStats struct {
	// Units is the number of sweep units executed (candidates ×
	// workloads, plus the baseline).
	Units int
	// CacheHits counts units served from a result cache, as visible to
	// the backend (a cluster coordinator reports zero; its workers cache
	// locally).
	CacheHits int
}

// Progress is a point-in-time view of a running search, delivered after
// every generation (and, unit-by-unit, while one executes). Callbacks
// may be invoked concurrently, like campaign.ProgressFunc.
type Progress struct {
	// Generation is the current generation (0-based while running).
	Generation int `json:"generation"`
	// Evaluations/Budget count candidate scorings against the cap.
	Evaluations int `json:"evaluations"`
	Budget      int `json:"budget"`
	// Units/UnitsTotal/CacheHits mirror the campaign progress of the
	// generation currently executing.
	Units      int `json:"units"`
	UnitsTotal int `json:"units_total"`
	CacheHits  int `json:"cache_hits"`
	// FrontierSize, BestFitness and BestMachine describe the best state
	// as of the last completed generation.
	FrontierSize int     `json:"frontier_size"`
	BestFitness  float64 `json:"best_fitness"`
	BestMachine  string  `json:"best_machine"`
}

// ProgressFunc receives search progress snapshots.
type ProgressFunc func(Progress)

// Explorer runs searches. The zero value works: it evaluates on the
// shared local engine with no progress, metrics, or logging.
type Explorer struct {
	// Evaluator executes generations; nil selects the shared local
	// campaign engine.
	Evaluator Evaluator
	// Progress, when set, receives per-generation (and per-unit)
	// snapshots.
	Progress ProgressFunc
	// Metrics, when set, receives galsim_explore_* series.
	Metrics *telemetry.Registry
	// Log, when set, receives structured search logs (nil = slog default).
	Log *slog.Logger
}

// exploreMetrics are the galsim_explore_* instruments, resolved once per
// run (registration is idempotent on a telemetry.Registry).
type exploreMetrics struct {
	generations  telemetry.Counter
	evaluations  telemetry.Counter
	units        telemetry.Counter
	cacheHits    telemetry.Counter
	frontierSize telemetry.Gauge
	bestFitness  telemetry.Gauge
	cacheHitRate telemetry.Gauge
}

func newExploreMetrics(r *telemetry.Registry) *exploreMetrics {
	return &exploreMetrics{
		generations:  r.Counter("galsim_explore_generations_total", "Search generations completed."),
		evaluations:  r.Counter("galsim_explore_evaluations_total", "Candidate designs evaluated."),
		units:        r.Counter("galsim_explore_units_total", "Sweep units executed for search generations."),
		cacheHits:    r.Counter("galsim_explore_cache_hits_total", "Generation sweep units served from a result cache."),
		frontierSize: r.Gauge("galsim_explore_frontier_size", "Pareto frontier size of the current search."),
		bestFitness:  r.Gauge("galsim_explore_best_fitness", "Best scalar fitness of the current search (baseline = 1)."),
		cacheHitRate: r.Gauge("galsim_explore_cache_hit_rate", "Fraction of generation units served from cache."),
	}
}

// Run executes the search to its budget (or strategy exhaustion) and
// returns the Pareto frontier and best design.
func (x *Explorer) Run(ctx context.Context, spec SearchSpec) (*Result, error) {
	spec = spec.Canonical()
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	ev := x.Evaluator
	if ev == nil {
		ev = BackendEvaluator{Backend: campaign.Shared()}
	}
	logger := x.Log
	if logger == nil {
		logger = slog.Default()
	}
	var met *exploreMetrics
	if x.Metrics != nil {
		met = newExploreMetrics(x.Metrics)
	}
	r := newRng(spec.Seed)
	strat, err := newStrategy(spec)
	if err != nil {
		return nil, err
	}
	objNames := spec.Fitness.Objectives
	weights := weightVector(spec.Fitness)

	res := &Result{
		Spec:            spec,
		BaselineMachine: machine.Base().Name,
		BaselineDigest:  machine.Base().Digest(),
	}

	// Score the normalization baseline first (not budget-counted: it is
	// the denominator, not a candidate).
	baseSweep := campaign.Sweep{
		Benchmarks:   spec.Workloads,
		Machines:     []string{"base"},
		Instructions: spec.Instructions,
	}
	baseUnits, err := ev.EvaluateSweep(ctx, baseSweep, nil)
	if err != nil {
		return nil, fmt.Errorf("explore: baseline evaluation: %w", err)
	}
	res.Exec.Units += len(baseUnits)
	baseVals := objectiveValues(objNames, summaries(baseUnits))
	for i, v := range baseVals {
		if !(v > 0) {
			return nil, fmt.Errorf("explore: degenerate baseline: objective %q is %v", objNames[i], v)
		}
	}
	res.Baseline = objectiveMap(objNames, baseVals)

	hist := newHistory()
	pointIdx := map[string]int{}              // machine digest -> res.Points index
	specByDigest := map[string]machine.Spec{} // for frontier spec attachment

	logger.Info("explore: search started",
		"name", spec.Name, "strategy", spec.Strategy, "seed", spec.Seed,
		"workloads", spec.Workloads, "population", spec.Budget.Population,
		"max_generations", spec.Budget.MaxGenerations, "max_evaluations", spec.Budget.MaxEvaluations)

	for res.Generations < spec.Budget.MaxGenerations && res.Evaluations < spec.Budget.MaxEvaluations {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		want := spec.Budget.Population
		if left := spec.Budget.MaxEvaluations - res.Evaluations; want > left {
			want = left
		}
		gs := strat.propose(r, hist, want)
		if len(gs) == 0 {
			res.Exhausted = true
			break
		}
		if len(gs) > want {
			gs = gs[:want]
		}
		specs := make([]machine.Spec, len(gs))
		for i, g := range gs {
			specs[i] = g.spec(spec.Space)
		}
		sweep := campaign.Sweep{
			Benchmarks:   spec.Workloads,
			MachineSpecs: specs,
			Instructions: spec.Instructions,
			DynamicDVFS:  spec.Space.DVFS,
		}
		gen := res.Generations
		snap := x.progressBase(res, gen)
		var mu sync.Mutex
		var lastCampaign campaign.Progress
		units, err := ev.EvaluateSweep(ctx, sweep, func(p campaign.Progress) {
			mu.Lock()
			lastCampaign = p
			mu.Unlock()
			if x.Progress != nil {
				s := snap
				s.Units, s.UnitsTotal, s.CacheHits = p.Completed, p.Total, p.CacheHits
				x.Progress(s)
			}
		})
		if err != nil {
			return nil, fmt.Errorf("explore: generation %d: %w", gen, err)
		}
		if want := len(gs) * len(spec.Workloads); len(units) != want {
			return nil, fmt.Errorf("explore: generation %d: evaluator returned %d units, want %d", gen, len(units), want)
		}
		for ci, g := range gs {
			sums := make([]campaign.Summary, len(spec.Workloads))
			for wi := range spec.Workloads {
				sums[wi] = units[wi*len(gs)+ci].Summary
			}
			vals := objectiveValues(objNames, sums)
			rel := relativeValues(vals, baseVals)
			fit := scalarize(rel, weights)
			hist.add(g, fit)
			d := specs[ci].Digest()
			if _, ok := pointIdx[d]; !ok {
				pointIdx[d] = len(res.Points)
				specByDigest[d] = specs[ci]
				res.Points = append(res.Points, Point{
					MachineName:   specs[ci].Name,
					MachineDigest: d,
					Domains:       len(specs[ci].Domains),
					Generation:    gen,
					Objectives:    objectiveMap(objNames, vals),
					Relative:      objectiveMap(objNames, rel),
					Fitness:       fit,
					rel:           rel,
				})
			}
		}
		res.Evaluations += len(gs)
		res.Generations++
		res.Exec.Units += len(units)
		mu.Lock()
		genHits := lastCampaign.CacheHits
		mu.Unlock()
		res.Exec.CacheHits += genHits

		x.rank(res, specByDigest)
		best, _ := hist.best()
		logger.Info("explore: generation scored",
			"generation", gen, "candidates", len(gs), "evaluations", res.Evaluations,
			"frontier", len(res.Frontier), "best_fitness", best.fit,
			"cache_hits", genHits)
		if met != nil {
			met.generations.Inc()
			met.evaluations.Add(float64(len(gs)))
			met.units.Add(float64(len(units)))
			met.cacheHits.Add(float64(genHits))
			met.frontierSize.Set(float64(len(res.Frontier)))
			met.bestFitness.Set(res.Best.Fitness)
			if res.Exec.Units > 0 {
				met.cacheHitRate.Set(float64(res.Exec.CacheHits) / float64(res.Exec.Units))
			}
		}
		if x.Progress != nil {
			s := x.progressBase(res, res.Generations)
			s.Units, s.UnitsTotal, s.CacheHits = len(units), len(units), genHits
			x.Progress(s)
		}
	}
	if len(res.Points) == 0 {
		return nil, fmt.Errorf("explore: search produced no evaluations (budget %d evaluations, %d generations)",
			spec.Budget.MaxEvaluations, spec.Budget.MaxGenerations)
	}
	x.rank(res, specByDigest)
	logger.Info("explore: search finished",
		"name", spec.Name, "generations", res.Generations, "evaluations", res.Evaluations,
		"designs", len(res.Points), "frontier", len(res.Frontier),
		"best", res.Best.MachineName, "best_fitness", res.Best.Fitness,
		"exhausted", res.Exhausted)
	return res, nil
}

// progressBase builds the slow-moving part of a Progress snapshot.
func (x *Explorer) progressBase(res *Result, gen int) Progress {
	p := Progress{
		Generation:   gen,
		Evaluations:  res.Evaluations,
		Budget:       res.Spec.Budget.MaxEvaluations,
		FrontierSize: len(res.Frontier),
	}
	if len(res.Points) > 0 {
		p.BestFitness = res.Best.Fitness
		p.BestMachine = res.Best.MachineName
	}
	return p
}

// rank recomputes dominance ranks, the frontier, and the best point over
// the accumulated unique designs. specs maps machine digests back to
// full specs for the frontier (points deliberately do not retain specs
// in the Points list; the frontier and best carry them so the artifact
// is directly runnable).
func (x *Explorer) rank(res *Result, specs map[string]machine.Spec) {
	if len(res.Points) == 0 {
		return
	}
	rels := make([][]float64, len(res.Points))
	for i := range res.Points {
		rels[i] = res.Points[i].rel
	}
	ranks := paretoRanks(rels)
	bestIdx := 0
	res.Frontier = res.Frontier[:0]
	for i := range res.Points {
		p := &res.Points[i]
		p.Rank = ranks[i]
		p.Machine = nil
		if p.Fitness < res.Points[bestIdx].Fitness ||
			(p.Fitness == res.Points[bestIdx].Fitness && p.MachineDigest < res.Points[bestIdx].MachineDigest) {
			bestIdx = i
		}
	}
	for i := range res.Points {
		if ranks[i] == 0 {
			res.Frontier = append(res.Frontier, res.Points[i])
		}
	}
	sort.Slice(res.Frontier, func(i, j int) bool {
		if res.Frontier[i].Fitness != res.Frontier[j].Fitness {
			return res.Frontier[i].Fitness < res.Frontier[j].Fitness
		}
		return res.Frontier[i].MachineDigest < res.Frontier[j].MachineDigest
	})
	res.Best = res.Points[bestIdx]
	attach := func(p *Point) {
		if spec, ok := specs[p.MachineDigest]; ok {
			s := spec
			p.Machine = &s
		}
	}
	attach(&res.Best)
	for i := range res.Frontier {
		attach(&res.Frontier[i])
	}
}

func summaries(units []campaign.UnitResult) []campaign.Summary {
	out := make([]campaign.Summary, len(units))
	for i, u := range units {
		out[i] = u.Summary
	}
	return out
}

func objectiveMap(names []string, vals []float64) map[string]float64 {
	out := make(map[string]float64, len(names))
	for i, n := range names {
		out[n] = vals[i]
	}
	return out
}
