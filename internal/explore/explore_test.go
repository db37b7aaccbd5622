package explore

import (
	"context"
	"errors"
	"strings"
	"testing"

	"galsim/internal/campaign"
	"galsim/internal/machine"
	"galsim/internal/telemetry"
)

func TestParseRejectsUnknownFields(t *testing.T) {
	if _, err := Parse([]byte(`{"strategy":"grid","populatino":4}`)); err == nil {
		t.Fatal("expected unknown-field error")
	}
	// The removed warm-up sharing option fails loudly, not silently.
	if _, err := Parse([]byte(`{"strategy":"grid","warmup":500}`)); err == nil || !strings.Contains(err.Error(), `"warmup"`) {
		t.Fatalf("warmup field: got %v, want an unknown-field error naming it", err)
	}
	if _, err := Parse([]byte(`{"seed":3}{"seed":4}`)); err == nil {
		t.Fatal("expected trailing-data error")
	}
	s, err := Parse([]byte(`{"strategy":"grid","budget":{"population":4}}`))
	if err != nil {
		t.Fatal(err)
	}
	if s.Strategy != StrategyGrid || s.Budget.Population != 4 {
		t.Fatalf("parsed %+v", s)
	}
}

func TestCanonicalDefaults(t *testing.T) {
	c := SearchSpec{}.Canonical()
	if c.Seed != 1 || c.Strategy != StrategyEvolutionary {
		t.Fatalf("defaults: %+v", c)
	}
	if len(c.Workloads) != 1 || c.Workloads[0] != "gcc" {
		t.Fatalf("workloads: %v", c.Workloads)
	}
	if c.Budget.Population != 16 || c.Budget.MaxGenerations != 20 || c.Budget.MaxEvaluations != 320 {
		t.Fatalf("budget: %+v", c.Budget)
	}
	if len(c.Space.FrequenciesGHz) != 1 || c.Space.FrequenciesGHz[0] != 1.0 {
		t.Fatalf("frequencies: %v", c.Space.FrequenciesGHz)
	}
	if len(c.Space.LinkDepths) != 1 || c.Space.LinkDepths[0] != 0 {
		t.Fatalf("link depths: %v", c.Space.LinkDepths)
	}
	if len(c.Fitness.Objectives) != 3 {
		t.Fatalf("objectives: %v", c.Fitness.Objectives)
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	// Axis normalization dedups and sorts, and keeps the default choice.
	c2 := SearchSpec{Space: SpaceSpec{
		FrequenciesGHz: []float64{2, 1, 2, 0.5},
		LinkDepths:     []int{8, 8, 4},
		SyncEdges:      []int{4},
	}}.Canonical()
	if got := c2.Space.FrequenciesGHz; len(got) != 3 || got[0] != 0.5 || got[2] != 2 {
		t.Fatalf("frequencies: %v", got)
	}
	if got := c2.Space.LinkDepths; len(got) != 3 || got[0] != 0 {
		t.Fatalf("link depths: %v", got)
	}
	if got := c2.Space.SyncEdges; len(got) != 2 || got[0] != 0 || got[1] != 4 {
		t.Fatalf("sync edges: %v", got)
	}
}

func TestValidateLimits(t *testing.T) {
	var le *LimitError
	cases := []SearchSpec{
		{Budget: BudgetSpec{Population: 100000}},
		{Budget: BudgetSpec{MaxGenerations: 100000}},
		{Budget: BudgetSpec{MaxEvaluations: 1 << 30}},
		{Workloads: make([]string, capWorkloads+1)},
		{Strategy: StrategyGrid, Space: SpaceSpec{FrequenciesGHz: []float64{
			0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0,
			1.1, 1.2, 1.3, 1.4, 1.5, 1.6, 1.7, 1.8, 1.9, 2.0}}},
	}
	for i, s := range cases {
		err := s.Validate()
		if err == nil {
			t.Fatalf("case %d: expected error", i)
		}
		if i == 3 {
			continue // bad workload names may trip first; any error is fine
		}
		if !errors.As(err, &le) {
			t.Fatalf("case %d: want LimitError, got %v", i, err)
		}
	}
	if err := (SearchSpec{Strategy: "simulated-annealing"}).Validate(); err == nil {
		t.Fatal("expected unknown-strategy error")
	}
	if err := (SearchSpec{Workloads: []string{"doom"}}).Validate(); err == nil {
		t.Fatal("expected unknown-workload error")
	}
	if err := (SearchSpec{Fitness: FitnessSpec{Weights: map[string]float64{"delay": -1}}}).Validate(); err == nil {
		t.Fatal("expected bad-weight error")
	}
	if err := (SearchSpec{Fitness: FitnessSpec{Objectives: []string{"beauty"}}}).Validate(); err == nil {
		t.Fatal("expected unknown-objective error")
	}
}

func TestBuiltinCollapse(t *testing.T) {
	spaceDVFS := SpaceSpec{DVFS: true}.canonical()
	spaceStatic := SpaceSpec{}.canonical()

	if got := baseGenome(spaceDVFS).spec(spaceDVFS); got.Name != "base" {
		t.Fatalf("base genome built %q", got.Name)
	}
	if got := galsGenome(spaceDVFS).spec(spaceDVFS); got.Name != "gals" {
		t.Fatalf("gals genome built %q", got.Name)
	}
	if got := galsGenome(spaceDVFS).spec(spaceDVFS); got.Digest() != machine.GALS().Digest() {
		t.Fatal("gals genome digest mismatch")
	}
	// Without the DVFS axis the all-singleton partition is all-static:
	// a different machine than the builtin, under its own name.
	got := galsGenome(spaceStatic).spec(spaceStatic)
	if got.Name != "fetch.decode.int.fp.mem" {
		t.Fatalf("static singleton name %q", got.Name)
	}
	if got.Digest() == machine.GALS().Digest() {
		t.Fatal("static singletons must not collapse onto gals")
	}
	if err := got.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestGenomeSpecsValidate(t *testing.T) {
	spaces := []SpaceSpec{
		SpaceSpec{}.canonical(),
		SpaceSpec{DVFS: true}.canonical(),
		SpaceSpec{DVFS: true, FrequenciesGHz: []float64{0.5, 1, 2},
			LinkDepths: []int{8}, SyncEdges: []int{1, 4}}.canonical(),
	}
	for si, space := range spaces {
		r := newRng(int64(si + 1))
		for i := 0; i < 200; i++ {
			g := randomGenome(r, space)
			ms := g.spec(space)
			if err := ms.Validate(); err != nil {
				t.Fatalf("space %d: random genome %v builds invalid spec %q: %v", si, g, ms.Name, err)
			}
			m := mutate(r, g, space)
			if err := m.spec(space).Validate(); err != nil {
				t.Fatalf("space %d: mutant invalid: %v", si, err)
			}
			c := crossover(r, g, galsGenome(space), space)
			if err := c.spec(space).Validate(); err != nil {
				t.Fatalf("space %d: crossover child invalid: %v", si, err)
			}
		}
	}
}

func TestNeighborsExcludeSelfAndDuplicates(t *testing.T) {
	space := SpaceSpec{DVFS: true, FrequenciesGHz: []float64{0.5, 1}}.canonical()
	for _, g := range []genome{galsGenome(space), baseGenome(space)} {
		nb := neighbors(g, space)
		if len(nb) == 0 {
			t.Fatal("no neighbors")
		}
		seen := map[string]bool{g.key(): true}
		for _, n := range nb {
			if seen[n.key()] {
				t.Fatalf("duplicate or self neighbor %q", n.key())
			}
			seen[n.key()] = true
		}
	}
}

func TestGridIterMatchesGridSize(t *testing.T) {
	spaces := []SpaceSpec{
		SpaceSpec{}.canonical(),
		SpaceSpec{DVFS: true}.canonical(),
		SpaceSpec{FrequenciesGHz: []float64{0.8, 1}, SyncEdges: []int{4}}.canonical(),
	}
	for si, space := range spaces {
		want := gridSize(space)
		if want <= 0 {
			t.Fatalf("space %d: gridSize %d", si, want)
		}
		it := newGridIter(space)
		seen := map[string]bool{}
		for {
			g, ok := it.next()
			if !ok {
				break
			}
			key := g.key()
			if seen[key] {
				t.Fatalf("space %d: grid revisits %q", si, key)
			}
			seen[key] = true
			if err := g.spec(space).Validate(); err != nil {
				t.Fatalf("space %d: grid genome invalid: %v", si, err)
			}
		}
		if len(seen) != want {
			t.Fatalf("space %d: grid enumerated %d genomes, gridSize says %d", si, len(seen), want)
		}
	}
	// The default space is exactly the 52 set partitions of 5 structures.
	if got := gridSize(SpaceSpec{}.canonical()); got != 52 {
		t.Fatalf("default grid space = %d, want 52", got)
	}
}

func TestParetoRanks(t *testing.T) {
	pts := [][]float64{
		{1, 1},     // rank 2: below {0.6,1.0}, itself below the frontier
		{0.5, 0.9}, // frontier
		{0.9, 0.5}, // frontier
		{0.6, 1.0}, // rank 1: dominated by {0.5,0.9} only
		{0.7, 0.7}, // frontier (incomparable with both)
		{1.1, 1.1}, // rank 3: end of the {0.5,0.9}≺{0.6,1}≺{1,1} chain
	}
	ranks := paretoRanks(pts)
	want := []int{2, 0, 0, 1, 0, 3}
	for i := range want {
		if ranks[i] != want[i] {
			t.Fatalf("ranks = %v, want %v", ranks, want)
		}
	}
}

func TestScalarizeWeights(t *testing.T) {
	rel := []float64{2, 1}
	if got := scalarize(rel, []float64{1, 1}); got != 1.5 {
		t.Fatalf("scalarize = %v", got)
	}
	if got := scalarize(rel, []float64{3, 1}); got != 1.75 {
		t.Fatalf("weighted scalarize = %v", got)
	}
}

// TestFrontierValidity runs a small real search and checks the acceptance
// property: the frontier is a valid Pareto front (no frontier point
// dominated by any evaluated point), every point carries its provenance
// digest, and frontier points carry runnable machine specs.
func TestFrontierValidity(t *testing.T) {
	spec := SearchSpec{
		Seed:         11,
		Strategy:     StrategyEvolutionary,
		Workloads:    []string{"gcc"},
		Instructions: 2000,
		Budget:       BudgetSpec{Population: 6, MaxGenerations: 3},
	}
	x := &Explorer{Evaluator: BackendEvaluator{Backend: campaign.NewEngine(4)}, Metrics: telemetry.NewRegistry()}
	res, err := x.Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Frontier) == 0 {
		t.Fatal("empty frontier")
	}
	for _, f := range res.Frontier {
		if f.Rank != 0 {
			t.Fatalf("frontier point %s has rank %d", f.MachineName, f.Rank)
		}
		if f.Machine == nil {
			t.Fatalf("frontier point %s has no machine spec", f.MachineName)
		}
		if err := f.Machine.Validate(); err != nil {
			t.Fatalf("frontier machine %s invalid: %v", f.MachineName, err)
		}
		if f.Machine.Digest() != f.MachineDigest {
			t.Fatalf("frontier point %s digest mismatch", f.MachineName)
		}
		for _, p := range res.Points {
			if dominates(p.rel, f.rel) {
				t.Fatalf("frontier point %s dominated by %s", f.MachineName, p.MachineName)
			}
		}
	}
	for _, p := range res.Points {
		if len(p.MachineDigest) != 64 || p.MachineName == "" {
			t.Fatalf("point missing provenance: %+v", p)
		}
	}
	if res.Best.Fitness > res.Points[0].Fitness {
		t.Fatal("best is not minimal")
	}
	if res.Exec.Units == 0 {
		t.Fatal("no exec units recorded")
	}
}

// TestStrategiesProposeAndConverge exercises every strategy end to end on
// a tiny budget and checks strategy-specific termination behavior.
func TestStrategiesProposeAndConverge(t *testing.T) {
	eng := campaign.NewEngine(4)
	for _, strat := range StrategyNames() {
		spec := SearchSpec{
			Seed:         5,
			Strategy:     strat,
			Workloads:    []string{"gcc"},
			Instructions: 1000,
			Budget:       BudgetSpec{Population: 8, MaxGenerations: 2},
		}
		x := &Explorer{Evaluator: BackendEvaluator{Backend: eng}}
		res, err := x.Run(context.Background(), spec)
		if err != nil {
			t.Fatalf("%s: %v", strat, err)
		}
		if res.Evaluations == 0 || len(res.Frontier) == 0 {
			t.Fatalf("%s: empty result", strat)
		}
	}
	// Grid over the default space exhausts after 52 evaluations and says so.
	spec := SearchSpec{
		Seed: 1, Strategy: StrategyGrid, Workloads: []string{"gcc"}, Instructions: 1000,
		Budget: BudgetSpec{Population: 30, MaxGenerations: 10},
	}
	x := &Explorer{Evaluator: BackendEvaluator{Backend: eng}}
	res, err := x.Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Exhausted || res.Evaluations != 52 || len(res.Points) != 52 {
		t.Fatalf("grid: exhausted=%v evaluations=%d points=%d, want true/52/52",
			res.Exhausted, res.Evaluations, len(res.Points))
	}
}

// TestCandidateNamesFitMachineCap: every generated name must satisfy the
// machine-spec name validation even with a gene-digest suffix.
func TestCandidateNamesFitMachineCap(t *testing.T) {
	space := SpaceSpec{DVFS: true, FrequenciesGHz: []float64{0.5, 1, 2},
		LinkDepths: []int{32}, SyncEdges: []int{4}}.canonical()
	r := newRng(99)
	for i := 0; i < 500; i++ {
		g := randomGenome(r, space)
		ms := g.spec(space)
		if len(ms.Name) > 64 {
			t.Fatalf("name too long: %q", ms.Name)
		}
		if strings.Contains(ms.Name, " ") {
			t.Fatalf("name has spaces: %q", ms.Name)
		}
	}
}
