package explore

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"

	"galsim/internal/campaign"
)

// runSearch executes spec on a fresh engine with the given worker count
// and returns the marshaled Result — the artifact the determinism
// contract covers.
func runSearch(t *testing.T, spec SearchSpec, workers int) []byte {
	t.Helper()
	x := &Explorer{Evaluator: BackendEvaluator{Backend: campaign.NewEngine(workers)}}
	res, err := x.Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestSeedDeterminismAcrossWorkers: the same spec and seed must produce a
// byte-identical frontier no matter how many workers score a generation —
// merge order is by unit index, never completion order, and the explorer
// adds no timing dependence of its own.
func TestSeedDeterminismAcrossWorkers(t *testing.T) {
	for _, strat := range []string{StrategyEvolutionary, StrategyHillClimb} {
		spec := SearchSpec{
			Seed:         42,
			Strategy:     strat,
			Workloads:    []string{"gcc", "swim"},
			Instructions: 2000,
			Space:        SpaceSpec{DVFS: true},
			Budget:       BudgetSpec{Population: 5, MaxGenerations: 3},
		}
		ref := runSearch(t, spec, 1)
		for _, workers := range []int{4, 8} {
			if got := runSearch(t, spec, workers); !bytes.Equal(got, ref) {
				t.Fatalf("%s: result with %d workers differs from serial reference", strat, workers)
			}
		}
	}
}

// TestSeedDeterminismRepeatable: same engine, same spec, run twice —
// the second run is served almost entirely from cache yet must produce
// the same bytes.
func TestSeedDeterminismRepeatable(t *testing.T) {
	eng := campaign.NewEngine(4)
	spec := SearchSpec{
		Seed:         9,
		Strategy:     StrategyRandom,
		Workloads:    []string{"gcc"},
		Instructions: 2000,
		Budget:       BudgetSpec{Population: 6, MaxGenerations: 2},
	}
	x := &Explorer{Evaluator: BackendEvaluator{Backend: eng}}
	first, err := x.Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	second, err := x.Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	b1, _ := json.Marshal(first)
	b2, _ := json.Marshal(second)
	if !bytes.Equal(b1, b2) {
		t.Fatal("repeat run differs")
	}
	if second.Exec.CacheHits == 0 {
		t.Fatal("repeat run hit no cache")
	}
}

// TestSeedsActuallyDiffer: distinct seeds must explore distinct
// trajectories (otherwise the seed plumbing is dead code).
func TestSeedsActuallyDiffer(t *testing.T) {
	eng := campaign.NewEngine(4)
	run := func(seed int64) *Result {
		x := &Explorer{Evaluator: BackendEvaluator{Backend: eng}}
		res, err := x.Run(context.Background(), SearchSpec{
			Seed:         seed,
			Strategy:     StrategyRandom,
			Workloads:    []string{"gcc"},
			Instructions: 1000,
			Budget:       BudgetSpec{Population: 6, MaxGenerations: 2},
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(1), run(2)
	digests := func(r *Result) map[string]bool {
		out := map[string]bool{}
		for _, p := range r.Points {
			out[p.MachineDigest] = true
		}
		return out
	}
	da, db := digests(a), digests(b)
	same := true
	for d := range da {
		if !db[d] {
			same = false
		}
	}
	if same && len(da) == len(db) {
		t.Fatal("seeds 1 and 2 explored identical design sets")
	}
}
