package cluster

import (
	"bytes"
	"context"
	"testing"
	"time"

	"galsim/internal/campaign"
	"galsim/internal/machine"
)

// triMachine is the user-authored 3-domain partitioning the acceptance
// criteria run end to end: merged front end, merged int+fp execution
// cluster, memory system alone.
func triMachine() machine.Spec {
	return machine.Spec{
		Name: "tri",
		Domains: []machine.DomainSpec{
			{Name: "front"},
			{Name: "exec", DVFS: machine.PolicyDynamic},
			{Name: "memsys"},
		},
		Assign: map[string]string{
			"fetch": "front", "decode": "front",
			"int": "exec", "fp": "exec",
			"mem": "memsys",
		},
	}
}

// TestFleetRunsCustomMachine: a sweep over a user-defined 3-domain
// MachineSpec (crossed with the built-in base reference) executed by a
// 3-worker fleet is byte-identical to serial execution, and the canonical
// specs inside the jobs keep cache keys stable fleet-wide.
func TestFleetRunsCustomMachine(t *testing.T) {
	sweep := campaign.Sweep{
		Benchmarks:   []string{"gcc", "swim"},
		Machines:     []string{"base"},
		MachineSpecs: []machine.Spec{triMachine()},
		SlowdownGrid: []map[string]float64{nil, {"exec": 1.5}, {"memsys": 2}},
		Instructions: 5_000,
	}
	units, stats, serial := serialReference(t, sweep)

	f := startFleet(t, Config{LeaseTTL: 5 * time.Second, MaxAttempts: 3}, 3, 1)
	got, err := f.coord.RunAll(context.Background(), units)
	if err != nil {
		t.Fatal(err)
	}
	for i := range stats {
		want := mustJSON(t, stats[i])
		have := mustJSON(t, got[i])
		if !bytes.Equal(want, have) {
			t.Fatalf("fleet unit %d (%s/%s) diverged from serial execution",
				i, units[i].MachineName(), units[i].WorkloadName())
		}
	}

	fleetResults, err := campaign.RunSweep(context.Background(), f.coord, sweep, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(mustJSON(t, fleetResults), mustJSON(t, serial)) {
		t.Fatal("aggregated fleet results differ from serial aggregation")
	}

	// The tri machine travels as a canonical inline spec; the base units
	// keep the classic name-keyed identity.
	seenTri, seenBase := false, false
	for _, r := range fleetResults {
		switch r.Summary.Machine {
		case "tri":
			seenTri = true
			if r.Spec.MachineSpec == nil || r.Spec.MachineSpec.Digest() != triMachine().Digest() {
				t.Errorf("tri unit lost its topology in flight: %+v", r.Spec)
			}
		case "base":
			seenBase = true
			if r.Spec.MachineSpec != nil || r.Spec.Machine != "base" {
				t.Errorf("base unit gained an inline spec: %+v", r.Spec)
			}
		}
	}
	if !seenTri || !seenBase {
		t.Fatalf("machine axis incomplete: tri=%v base=%v", seenTri, seenBase)
	}

	// Re-running the same sweep returns byte-identical results, and no
	// worker ever simulates one content address twice — the custom
	// machine's cache key is stable across dispatches. (A repeat job may
	// land on a *different* worker than the first run, so the fleet-wide
	// miss total can legitimately grow; per-worker misses are bounded by
	// the number of distinct keys.)
	again, err := campaign.RunSweep(context.Background(), f.coord, sweep, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(mustJSON(t, again), mustJSON(t, fleetResults)) {
		t.Fatal("repeat sweep returned different bytes")
	}
	distinct := map[string]bool{}
	for _, u := range units {
		distinct[u.Key()] = true
	}
	for i, e := range f.engines {
		if m := int(e.Stats().Misses); m > len(distinct) {
			t.Errorf("worker %d simulated %d units for %d distinct keys", i, m, len(distinct))
		}
	}
}
