package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"

	"galsim/internal/campaign"
	"galsim/internal/experiments"
	"galsim/internal/pipeline"
	"galsim/internal/workload"
)

// Output checks. Each returns nil when the output is right; a failure makes
// the run report correct=false.

// checkIdentical requires a repetition's output to equal the first one's
// byte for byte: the simulator is deterministic.
func checkIdentical(what string, first, got []byte) error {
	if !bytes.Equal(first, got) {
		return fmt.Errorf("%s differs between repetitions of one seed", what)
	}
	return nil
}

// checkUnit requires a completed unit to commit its budget and its energy
// breakdown to sum to its total energy.
func checkUnit(budget uint64, st pipeline.Stats) error {
	if st.Committed != budget {
		return fmt.Errorf("unit %s/%v committed %d of %d instructions", st.Benchmark, st.Kind, st.Committed, budget)
	}
	var e float64
	for _, b := range st.EnergyBreakdown {
		e += b
	}
	if math.Abs(e-st.EnergyPJ) > 1e-9*math.Abs(st.EnergyPJ) {
		return fmt.Errorf("unit %s/%v: energy breakdown sums to %g pJ, total is %g pJ", st.Benchmark, st.Kind, e, st.EnergyPJ)
	}
	return nil
}

// checkCommitted requires a unit summary returned over HTTP to commit its
// budget.
func checkCommitted(budget uint64, s campaign.Summary) error {
	if s.Committed != budget {
		return fmt.Errorf("unit %s/%s committed %d of %d instructions", s.Machine, s.Benchmark, s.Committed, budget)
	}
	return nil
}

// checkSameSummary requires the summary a fleet returned to equal, byte for
// byte, the summary of an in-process execution of the same unit.
func checkSameSummary(remote json.RawMessage, spec campaign.RunSpec, local pipeline.Stats) error {
	want, err := json.Marshal(campaign.Summarize(spec, local))
	if err != nil {
		return err
	}
	var got bytes.Buffer
	if err := json.Compact(&got, remote); err != nil {
		return fmt.Errorf("fleet summary is not JSON: %w", err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		return fmt.Errorf("fleet result for %s/%s differs from in-process campaign.Execute:\n fleet %s\n local %s",
			spec.MachineName(), spec.WorkloadName(), got.Bytes(), want)
	}
	return nil
}

// checkErrorBody requires a failed request to answer with a JSON error body.
func checkErrorBody(status int, body []byte) error {
	var e struct {
		Error string `json:"error"`
	}
	if err := json.Unmarshal(body, &e); err != nil || e.Error == "" {
		return fmt.Errorf("HTTP %d without an error body: %.200q", status, body)
	}
	return nil
}

// paperRef places a simulated figure beside the value the paper reports.
type paperRef struct {
	Figure    string  `json:"figure"`
	Simulated float64 `json:"simulated"`
	Paper     string  `json:"paper"`
}

// paperReference computes the corpus averages the paper quotes for Figures
// 5, 6, 8 and 9.
func paperReference(c *experiments.Corpus) []paperRef {
	var perf, slip, energy, power, misB, misG float64
	var n, nInt float64
	isInt := map[string]bool{}
	for _, b := range workload.IntegerBenchmarks() {
		isInt[b] = true
	}
	for _, b := range c.Benchmarks() {
		p := c.Pair(b)
		perf += p.RelPerformance()
		slip += float64(p.GALS.AvgSlip()) / float64(p.Base.AvgSlip())
		energy += p.RelEnergy()
		power += p.RelPower()
		n++
		if isInt[b] {
			misB += p.Base.MisspeculationFrac()
			misG += p.GALS.MisspeculationFrac()
			nInt++
		}
	}
	return []paperRef{
		{"fig5.relative_performance", perf / n, "~0.90"},
		{"fig6.slip_ratio", slip / n, "~1.65"},
		{"fig8.int_misspeculation_base", ratio(misB, nInt), "0.138"},
		{"fig8.int_misspeculation_gals", ratio(misG, nInt), "0.167"},
		{"fig9.relative_energy", energy / n, "~1.01 (+1%)"},
		{"fig9.relative_power", power / n, "~0.90 (-10%)"},
	}
}
