// Package experiments assembles complete simulation runs and regenerates
// every table and figure of the paper's evaluation: the analytical Fig. 5
// curves, the simulated throughput (Fig. 6) and delay (Fig. 7)
// comparisons, and the collision-ratio and fairness statistics that the
// paper describes but omits for space.
//
// A run is described by one type, sim.Scenario, and executed by a
// sim.Runner. Every study takes a base scenario, overwrites the fields it
// sweeps (scheme, N, beamwidth, load, speed) per cell, and hands each cell
// to the runner, so flag-driven tools, scenario files and the cache all
// see the same bytes.
package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/stats"
)

// SimResult holds the per-run metrics for the measured inner nodes; it is
// internal/sim's Result under the package's historical name.
type SimResult = sim.Result

// BatchResult aggregates one (scheme, N, beamwidth) cell over many random
// topologies, mirroring the paper's mean + vertical range presentation.
type BatchResult struct {
	// ThroughputBps summarizes the per-topology mean inner-node goodput.
	ThroughputBps stats.Summary
	// DelaySec summarizes the per-topology mean service delay.
	DelaySec stats.Summary
	// CollisionRatio summarizes the per-topology mean collision ratio.
	CollisionRatio stats.Summary
	// Jain summarizes the per-topology fairness index.
	Jain stats.Summary
	// Runs is the number of topologies aggregated.
	Runs int
}

// AggregateBatch folds per-shard results (in shard order) into the
// paper's mean + range presentation.
func AggregateBatch(results []*SimResult) *BatchResult {
	var out BatchResult
	var th, dl, cr, jn stats.Stream
	for _, r := range results {
		th.Add(r.MeanThroughputBps())
		dl.Add(r.MeanDelaySec())
		cr.Add(r.MeanCollisionRatio())
		jn.Add(r.Jain)
	}
	out.ThroughputBps = th.Summarize()
	out.DelaySec = dl.Summarize()
	out.CollisionRatio = cr.Summarize()
	out.Jain = jn.Summarize()
	out.Runs = len(results)
	return &out
}

// RunBatch runs base over `topologies` independent random topologies
// (sim.Shard seeds base.Seed, base.Seed+1, ...) on r's bounded worker
// pool and aggregates the per-topology means. Errors are deterministic:
// the lowest-indexed failing shard decides the returned error regardless
// of goroutine scheduling.
func RunBatch(r sim.Runner, base sim.Scenario, topologies int) (*BatchResult, error) {
	results, err := r.Run(base, topologies)
	if err != nil {
		return nil, err
	}
	return AggregateBatch(results), nil
}

// GridCell is one point of the paper's Fig. 6/7 sweep.
type GridCell struct {
	Scheme       core.Scheme
	N            int
	BeamwidthDeg float64
	Batch        *BatchResult
}

// PaperGrid returns the paper's simulation sweep: N ∈ {3, 5, 8} and
// beamwidth ∈ {30°, 90°, 150°}.
func PaperGrid() (ns []int, beamsDeg []float64) {
	return []int{3, 5, 8}, []float64{30, 90, 150}
}

// gridScenario is base with one grid cell's scheme, density and
// beamwidth filled in.
func gridScenario(base sim.Scenario, s core.Scheme, n int, beamDeg float64) sim.Scenario {
	sc := base
	sc.Scheme = s.String()
	sc.Topology.N = n
	sc.BeamwidthDeg = beamDeg
	return sc
}

// RunGrid evaluates every (scheme, N, beamwidth) combination over the
// given number of topologies. Base supplies Duration, Seed and ablation
// switches. ORTS-OCTS ignores beamwidth but is run once per beamwidth for
// table alignment (its results differ only by random stream).
func RunGrid(r sim.Runner, base sim.Scenario, schemes []core.Scheme, ns []int, beamsDeg []float64, topologies int) ([]GridCell, error) {
	return runGrid(r, base, schemes, ns, beamsDeg, topologies, nil)
}

// runGrid is RunGrid skipping the cells in skip.
func runGrid(r sim.Runner, base sim.Scenario, schemes []core.Scheme, ns []int, beamsDeg []float64, topologies int, skip map[gridKey]bool) ([]GridCell, error) {
	var cells []GridCell
	for _, n := range ns {
		for _, beam := range beamsDeg {
			for _, s := range schemes {
				if skip[gridKey{s, n, beam}] {
					continue
				}
				batch, err := RunBatch(r, gridScenario(base, s, n, beam), topologies)
				if err != nil {
					return nil, fmt.Errorf("grid cell %v N=%d θ=%v: %w", s, n, beam, err)
				}
				cells = append(cells, GridCell{Scheme: s, N: n, BeamwidthDeg: beam, Batch: batch})
			}
		}
	}
	return cells, nil
}
