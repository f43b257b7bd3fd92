package dirca

import (
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/sim"
)

// This file exposes the extension studies that go beyond the paper's
// artifacts: the fourth scheme, sensitivity/validation sweeps, and the
// load/mobility studies.

// ORTSDCTS is the fourth RTS/CTS combination (omni RTS, directional
// CTS/DATA/ACK), not analyzed in the paper but derivable with its
// machinery; both model and simulator support it. It is dominated by
// ORTSOCTS everywhere — see EXPERIMENTS.md.
const ORTSDCTS = core.ORTSDCTS

// AllSchemes lists the paper's three schemes plus ORTSDCTS.
func AllSchemes() []Scheme { return core.AllSchemes() }

// ParseScheme converts a scheme name ("DRTS-DCTS", "orts_octs", ...) to
// its Scheme value.
func ParseScheme(s string) (Scheme, error) { return core.ParseScheme(s) }

// AttemptProbability solves the fixed point p = p₀·(1−p)·e^{−pN} linking
// the paper's free parameter p (per-slot attempt probability) to the
// readiness probability p₀ a protocol actually controls.
func AttemptProbability(p0, n float64) (float64, error) {
	return core.AttemptProbability(p0, n)
}

// ThroughputFromReadiness evaluates scheme throughput at the attempt
// probability induced by readiness p₀.
func ThroughputFromReadiness(s Scheme, p0 float64, mp ModelParams) (float64, error) {
	return core.ThroughputFromReadiness(s, p0, mp)
}

// Fig5Sensitivity computes the analytical beamwidth sweep for alternative
// data-packet lengths, keyed by length.
func Fig5Sensitivity(n float64, dataLens []int) (map[int][]Fig5Row, error) {
	return experiments.Fig5Sensitivity(n, dataLens)
}

// LoadCell is one offered-load sweep point.
type LoadCell = experiments.LoadCell

// LoadSweep sweeps per-node offered CBR load for each scheme.
func LoadSweep(base Scenario, schemes []Scheme, loadsBps []float64, topologies int) ([]LoadCell, error) {
	return experiments.LoadSweep(sim.Runner{}, base, schemes, loadsBps, topologies)
}

// MobilityCell is one mobility sweep point.
type MobilityCell = experiments.MobilityCell

// MobilitySweep sweeps maximum node speed for each scheme under
// random-waypoint motion with bounded location staleness.
func MobilitySweep(base Scenario, schemes []Scheme, speeds []float64, topologies int) ([]MobilityCell, error) {
	return experiments.MobilitySweep(sim.Runner{}, base, schemes, speeds, topologies)
}

// ModelVsSimRow compares analytical and simulated normalized throughput
// at one grid point.
type ModelVsSimRow = experiments.ModelVsSimRow

// ModelVsSim evaluates the analytical model and the simulator on the
// same grid, using the simulator's real frame timings for the model.
func ModelVsSim(base Scenario, ns []int, beamsDeg []float64, topologies int) ([]ModelVsSimRow, error) {
	return experiments.ModelVsSim(sim.Runner{}, base, ns, beamsDeg, topologies)
}

// SpearmanRank measures ordering agreement between the analytical and
// simulated columns of a ModelVsSim table.
func SpearmanRank(rows []ModelVsSimRow) float64 {
	return experiments.SpearmanRank(rows)
}

// ReuseCell is one spatial-reuse study point.
type ReuseCell = experiments.ReuseCell

// ReuseStudy measures the concurrent-airtime factor across schemes and
// beamwidths — the paper's spatial-reuse mechanism quantified directly.
func ReuseStudy(base Scenario, schemes []Scheme, n int, beamsDeg []float64, topologies int) ([]ReuseCell, error) {
	return experiments.ReuseStudy(sim.Runner{}, base, schemes, n, beamsDeg, topologies)
}

// DelayCDFRow is one percentile row of a delay-distribution comparison.
type DelayCDFRow = experiments.DelayCDFRow

// DelayCDF tabulates per-packet delay percentiles per scheme.
func DelayCDF(base Scenario, schemes []Scheme, percentiles []float64) ([]DelayCDFRow, error) {
	return experiments.DelayCDF(sim.Runner{}, base, schemes, percentiles)
}
