// Package dirca (DIRectional Collision Avoidance) is the public API of
// this reproduction of "Collision Avoidance in Single-Channel Ad Hoc
// Networks Using Directional Antennas" (Wang & Garcia-Luna-Aceves,
// ICDCS 2003).
//
// It exposes two entry points:
//
//   - The analytical model (Section 2 of the paper): saturation
//     throughput of the ORTS-OCTS, DRTS-DCTS and DRTS-OCTS
//     collision-avoidance schemes on a Poisson plane of nodes, via
//     Throughput, MaxThroughput and Fig5Table.
//
//   - The discrete-event simulator (Section 4): a full IEEE 802.11 DCF
//     implementation with directional-transmission variants on the
//     paper's concentric-ring topologies, via Simulate, SimulateBatch and
//     SimulateGrid. A run is described by a Scenario, the same JSON
//     form the netsim and simd tools read.
//
// A minimal session:
//
//	p, th, _ := dirca.MaxThroughput(dirca.DRTSDCTS, dirca.ModelParams{
//		N: 5, Beamwidth: math.Pi / 6, Lengths: dirca.PaperLengths(),
//	})
//	res, _ := dirca.Simulate(dirca.Scenario{
//		Scheme:       dirca.DRTSDCTS.String(),
//		BeamwidthDeg: 30,
//		Seed:         1,
//		Duration:     dirca.Duration(5 * dirca.Second),
//		Topology:     dirca.TopologySpec{N: 5},
//	})
package dirca

import (
	"repro/internal/core"
	"repro/internal/des"
	"repro/internal/experiments"
	"repro/internal/sim"
)

// Scheme identifies a collision-avoidance scheme.
type Scheme = core.Scheme

// The three schemes analyzed in the paper.
const (
	// ORTSOCTS transmits every frame omni-directionally (standard
	// IEEE 802.11 collision avoidance).
	ORTSOCTS = core.ORTSOCTS
	// DRTSDCTS transmits every frame directionally.
	DRTSDCTS = core.DRTSDCTS
	// DRTSOCTS transmits RTS/DATA/ACK directionally and the CTS
	// omni-directionally.
	DRTSOCTS = core.DRTSOCTS
)

// Schemes returns all three schemes in the paper's order.
func Schemes() []Scheme { return core.Schemes() }

// Time is a simulation duration in nanoseconds.
type Time = des.Time

// Convenient duration units.
const (
	Microsecond = des.Microsecond
	Millisecond = des.Millisecond
	Second      = des.Second
)

// ModelParams parameterizes the analytical model: density N (average
// nodes per coverage disk), beamwidth in radians, and the packet lengths
// in slots.
type ModelParams = core.Params

// Lengths holds analytical packet lengths in slots.
type Lengths = core.Lengths

// PaperLengths returns the Section 3 configuration: 5-slot control
// packets and 100-slot data packets.
func PaperLengths() Lengths { return core.PaperLengths() }

// Throughput returns the normalized saturation throughput of scheme s at
// per-slot attempt probability p.
func Throughput(s Scheme, p float64, mp ModelParams) (float64, error) {
	return core.Throughput(s, p, mp)
}

// MaxThroughput returns the attempt probability maximizing throughput and
// the achieved maximum. Pass pMax = 0 for the default search bound.
func MaxThroughput(s Scheme, mp ModelParams, pMax float64) (bestP, bestTh float64, err error) {
	return core.MaxThroughput(s, mp, pMax)
}

// Fig5Row is one analytical beamwidth point (all three schemes).
type Fig5Row = experiments.Fig5Row

// Fig5Table computes the paper's Fig. 5 sweep (max throughput vs
// beamwidth, 15°..180°) for each density in ns.
func Fig5Table(ns []float64) ([]Fig5Row, error) { return experiments.Fig5(ns) }

// Scenario describes one simulation run: Scheme names the scheme (its
// String form), Topology.N is the density, and the zero traffic section
// means saturated sources with the paper's 1460-byte packets. See the
// field documentation in internal/sim.
type Scenario = sim.Scenario

// Duration is a simulation duration that serializes as a Go duration
// string; convert a Time with Duration(t).
type Duration = sim.Duration

// TopologySpec selects the node placement; N is the paper's density.
type TopologySpec = sim.TopologySpec

// MobilitySpec animates node positions (kind "waypoint").
type MobilitySpec = sim.MobilitySpec

// SimResult holds per-run metrics for the measured inner nodes.
type SimResult = experiments.SimResult

// BatchResult aggregates a configuration over many random topologies.
type BatchResult = experiments.BatchResult

// GridCell is one point of a Fig. 6/7-style parameter sweep.
type GridCell = experiments.GridCell

// Simulate runs one complete simulation (topology generation, PHY, MAC,
// saturated traffic) and reports inner-node metrics.
func Simulate(sc Scenario) (*SimResult, error) { return sim.RunScenario(sc, sim.Options{}) }

// SimulateBatch runs sc over the given number of independent random
// topologies in parallel and aggregates the per-topology means.
func SimulateBatch(sc Scenario, topologies int) (*BatchResult, error) {
	return experiments.RunBatch(sim.Runner{}, sc, topologies)
}

// SimulateGrid sweeps scheme × N × beamwidth, mirroring the paper's
// Figs. 6 and 7.
func SimulateGrid(base Scenario, schemes []Scheme, ns []int, beamsDeg []float64, topologies int) ([]GridCell, error) {
	return experiments.RunGrid(sim.Runner{}, base, schemes, ns, beamsDeg, topologies)
}

// PaperGrid returns the paper's simulation sweep: N ∈ {3,5,8},
// beamwidth ∈ {30°, 90°, 150°}.
func PaperGrid() (ns []int, beamsDeg []float64) { return experiments.PaperGrid() }
