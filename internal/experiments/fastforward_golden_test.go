package experiments

// Fast-forward equivalence tests. The analytic idle-time skip
// (mac.Config.FastForward, DESIGN.md §12) is a pure performance switch:
// bulk backoff countdowns plus residual settlement must reproduce the
// slot-by-slot kernel bit for bit. Two layers of enforcement:
//
//  1. The kernel-determinism goldens re-run with fast-forward enabled
//     against the SAME golden files — no separate fast-forward goldens
//     exist, because the results are not allowed to differ.
//  2. A differential property sweep runs randomized small scenarios
//     with the switch on and off and compares canonical Result JSON.
//
// Both repeat with 10 ms telemetry sampling: telemetry ticks are ACTIVE
// kernel events, so sampling instants (and what the probes observe at
// them) are pinned regardless of how the clock advanced between ticks.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/des"
	"repro/internal/geom"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

func TestKernelDeterminismGoldenFastForward(t *testing.T) {
	for name, sc := range goldenCases() {
		if sc.PHY.NAVOracle {
			// sim.Validate rejects fastforward+navOracle up front (the
			// oracle interrupts countdowns mid-slot, so mac.New would
			// silently fall back to slot-by-slot operation anyway); the
			// plain golden run still covers the oracle configuration.
			continue
		}
		for _, tel := range []bool{false, true} {
			sc := sc
			sc.FastForward = true
			var opts sim.Options
			sub := name
			if tel {
				sc.Telemetry.Interval = sim.Duration(10 * des.Millisecond)
				opts.Telemetry = telemetry.Discard{}
				sub += "_telemetry"
			}
			t.Run(sub, func(t *testing.T) {
				t.Parallel()
				res, err := sim.RunScenario(sc, opts)
				if err != nil {
					t.Fatal(err)
				}
				got := canonicalJSON(t, res)
				path := filepath.Join("testdata", fmt.Sprintf("golden_%s.json", name))
				want, err := os.ReadFile(path)
				if err != nil {
					t.Fatalf("missing golden (generate via TestKernelDeterminismGolden with UPDATE_GOLDEN=1): %v", err)
				}
				if !bytes.Equal(got, want) {
					t.Errorf("fast-forward diverged from golden %s\n"+
						"the analytic jump must be bit-identical to slot-by-slot operation", path)
				}
			})
		}
	}
}

// TestFastForwardDifferential cross-checks fast-forward on/off over a
// randomized family of small scenarios: every scheme, sparse CBR and
// saturated traffic, mobility, SINR, basic access, EIFS off — seeds and
// knobs varied deterministically so failures reproduce.
func TestFastForwardDifferential(t *testing.T) {
	schemes := []core.Scheme{core.DRTSDCTS, core.DRTSOCTS, core.ORTSOCTS, core.ORTSDCTS}
	for i := 0; i < 12; i++ {
		i := i
		t.Run(fmt.Sprintf("case%02d", i), func(t *testing.T) {
			t.Parallel()
			sc := gridScenario(sim.Scenario{Seed: int64(100 + 13*i), Duration: sim.Duration(60 * des.Millisecond)},
				schemes[i%len(schemes)], 2+i%4, []float64{30, 90, 150}[i%3])
			var opts sim.Options
			switch i % 4 {
			case 1:
				sc.Traffic = sim.TrafficSpec{Kind: "cbr", OfferedLoadBps: 50_000} // sparse: long dead-air stretches
			case 2:
				sc.Mobility = sim.MobilitySpec{Kind: "waypoint", MaxSpeed: 0.5, RefreshInterval: sim.Duration(20 * des.Millisecond)}
				sc.Traffic = sim.TrafficSpec{Kind: "cbr", OfferedLoadBps: 200_000}
			case 3:
				sc.PHY.SINR = true
				sc.Ablations.BasicAccess = i%2 == 1
			}
			if i%5 == 0 {
				sc.Ablations.DisableEIFS = true
			}
			if i%6 == 3 {
				sc.Telemetry.Interval = sim.Duration(5 * des.Millisecond)
				opts.Telemetry = telemetry.Discard{}
			}
			off, err := sim.RunScenario(sc, opts)
			if err != nil {
				t.Fatal(err)
			}
			sc.FastForward = true
			on, err := sim.RunScenario(sc, opts)
			if err != nil {
				t.Fatal(err)
			}
			if gotOn, gotOff := canonicalJSON(t, on), canonicalJSON(t, off); !bytes.Equal(gotOn, gotOff) {
				t.Errorf("fast-forward on/off diverged for %+v", sc)
			}
		})
	}
}

// TestFastForwardDifferentialSparsePair stresses the jump machinery
// where it engages hardest: a two-node explicit topology under waypoint
// mobility with a 1 s refresh interval, so stale bearings drive CTS
// timeouts, the contention window ratchets to CWMax, and nearly every
// countdown runs as a bulk jump over dead air (the fast-forward path
// skips >90% of kernel events here — see BenchmarkSimulationSecondSparse).
func TestFastForwardDifferentialSparsePair(t *testing.T) {
	for _, seed := range []int64{1, 7, 23, 41} {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			sc := sim.Scenario{
				Scheme: "DRTS-DCTS", BeamwidthDeg: 30, Seed: seed,
				Duration: sim.Duration(300 * des.Millisecond),
				Topology: sim.TopologySpec{Kind: "explicit", N: 2,
					Positions: []geom.Point{{X: 0, Y: 0}, {X: 0.5, Y: 0}}},
				Traffic:  sim.TrafficSpec{Kind: "cbr", OfferedLoadBps: 500_000},
				Mobility: sim.MobilitySpec{Kind: "waypoint", MaxSpeed: 2, RefreshInterval: sim.Duration(des.Second)},
			}
			var out [2][]byte
			for i, ff := range []bool{false, true} {
				sc.FastForward = ff
				res, err := sim.RunScenario(sc, sim.Options{})
				if err != nil {
					t.Fatal(err)
				}
				b, err := json.Marshal(res)
				if err != nil {
					t.Fatal(err)
				}
				out[i] = b
			}
			if !bytes.Equal(out[0], out[1]) {
				t.Errorf("fast-forward on/off diverged for sparse pair seed %d", seed)
			}
		})
	}
}
