package repro

// One benchmark per table/figure of the paper, plus the ablation benches
// called out in DESIGN.md and micro-benchmarks of the hot substrates.
//
// Figure/table benches run reduced-scale versions of the full
// reproduction (fewer topologies, shorter simulated time) so the suite
// stays minutes-fast; cmd/experiments regenerates the full-scale
// artifacts. Each bench reports domain-specific metrics (Kb/s, ms,
// ratios) via b.ReportMetric so a bench run doubles as a results table.

import (
	"bytes"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/des"
	"repro/internal/experiments"
	"repro/internal/geom"
	"repro/internal/numeric"
	"repro/internal/phy"
	"repro/internal/server"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// benchSim is the reduced standard cell used by the figure benches.
func benchSim(scheme core.Scheme, n int, beamDeg float64) sim.Scenario {
	return sim.Scenario{
		Scheme:       scheme.String(),
		BeamwidthDeg: beamDeg,
		Seed:         1,
		Duration:     sim.Duration(500 * des.Millisecond),
		Topology:     sim.TopologySpec{N: n},
	}
}

// BenchmarkTable1 regenerates the protocol-parameter table (a pure
// formatting path; it exists so every paper artifact has a bench target).
func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.WriteTable1(io.Discard)
	}
}

// BenchmarkFig5 regenerates the analytical maximum-throughput-vs-
// beamwidth curves (all three schemes, N = 3, 5, 8).
func BenchmarkFig5(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig5([]float64{3, 5, 8})
		if err != nil {
			b.Fatal(err)
		}
		if err := experiments.Fig5Shape(rows); err != nil {
			b.Fatalf("published shape violated: %v", err)
		}
	}
}

// BenchmarkFig6 regenerates one reduced throughput-comparison cell per
// scheme (N=8, θ=30°, the paper's clearest separation).
func BenchmarkFig6(b *testing.B) {
	for _, s := range core.Schemes() {
		b.Run(s.String(), func(b *testing.B) {
			var last float64
			for i := 0; i < b.N; i++ {
				res, err := sim.RunScenario(benchSim(s, 8, 30), sim.Options{})
				if err != nil {
					b.Fatal(err)
				}
				last = res.MeanThroughputBps()
			}
			b.ReportMetric(last/1000, "Kbps/node")
		})
	}
}

// BenchmarkFig7 regenerates one reduced delay-comparison cell per scheme.
func BenchmarkFig7(b *testing.B) {
	for _, s := range core.Schemes() {
		b.Run(s.String(), func(b *testing.B) {
			var last float64
			for i := 0; i < b.N; i++ {
				res, err := sim.RunScenario(benchSim(s, 8, 30), sim.Options{})
				if err != nil {
					b.Fatal(err)
				}
				last = res.MeanDelaySec()
			}
			b.ReportMetric(last*1000, "ms-delay")
		})
	}
}

// BenchmarkCollisionRatio regenerates the Section 4 collision statistics
// (omitted from the paper for space): directional schemes trade a higher
// data-phase collision rate for spatial reuse.
func BenchmarkCollisionRatio(b *testing.B) {
	for _, s := range core.Schemes() {
		b.Run(s.String(), func(b *testing.B) {
			var last float64
			for i := 0; i < b.N; i++ {
				res, err := sim.RunScenario(benchSim(s, 8, 30), sim.Options{})
				if err != nil {
					b.Fatal(err)
				}
				last = res.MeanCollisionRatio()
			}
			b.ReportMetric(last, "collision-ratio")
		})
	}
}

// BenchmarkFairness regenerates the Section 4 fairness observations: BEB
// unfairness worsens with wider beams.
func BenchmarkFairness(b *testing.B) {
	for _, beam := range []float64{30, 150} {
		b.Run(map[float64]string{30: "narrow30", 150: "wide150"}[beam], func(b *testing.B) {
			var last float64
			for i := 0; i < b.N; i++ {
				res, err := sim.RunScenario(benchSim(core.DRTSDCTS, 5, beam), sim.Options{})
				if err != nil {
					b.Fatal(err)
				}
				last = res.Jain
			}
			b.ReportMetric(last, "jain")
		})
	}
}

// BenchmarkLoadSweep regenerates one point of the offered-load study
// (extension experiment): delivered throughput under a 100 Kb/s per-node
// CBR load.
func BenchmarkLoadSweep(b *testing.B) {
	var last float64
	for i := 0; i < b.N; i++ {
		sc := benchSim(core.DRTSDCTS, 5, 30)
		sc.Traffic = sim.TrafficSpec{Kind: "cbr", OfferedLoadBps: 100_000}
		res, err := sim.RunScenario(sc, sim.Options{})
		if err != nil {
			b.Fatal(err)
		}
		last = res.MeanThroughputBps()
	}
	b.ReportMetric(last/1000, "Kbps/node")
}

// BenchmarkAblationBasicAccess quantifies what RTS/CTS buys in the
// paper's multihop setting by comparing against the no-handshake
// baseline.
func BenchmarkAblationBasicAccess(b *testing.B) {
	for _, basic := range []bool{false, true} {
		name := "rts-cts"
		if basic {
			name = "basic-access"
		}
		b.Run(name, func(b *testing.B) {
			var last float64
			for i := 0; i < b.N; i++ {
				sc := benchSim(core.ORTSOCTS, 8, 0)
				sc.Ablations.BasicAccess = basic
				res, err := sim.RunScenario(sc, sim.Options{})
				if err != nil {
					b.Fatal(err)
				}
				last = res.MeanThroughputBps()
			}
			b.ReportMetric(last/1000, "Kbps/node")
		})
	}
}

// BenchmarkAblationCapture compares the paper's no-capture receiver with
// first-signal capture: the scheme comparison must not hinge on the
// collision model's pessimism.
func BenchmarkAblationCapture(b *testing.B) {
	for _, capture := range []bool{false, true} {
		name := "paper-nocapture"
		if capture {
			name = "capture"
		}
		b.Run(name, func(b *testing.B) {
			var last float64
			for i := 0; i < b.N; i++ {
				sc := benchSim(core.DRTSDCTS, 8, 30)
				sc.PHY.Capture = capture
				res, err := sim.RunScenario(sc, sim.Options{})
				if err != nil {
					b.Fatal(err)
				}
				last = res.MeanThroughputBps()
			}
			b.ReportMetric(last/1000, "Kbps/node")
		})
	}
}

// BenchmarkAblationOracleNAV separates the reduced-waiting effect from
// pure spatial reuse: the oracle makes out-of-beam neighbors defer as if
// transmissions were omni-directional.
func BenchmarkAblationOracleNAV(b *testing.B) {
	for _, oracle := range []bool{false, true} {
		name := "paper-heardonly"
		if oracle {
			name = "oracle"
		}
		b.Run(name, func(b *testing.B) {
			var last float64
			for i := 0; i < b.N; i++ {
				sc := benchSim(core.DRTSDCTS, 8, 30)
				sc.PHY.NAVOracle = oracle
				res, err := sim.RunScenario(sc, sim.Options{})
				if err != nil {
					b.Fatal(err)
				}
				last = res.MeanThroughputBps()
			}
			b.ReportMetric(last/1000, "Kbps/node")
		})
	}
}

// BenchmarkAblationEIFS measures the effect of extended-IFS deference
// after frame errors.
func BenchmarkAblationEIFS(b *testing.B) {
	for _, disable := range []bool{false, true} {
		name := "eifs-on"
		if disable {
			name = "eifs-off"
		}
		b.Run(name, func(b *testing.B) {
			var last float64
			for i := 0; i < b.N; i++ {
				sc := benchSim(core.ORTSOCTS, 8, 0)
				sc.Ablations.DisableEIFS = disable
				res, err := sim.RunScenario(sc, sim.Options{})
				if err != nil {
					b.Fatal(err)
				}
				last = res.MeanThroughputBps()
			}
			b.ReportMetric(last/1000, "Kbps/node")
		})
	}
}

// BenchmarkAblationTfail compares the analytical model's truncated-
// geometric failed-period length against the worst-case (full handshake)
// assumption.
func BenchmarkAblationTfail(b *testing.B) {
	pr := core.Params{N: 5, Beamwidth: math.Pi / 6, Lengths: core.PaperLengths()}
	b.Run("truncgeom", func(b *testing.B) {
		var last float64
		for i := 0; i < b.N; i++ {
			_, th, err := core.MaxThroughput(core.DRTSDCTS, pr, 0)
			if err != nil {
				b.Fatal(err)
			}
			last = th
		}
		b.ReportMetric(last, "max-throughput")
	})
	b.Run("worstcase", func(b *testing.B) {
		// Recompute throughput with T_fail pinned to a full handshake.
		tsucc := float64(pr.Lengths.Succeed())
		worst := func(p float64) float64 {
			st, err := core.Solve(core.DRTSDCTS, p, pr)
			if err != nil {
				return math.Inf(-1)
			}
			return st.Ps * float64(pr.Lengths.Data) / (st.Pw + st.Ps*tsucc + st.Pf*tsucc)
		}
		var last float64
		for i := 0; i < b.N; i++ {
			_, th, err := numeric.MaximizeHybrid(worst, 1e-6, 0.5, 64, 1e-9)
			if err != nil {
				b.Fatal(err)
			}
			last = th
		}
		b.ReportMetric(last, "max-throughput")
	})
}

// BenchmarkAblationOptimizer compares golden-section refinement against
// pure grid search for the max-throughput solve.
func BenchmarkAblationOptimizer(b *testing.B) {
	pr := core.Params{N: 5, Beamwidth: math.Pi / 6, Lengths: core.PaperLengths()}
	f := func(p float64) float64 {
		th, err := core.Throughput(core.DRTSDCTS, p, pr)
		if err != nil {
			return math.Inf(-1)
		}
		return th
	}
	b.Run("hybrid-golden", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := numeric.MaximizeHybrid(f, 1e-6, 0.5, 64, 1e-9); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("grid-4096", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := numeric.MaximizeGrid(f, 1e-6, 0.5, 4096); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkScheduler measures raw event-kernel throughput.
func BenchmarkScheduler(b *testing.B) {
	s := des.New(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Schedule(des.Time(i%1000), func() {})
		if i%1024 == 1023 {
			s.RunAll()
		}
	}
	s.RunAll()
}

// BenchmarkSchedulerFixedDelay measures the kernel on the MAC's insert
// mix: 40 tickers re-arming at one 20µs backoff slot, with about 7% of
// inserts at other delays and about 1.4% of inserts canceled. One op is
// one fired event.
func BenchmarkSchedulerFixedDelay(b *testing.B) {
	const (
		tickers = 40
		slot    = 20 * des.Microsecond
	)
	// One precomputed draw per tick: 0 re-arms only, a positive draw
	// also schedules a timer that far ahead, -1 also cancels the latest
	// such timer.
	rng := rand.New(rand.NewSource(1))
	draws := make([]des.Time, 4096)
	for i := range draws {
		switch r := rng.Intn(1000); {
		case r < 75:
			draws[i] = des.Time(1+rng.Intn(600)) * des.Microsecond
		case r < 90:
			draws[i] = -1
		}
	}
	s := des.New(1)
	noop := func() {}
	var other des.Timer
	k := 0
	fns := make([]func(), tickers)
	for i := range fns {
		fns[i] = func() {
			s.Schedule(slot, fns[i])
			switch d := draws[k%len(draws)]; {
			case d > 0:
				other = s.Schedule(d, noop)
			case d < 0:
				s.Cancel(other)
			}
			k++
		}
		s.At(des.Time(i)*slot/tickers, fns[i])
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Step()
	}
}

// BenchmarkChannelBroadcast measures one omni transmission delivered to a
// dense neighborhood.
func BenchmarkChannelBroadcast(b *testing.B) {
	sched := des.New(1)
	ch, err := phy.NewChannel(sched, phy.DefaultParams())
	if err != nil {
		b.Fatal(err)
	}
	handlers := make([]discard, 33)
	tx := ch.AddRadio(geom.Point{}, &handlers[0])
	for i := 1; i < 33; i++ {
		ch.AddRadio(geom.Polar(geom.Point{}, 0.9, float64(i)), &handlers[i])
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tx.Transmit(phy.Frame{Type: phy.Data, Bytes: 1460}, phy.Omni); err != nil {
			b.Fatal(err)
		}
		sched.RunAll()
	}
}

// BenchmarkChannelBroadcastMoving is the mobile worst case for the PHY's
// per-sender audience cache: one radio moves before every transmission,
// so every frame finds the sender's audience stale. Radios are spread
// uniformly over the sender's 3×3 cell block (some in range, some not),
// and the frame is a 30° SINR transmission, so out-of-beam receivers
// must not pay for path loss.
func BenchmarkChannelBroadcastMoving(b *testing.B) {
	sched := des.New(1)
	params := phy.DefaultParams()
	params.SINRThreshold = 10
	params.PathLoss = 2
	params.NoiseFloor = 0.001
	ch, err := phy.NewChannel(sched, params)
	if err != nil {
		b.Fatal(err)
	}
	const n = 96
	rng := rand.New(rand.NewSource(7))
	handlers := make([]discard, n+1)
	tx := ch.AddRadio(geom.Point{X: 0.5, Y: 0.5}, &handlers[0])
	radios := make([]*phy.Radio, n)
	for i := range radios {
		pos := geom.Point{X: rng.Float64()*3 - 1, Y: rng.Float64()*3 - 1}
		radios[i] = ch.AddRadio(pos, &handlers[i+1])
	}
	mover := radios[n-1]
	home := mover.Pos()
	beam := phy.Directed(0, math.Pi/6)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mover.SetPos(geom.Point{X: home.X + float64(i&1)*1e-3, Y: home.Y})
		if _, err := tx.Transmit(phy.Frame{Type: phy.Data, Bytes: 1460}, beam); err != nil {
			b.Fatal(err)
		}
		sched.RunAll()
	}
}

// BenchmarkAnalyticalThroughput measures one throughput evaluation (one
// Simpson integral per call).
func BenchmarkAnalyticalThroughput(b *testing.B) {
	pr := core.Params{N: 5, Beamwidth: math.Pi / 6, Lengths: core.PaperLengths()}
	for _, s := range core.Schemes() {
		b.Run(s.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.Throughput(s, 0.02, pr); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkScenarioCache measures the content-addressed result cache
// around one simulated half-second: "cold" pays the full run plus the
// store write (every iteration uses a fresh seed, so every lookup
// misses), "warm" replays one cached scenario and must be orders of
// magnitude cheaper.
func BenchmarkScenarioCache(b *testing.B) {
	b.Run("cold", func(b *testing.B) {
		store, err := cache.NewStore(b.TempDir(), 0)
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sc := benchSim(core.DRTSDCTS, 5, 90)
			sc.Seed = int64(i + 1) // unique key per iteration: all misses
			if _, err := sim.RunScenario(sc, sim.Options{Cache: store}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("warm", func(b *testing.B) {
		store, err := cache.NewStore(b.TempDir(), 0)
		if err != nil {
			b.Fatal(err)
		}
		sc := benchSim(core.DRTSDCTS, 5, 90)
		opts := sim.Options{Cache: store}
		if _, err := sim.RunScenario(sc, opts); err != nil { // populate
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := sim.RunScenario(sc, opts); err != nil {
				b.Fatal(err)
			}
		}
		if st := store.Stats(); st.Misses != 1 {
			b.Fatalf("warm loop missed the cache (%+v)", st)
		}
	})
}

// simSecondEvents is the event count of one simulated second of the
// paper's N=5 cell (DRTS-DCTS, θ=90°, seed 1). Any other count means the
// simulated protocol changed, and ns/op would no longer compare.
const simSecondEvents = 693_100

// BenchmarkSimulationSecond measures the wall cost of one simulated
// second of the paper's N=5 network, with events/op and ns/event next to
// ns/op so a change reads as either fewer events or cheaper ones.
func BenchmarkSimulationSecond(b *testing.B) {
	sc := benchSim(core.DRTSDCTS, 5, 90)
	sc.Duration = sim.Duration(des.Second)
	var events uint64
	for i := 0; i < b.N; i++ {
		s, err := sim.Build(sc, sim.Options{})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := s.Run(); err != nil {
			b.Fatal(err)
		}
		n := s.Sched.Executed()
		if n != simSecondEvents {
			b.Fatalf("simulated second ran %d events, want %d", n, simSecondEvents)
		}
		events += n
	}
	b.ReportMetric(float64(events)/float64(b.N), "events/op")
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(events), "ns/event")
}

// BenchmarkTelemetryOff re-measures the standard simulated second with
// the telemetry subsystem compiled in but disabled — the nil-receiver
// fast path. Gated against BenchmarkSimulationSecond's BENCH_after.json
// entry: disabled telemetry must cost nothing (same ns/op envelope, no
// extra allocations).
func BenchmarkTelemetryOff(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sc := benchSim(core.DRTSDCTS, 5, 90)
		sc.Duration = sim.Duration(des.Second)
		if _, err := sim.RunScenario(sc, sim.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTelemetryOn measures the same second with 10ms sampling and
// every catalog metric live, streaming into a discard sink — the full
// observability cost (registry updates on the MAC/PHY hot paths plus the
// probe's per-tick record construction).
func BenchmarkTelemetryOn(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sc := benchSim(core.DRTSDCTS, 5, 90)
		sc.Duration = sim.Duration(des.Second)
		sc.Telemetry.Interval = sim.Duration(10 * des.Millisecond)
		if _, err := sim.RunScenario(sc, sim.Options{Telemetry: telemetry.Discard{}}); err != nil {
			b.Fatal(err)
		}
	}
}

// sparsePairBench is the fast-forward showcase scenario: a two-node
// explicit pair under waypoint mobility with second-stale bearings, so
// CTS timeouts ratchet the contention window to CWMax and nearly every
// countdown crosses dead air as one bulk jump (DESIGN.md §12).
func sparsePairBench(ff bool) sim.Scenario {
	return sim.Scenario{
		Scheme: "DRTS-DCTS", BeamwidthDeg: 30, Seed: 1,
		Duration: sim.Duration(des.Second),
		Topology: sim.TopologySpec{Kind: "explicit", N: 2,
			Positions: []geom.Point{{X: 0, Y: 0}, {X: 0.5, Y: 0}}},
		Traffic:     sim.TrafficSpec{Kind: "cbr", OfferedLoadBps: 500_000},
		Mobility:    sim.MobilitySpec{Kind: "waypoint", MaxSpeed: 2, RefreshInterval: sim.Duration(des.Second)},
		FastForward: ff,
	}
}

// BenchmarkSimulationSecondSparse measures one simulated second of the
// sparse pair with fast-forward enabled — the headline perf number for
// the analytic idle-time skip. Compare BenchmarkFastForwardOff for the
// slot-by-slot cost of the identical scenario.
func BenchmarkSimulationSecondSparse(b *testing.B) {
	sc := sparsePairBench(true)
	for i := 0; i < b.N; i++ {
		if _, err := sim.RunScenario(sc, sim.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFastForwardOn / BenchmarkFastForwardOff are the paired
// speedup gauge over the sparse scenario; results are bit-identical
// between them (enforced by TestFastForwardDifferentialSparsePair), so
// any ratio between their ns/op is pure kernel-event savings.
func BenchmarkFastForwardOn(b *testing.B) {
	sc := sparsePairBench(true)
	for i := 0; i < b.N; i++ {
		if _, err := sim.RunScenario(sc, sim.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFastForwardOff(b *testing.B) {
	sc := sparsePairBench(false)
	for i := 0; i < b.N; i++ {
		if _, err := sim.RunScenario(sc, sim.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// parallelKernelBench is the partitioned-kernel showcase: a uniform
// field of Rings²·N = 2560 saturated nodes over a disk of radius 8R —
// far past the auto-partition floor, so the planner splits it into the
// full 8 partitions (DESIGN.md §14).
func parallelKernelBench(partition string) sim.Scenario {
	return sim.Scenario{
		Scheme: "DRTS-DCTS", BeamwidthDeg: 60, Seed: 3,
		Duration:  sim.Duration(50 * des.Millisecond),
		Topology:  sim.TopologySpec{Kind: "uniform", N: 40, Rings: 8},
		Partition: partition,
	}
}

// BenchmarkParallelKernel compares the sequential kernel ("seq", forced
// via partition "off") against the partitioned kernel executed by one
// worker ("k1") and four workers ("k4") on the same large scenario.
// k1 vs k4 is the pure parallel speedup — both run the identical
// partition layout and produce byte-identical results
// (sim.TestPartitionedRunWorkerInvariance); seq differs from both in
// event order (independent per-partition random streams), so seq vs k1
// gauges the partitioning overhead, not a result-preserving rewrite.
// des.Group clamps workers to GOMAXPROCS, so k4 runs min(4, GOMAXPROCS)
// workers: on a single-core machine k4 equals k1, and the k4/k1 ratio
// shows a speedup only with real CPUs to spend, while seq≈k1 pins that
// the windowed round loop itself is ~free. events/op is identical for
// k1 and k4.
func BenchmarkParallelKernel(b *testing.B) {
	run := func(b *testing.B, sc sim.Scenario, workers int) {
		b.Helper()
		var events uint64
		for i := 0; i < b.N; i++ {
			_, n := runCounted(b, sc, sim.Options{Workers: workers})
			events += n
		}
		b.ReportMetric(float64(events)/float64(b.N), "events/op")
	}
	b.Run("seq", func(b *testing.B) { run(b, parallelKernelBench("off"), 1) })
	b.Run("k1", func(b *testing.B) { run(b, parallelKernelBench(""), 1) })
	b.Run("k4", func(b *testing.B) { run(b, parallelKernelBench(""), 4) })
}

// scaleBench is the committed large-N scale scenario (DESIGN.md §15): a
// uniform field of Rings²·N = 10240 saturated nodes over a disk of
// radius 32R — two orders of magnitude past paper scale, sized so one
// iteration stays sub-second. The same shape (at the same node count)
// is committed as internal/sim/testdata/scale/uniform10k.json for
// `make scale-smoke`.
func scaleBench() sim.Scenario {
	return sim.Scenario{
		Scheme: "DRTS-DCTS", BeamwidthDeg: 60, Seed: 7,
		Duration: sim.Duration(10 * des.Millisecond),
		Topology: sim.TopologySpec{Kind: "uniform", N: 10, Rings: 32},
	}
}

// BenchmarkBuildLargeN measures scenario assembly alone — topology draw,
// radios, neighbor tables, traffic sources, MAC instances — at 10⁴
// nodes. The headline column is allocs/op: Build is required to do O(N)
// work with O(1) allocations per node, and the -compare gate holds the
// line.
func BenchmarkBuildLargeN(b *testing.B) {
	sc := scaleBench()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := sim.Build(sc, sim.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// mobilityChurn measures the spatial-index cost of mobility: each
// iteration teleports a small batch of radios (waypoint-style random
// repositioning) and then runs one neighbor query, which forces the
// index to absorb the moves. With incremental migration the cost is
// O(moved); the fullrebuild variant forces the historical all-or-nothing
// reindex of every radio for the paired ≥10× comparison.
func mobilityChurn(b *testing.B, fullRebuild bool) {
	const (
		n       = 10_000
		side    = 100  // radios per row
		spacing = 0.35 // fraction of Range between neighbors
		moved   = 16   // radios repositioned per iteration
	)
	sched := des.New(1)
	ch, err := phy.NewChannel(sched, phy.DefaultParams())
	if err != nil {
		b.Fatal(err)
	}
	handlers := make([]discard, n)
	radios := make([]*phy.Radio, n)
	for i := range radios {
		pos := geom.Point{X: float64(i%side) * spacing, Y: float64(i/side) * spacing}
		radios[i] = ch.AddRadio(pos, &handlers[i])
	}
	ch.SetFullRebuild(fullRebuild)
	ch.Neighbors(0) // settle the initial index outside the timer
	rng := rand.New(rand.NewSource(42))
	width := float64(side) * spacing
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < moved; j++ {
			radios[rng.Intn(n)].SetPos(geom.Point{X: rng.Float64() * width, Y: rng.Float64() * width})
		}
		ch.Neighbors(0)
	}
}

func BenchmarkMobilityChurn(b *testing.B) {
	b.Run("incremental", func(b *testing.B) { mobilityChurn(b, false) })
	b.Run("fullrebuild", func(b *testing.B) { mobilityChurn(b, true) })
}

// BenchmarkScaleSimulationSecond runs the committed 10240-node scale
// scenario end to end (10 simulated milliseconds — the "second" in the
// name follows the SimulationSecond naming family, normalized below).
// Together with BuildLargeN and MobilityChurn it gates the scale story:
// assembly, mobility churn, and steady-state event throughput.
func BenchmarkScaleSimulationSecond(b *testing.B) {
	sc := scaleBench()
	var last float64
	var events uint64
	for i := 0; i < b.N; i++ {
		res, n := runCounted(b, sc, sim.Options{})
		last = res.MeanThroughputBps()
		events += n
	}
	b.ReportMetric(last/1000, "Kbps/node")
	b.ReportMetric(float64(events)/float64(b.N), "events/op")
}

// runCounted builds and runs one scenario and returns its result with
// the kernel events it executed, summed over partitions.
func runCounted(b *testing.B, sc sim.Scenario, opts sim.Options) (*sim.Result, uint64) {
	b.Helper()
	s, err := sim.Build(sc, opts)
	if err != nil {
		b.Fatal(err)
	}
	res, err := s.Run()
	if err != nil {
		b.Fatal(err)
	}
	return res, s.Events()
}

// discard is a no-op PHY handler for micro-benches.
type discard struct{}

func (discard) OnCarrierBusy()      {}
func (discard) OnCarrierIdle()      {}
func (discard) OnFrame(f phy.Frame) {}
func (discard) OnFrameError()       {}
func (discard) OnTxDone()           {}

// BenchmarkMobilitySweep regenerates one point of the mobility extension
// study: fast random-waypoint motion with one-second-stale bearings.
func BenchmarkMobilitySweep(b *testing.B) {
	for _, speed := range []float64{0, 0.5} {
		name := "static"
		if speed > 0 {
			name = "speed0.5R"
		}
		b.Run(name, func(b *testing.B) {
			var last float64
			for i := 0; i < b.N; i++ {
				sc := benchSim(core.DRTSDCTS, 5, 30)
				if speed > 0 {
					sc.Mobility = sim.MobilitySpec{Kind: "waypoint", MaxSpeed: speed, RefreshInterval: sim.Duration(des.Second)}
				}
				res, err := sim.RunScenario(sc, sim.Options{})
				if err != nil {
					b.Fatal(err)
				}
				last = res.MeanThroughputBps()
			}
			b.ReportMetric(last/1000, "Kbps/node")
		})
	}
}

// BenchmarkAblationSINR compares the paper's pessimistic overlap receiver
// against the physical SINR receiver (capture by strength + directional
// gain per footnote 2 of the paper).
func BenchmarkAblationSINR(b *testing.B) {
	for _, sinr := range []bool{false, true} {
		name := "paper-overlap"
		if sinr {
			name = "sinr"
		}
		b.Run(name, func(b *testing.B) {
			var last float64
			for i := 0; i < b.N; i++ {
				sc := benchSim(core.DRTSDCTS, 8, 30)
				sc.PHY.SINR = sinr
				res, err := sim.RunScenario(sc, sim.Options{})
				if err != nil {
					b.Fatal(err)
				}
				last = res.MeanThroughputBps()
			}
			b.ReportMetric(last/1000, "Kbps/node")
		})
	}
}

// BenchmarkModelVsSim regenerates one point of the model-validation
// study: the analytical and simulated normalized throughput at the
// paper's clearest configuration.
func BenchmarkModelVsSim(b *testing.B) {
	var rho float64
	for i := 0; i < b.N; i++ {
		base := sim.Scenario{Seed: 1, Duration: sim.Duration(500 * des.Millisecond)}
		rows, err := experiments.ModelVsSim(sim.Runner{}, base, []int{8}, []float64{30}, 1)
		if err != nil {
			b.Fatal(err)
		}
		rho = experiments.SpearmanRank(rows)
	}
	b.ReportMetric(rho, "spearman")
}

// BenchmarkAdaptiveRTS compares plain DRTS-DCTS against the Ko et
// al.-style adaptive variant (omni RTS fallback on stale bearings plus
// piggybacked locations) under fast mobility.
func BenchmarkAdaptiveRTS(b *testing.B) {
	for _, adaptive := range []bool{false, true} {
		name := "plain"
		if adaptive {
			name = "adaptive"
		}
		b.Run(name, func(b *testing.B) {
			var last float64
			for i := 0; i < b.N; i++ {
				sc := benchSim(core.DRTSDCTS, 5, 30)
				sc.Mobility = sim.MobilitySpec{Kind: "waypoint", MaxSpeed: 1.0, RefreshInterval: sim.Duration(des.Second)}
				if adaptive {
					sc.Ablations.AdaptiveRTS = sim.Duration(200 * des.Millisecond)
				}
				res, err := sim.RunScenario(sc, sim.Options{})
				if err != nil {
					b.Fatal(err)
				}
				last = res.MeanThroughputBps()
			}
			b.ReportMetric(last/1000, "Kbps/node")
		})
	}
}

// BenchmarkServedScenario measures the simulation-as-a-service path
// through the full HTTP handler stack (real httptest transport, not a
// direct handler call): cold is a POST that executes the run, warm is
// the same POST served from the content-addressed cache — the latency
// a dedup'd client actually sees. The warm loop asserts it never
// re-executed.
func BenchmarkServedScenario(b *testing.B) {
	sc := sim.Scenario{
		Scheme:       "DRTS-DCTS",
		BeamwidthDeg: 90,
		Seed:         1,
		Duration:     sim.Duration(100 * des.Millisecond),
		Topology:     sim.TopologySpec{N: 3},
	}
	spec, err := sim.MarshalScenario(sc)
	if err != nil {
		b.Fatal(err)
	}
	post := func(b *testing.B, url string) {
		resp, err := http.Post(url, "application/json", bytes.NewReader(spec))
		if err != nil {
			b.Fatal(err)
		}
		if _, err := io.Copy(io.Discard, resp.Body); err != nil {
			b.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			b.Fatalf("POST status %d", resp.StatusCode)
		}
	}

	b.Run("cold", func(b *testing.B) {
		// No cache: every sequential POST runs the simulation, so each
		// iteration pays parse + validate + key + queue + run + encode.
		srv := server.New(server.Config{})
		ts := httptest.NewServer(srv.Handler())
		defer func() { ts.Close(); srv.Close() }()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			post(b, ts.URL+"/v1/runs")
		}
	})
	b.Run("warm", func(b *testing.B) {
		store, err := cache.NewStore(b.TempDir(), 0)
		if err != nil {
			b.Fatal(err)
		}
		srv := server.New(server.Config{Cache: store})
		ts := httptest.NewServer(srv.Handler())
		defer func() { ts.Close(); srv.Close() }()
		post(b, ts.URL+"/v1/runs") // populate
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			post(b, ts.URL+"/v1/runs")
		}
		b.StopTimer()
		if st := srv.Stats(); st.Executed != 1 {
			b.Fatalf("warm loop re-executed the scenario (%+v)", st)
		}
	})
}
