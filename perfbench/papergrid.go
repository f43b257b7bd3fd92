package main

import (
	"bytes"
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro/internal/sim"
)

// pinnedEvents is the event count of the paper-scale reference cell
// (DRTS-DCTS, N=5, θ=90°, seed 1, 1 s) recorded in ROADMAP's profile.
// Any change to it means the simulated protocol changed.
const pinnedEvents = 693_100

var pinSpec = ringSpec("DRTS-DCTS", 90, 5, 1, "1s")

// gridCell is one point of the paper's Section 4 study.
type gridCell struct {
	scheme string
	beam   float64
	n      int
}

// gridCells lists one pass: ORTS-OCTS once per N, the two directional
// schemes at every beamwidth and N.
var gridCells = func() []gridCell {
	var cells []gridCell
	for _, n := range []int{5, 8} {
		cells = append(cells, gridCell{"ORTS-OCTS", 0, n})
		for _, scheme := range []string{"DRTS-DCTS", "DRTS-OCTS"} {
			for _, beam := range []float64{30, 90, 150} {
				cells = append(cells, gridCell{scheme, beam, n})
			}
		}
	}
	return cells
}()

// gridInput is one cell of one pass, as JSON and as parsed.
type gridInput struct {
	cell gridCell
	raw  []byte
	sc   sim.Scenario
}

// gridPass generates pass p. All cells of a pass share one seed, so at
// each N every scheme runs on the same ring topology.
func gridPass(seed int64, p int) ([]gridInput, error) {
	passSeed := derive(seed, 1, uint64(p))
	in := make([]gridInput, len(gridCells))
	for i, c := range gridCells {
		raw := ringSpec(c.scheme, c.beam, c.n, passSeed, "1s").json()
		sc, err := parse(raw)
		if err != nil {
			return nil, err
		}
		in[i] = gridInput{cell: c, raw: raw, sc: sc}
	}
	return in, nil
}

// minPasses is the fewest whole passes a run makes, whatever the window,
// so the directional-gain check always averages enough topologies.
const minPasses = 8

// gridRun is what a run of passes keeps. It holds no results, so the
// process's memory does not grow with the number of passes.
type gridRun struct {
	lats []time.Duration
	segs []segment // one per pass
	wall time.Duration
	tput map[gridCell]float64 // summed mean throughput per cell
}

// runPasses runs whole passes from pass 0: until the window has passed
// and minPasses have run (untilWindow), or exactly passes passes. The
// cells of a pass run on workers goroutines, and the pass ends with its
// last cell. Each cell is one RunScenario plus EncodeResult; its checks
// run, in cell order, once the pass is done, and each, when set, sees
// the cell's bytes.
func runPasses(b *bench, workers, passes int, untilWindow bool, each func(in gridInput, body []byte)) (gridRun, error) {
	type cellOut struct {
		lat  time.Duration
		res  *sim.Result
		body []byte
		err  error
	}
	run := gridRun{tput: make(map[gridCell]float64)}
	start := time.Now()
	for p := 0; untilWindow || p < passes; p++ {
		if untilWindow && p >= minPasses && time.Since(start) >= b.window {
			break
		}
		inputs, err := gridPass(b.seed, p)
		if err != nil {
			return run, err
		}
		seg := segment{start: time.Now()}
		outs := make([]cellOut, len(inputs))
		next := make(chan int)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range next {
					t0 := time.Now()
					res, body, err := runEncode(inputs[i].sc, sim.Options{})
					outs[i] = cellOut{time.Since(t0), res, body, err}
				}
			}()
		}
		for i := range inputs {
			next <- i
		}
		close(next)
		wg.Wait()
		seg = seg.end()
		for i, in := range inputs {
			o := outs[i]
			run.lats = append(run.lats, o.lat)
			b.count("run", about(in.raw, o.err))
			if o.err != nil {
				continue
			}
			seg.ops++
			seg.nodeSecs += nodeSeconds(in.sc, o.res)
			b.count("invariants", about(in.raw, checkInvariants(o.res)))
			run.tput[in.cell] += o.res.MeanThroughputBps()
			if each != nil {
				each(in, o.body)
			}
		}
		run.segs = append(run.segs, seg)
	}
	run.wall = time.Since(start)
	checkGain(b, run.tput)
	return run, nil
}

func runPaperGrid(b *bench) error {
	var pinned []uint64
	err := b.setups(setupRepeats, func() error {
		if _, err := gridPass(b.seed, 0); err != nil {
			return err
		}
		// The cold first run warms the heap and code paths; it is the
		// pinned reference cell, so set-up also yields the count pin.
		d, err := runDirect(nil, pinSpec.json(), 0, sim.Options{})
		if err != nil {
			return err
		}
		pinned = append(pinned, d.counts.Events)
		return nil
	})
	if err != nil {
		return err
	}
	for _, ev := range pinned {
		var err error
		if ev != pinnedEvents {
			err = fmt.Errorf("pinned cell ran %d events, want %d", ev, pinnedEvents)
		}
		b.count("des.events pin", err)
	}

	if !b.traced() {
		// One worker per CPU, as a sweep tool's worker pool runs the study.
		// On a shared host one thread's speed drifts far more than two
		// threads' total does: alternating runs gave spreads of 17–19%
		// against 8–11%.
		run, err := runPasses(b, runtime.GOMAXPROCS(0), 0, true, nil)
		if err != nil {
			return err
		}
		recordEndToEnd(b, run.lats, run.segs)
		fmt.Fprintf(b.report, "passes=%d cells=%d wall_s=%.3f\n", len(run.segs), len(run.lats), run.wall.Seconds())
		return nil
	}

	// Traced pass: whole passes through the direct path on one goroutine,
	// each call into the sim layer under its own span. One goroutine keeps
	// the process-wide allocation count around Build the cell's own.
	var (
		traced          [][]byte
		ledgerCounts    counts
		sl              simLedger
		passes          int
		req             int64
		tracedWallStart = time.Now()
	)
	for p := 0; p < minPasses || time.Since(tracedWallStart) < b.window; p++ {
		inputs, err := gridPass(b.seed, p)
		if err != nil {
			return err
		}
		for _, in := range inputs {
			req++
			d, err := runDirect(b.t, in.raw, req, sim.Options{})
			b.count("traced run", about(in.raw, err))
			if err != nil {
				traced = append(traced, nil)
				continue
			}
			traced = append(traced, d.body)
			sl.add(d)
			if p == 0 {
				ledgerCounts.add(d.counts)
			}
		}
		passes = p + 1
	}
	tracedWall := time.Since(tracedWallStart)

	// Untraced reference over the same passes, on one goroutine like the
	// traced pass: the overhead base, the Go runtime figures, and a check
	// that RunScenario gives the same bytes as the traced Build+Run path.
	mem := startMem()
	cell := 0
	ref, err := runPasses(b, 1, passes, false, func(in gridInput, body []byte) {
		var err error
		if cell >= len(traced) || !bytes.Equal(body, traced[cell]) {
			err = fmt.Errorf("RunScenario bytes differ from the traced Build+Run bytes")
		}
		cell++
		b.count("determinism", about(in.raw, err))
	})
	if err != nil {
		return err
	}
	mem.record(b.layer, len(ref.lats))

	recordCounts(b.layer, ledgerCounts, len(gridCells))
	sl.record(b)
	recordUnusedServing(b.layer)
	b.layer.set("trace.overhead_ratio", tracedWall.Seconds()/ref.wall.Seconds(), "ratio")
	fmt.Fprintf(b.report, "passes=%d cells=%d traced_wall_s=%.3f untraced_wall_s=%.3f\n",
		passes, len(ref.lats), tracedWall.Seconds(), ref.wall.Seconds())
	return nil
}

// checkGain checks the paper's headline result on a run's summed
// throughputs: at N=8 and θ=30°, each directional scheme beats
// ORTS-OCTS on mean throughput over all passes. A single ring topology
// can favour ORTS-OCTS (about one seed in fifteen does); the claim is
// about the mean over topologies, and minPasses makes its margin over
// four standard deviations.
func checkGain(b *bench, tput map[gridCell]float64) {
	omni := tput[gridCell{"ORTS-OCTS", 0, 8}]
	for _, scheme := range []string{"DRTS-DCTS", "DRTS-OCTS"} {
		var err error
		if got := tput[gridCell{scheme, 30, 8}]; got <= omni {
			err = fmt.Errorf("%s θ=30° N=8 mean throughput does not beat ORTS-OCTS (sums %.0f vs %.0f b/s)", scheme, got, omni)
		}
		b.count("directional gain", err)
	}
}

// recordUnusedServing zeroes the cache and server metrics on workloads
// that never reach those layers.
func recordUnusedServing(l ledger) {
	for _, name := range []string{"cache.hits", "cache.misses", "cache.evictions",
		"server.executed", "server.coalesced", "server.rejected", "server.queue_depth_max"} {
		l.set(name, 0, "count")
	}
	l.set("cache.get_us", 0, "us")
	l.set("cache.put_us", 0, "us")
	l.set("server.hit_ratio", 0, "ratio")
	l.set("server.overhead_ms", 0, "ms")
}
