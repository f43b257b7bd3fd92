package main

import (
	"bytes"
	"errors"
	"fmt"
	"time"

	"repro/internal/sim"
)

// fieldSpec is the 10,240-node uniform field (Rings²·N = 32²·10 nodes),
// one field per workload seed. It runs with the default automatic
// partitioning and the default worker count.
func fieldSpec(seed int64) spec {
	return spec{
		Scheme: "DRTS-DCTS", BeamwidthDeg: 60, Seed: derive(seed, 2), Duration: "10ms",
		Topology: topoSpec{Kind: "uniform", N: 10, Rings: 32},
		Traffic:  trafficSpec{Kind: "saturated"},
	}
}

// minFieldRuns is the fewest runs a field-10k pass makes.
const minFieldRuns = 5

var errNotIdentical = errors.New("result bytes differ from the set-up run of the same scenario")

func runField(b *bench) error {
	raw := fieldSpec(b.seed).json()
	var (
		sc  sim.Scenario
		ref []byte
		res *sim.Result
	)
	err := b.setups(setupRepeats, func() error {
		var err error
		if sc, err = parse(raw); err != nil {
			return err
		}
		// A cold first run: it warms the heap, and its bytes are the
		// reference every later run of the same field must repeat.
		res, ref, err = runEncode(sc, sim.Options{})
		return err
	})
	if err != nil {
		return err
	}
	b.count("invariants", about(raw, checkInvariants(res)))
	nodeSecs := nodeSeconds(sc, res)

	same := func(body []byte) error {
		if !bytes.Equal(body, ref) {
			return errNotIdentical
		}
		return nil
	}
	// untraced runs the field repeatedly, one segment per run: until the
	// window has passed (runs == 0) or exactly runs times.
	untraced := func(runs int) ([]time.Duration, []segment, time.Duration) {
		var (
			lats []time.Duration
			segs []segment
		)
		start := time.Now()
		done := func(i int) bool {
			if runs > 0 {
				return i >= runs
			}
			return i >= minFieldRuns && time.Since(start) >= b.window
		}
		for i := 0; !done(i); i++ {
			seg := segment{start: time.Now()}
			_, body, err := runEncode(sc, sim.Options{})
			seg.add(nodeSecs)
			seg = seg.end()
			lats, segs = append(lats, seg.wall), append(segs, seg)
			if err == nil {
				err = same(body)
			}
			b.count("run", about(raw, err))
		}
		return lats, segs, time.Since(start)
	}

	if !b.traced() {
		lats, segs, _ := untraced(0)
		recordEndToEnd(b, lats, segs)
		checkWorkers(b, raw, sc, ref)
		return nil
	}

	var (
		first *direct
		sl    simLedger
		start = time.Now()
	)
	for i := int64(1); i < minFieldRuns || time.Since(start) < b.window; i++ {
		d, err := runDirect(b.t, raw, i, sim.Options{})
		if err == nil {
			err = same(d.body)
		}
		b.count("traced run", about(raw, err))
		if err != nil {
			continue
		}
		if first == nil {
			first = &d
		}
		sl.add(d)
	}
	tracedWall := time.Since(start)
	if first == nil {
		return fmt.Errorf("no traced field run succeeded")
	}
	mem := startMem()
	lats, _, wall := untraced(len(sl.run))
	mem.record(b.layer, len(lats))
	checkWorkers(b, raw, sc, ref)

	recordCounts(b.layer, first.counts, 1)
	sl.record(b)
	if first.counts.Events == 0 {
		fmt.Fprintf(b.report, "des.events not observable: the run has %d partitions and Sim.Sched is partition 0 only (needs the RunStats side channel); reported as 0\n",
			first.counts.Partitions)
	}
	recordUnusedServing(b.layer)
	b.layer.set("trace.overhead_ratio", tracedWall.Seconds()/wall.Seconds(), "ratio")
	fmt.Fprintf(b.report, "runs=%d traced_wall_s=%.3f untraced_wall_s=%.3f\n", len(sl.run), tracedWall.Seconds(), wall.Seconds())
	return nil
}

// checkWorkers reruns the field on one worker: the partitioned kernel
// must give the same bytes at any worker count.
func checkWorkers(b *bench, raw []byte, sc sim.Scenario, ref []byte) {
	_, body, err := runEncode(sc, sim.Options{Workers: 1})
	if err == nil && !bytes.Equal(body, ref) {
		err = fmt.Errorf("Workers=1 bytes differ from default-worker bytes")
	}
	b.count("worker invariance", about(raw, err))
}
