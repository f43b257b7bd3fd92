package main

import (
	"encoding/json"
	"fmt"
	"runtime"
	"time"

	"repro/internal/phy"
	"repro/internal/sim"
)

// spec is the part of the scenario wire format the benchmark writes. It
// names only fields that the planned simplifications of the scenario
// description keep (no fast-forward switch, no partition mode), and the
// benchmark hands the program JSON bytes, never one of its Go structs.
type spec struct {
	Scheme       string      `json:"scheme"`
	BeamwidthDeg float64     `json:"beamwidthDeg,omitempty"`
	Seed         int64       `json:"seed"`
	Duration     string      `json:"duration"`
	Topology     topoSpec    `json:"topology"`
	Traffic      trafficSpec `json:"traffic"`
}

type topoSpec struct {
	Kind  string `json:"kind"`
	N     int    `json:"n"`
	Rings int    `json:"rings,omitempty"`
}

type trafficSpec struct {
	Kind string `json:"kind"`
}

// json renders the spec; a struct of strings and numbers always marshals.
func (s spec) json() []byte {
	b, err := json.Marshal(s)
	if err != nil {
		panic(err)
	}
	return b
}

// ringSpec is a saturated-traffic cell on the paper's ring topology.
func ringSpec(scheme string, beam float64, n int, seed int64, dur string) spec {
	return spec{
		Scheme: scheme, BeamwidthDeg: beam, Seed: seed, Duration: dur,
		Topology: topoSpec{Kind: "rings", N: n},
		Traffic:  trafficSpec{Kind: "saturated"},
	}
}

// parse is the program's input path: decode, then validate.
func parse(raw []byte) (sim.Scenario, error) {
	sc, err := sim.ParseScenario(raw)
	if err != nil {
		return sc, err
	}
	return sc, sc.Validate()
}

// derive mixes a workload seed with stream labels into a positive
// scenario seed (splitmix64 finalizer), so every input follows from the
// --seed argument alone.
func derive(seed int64, labels ...uint64) int64 {
	x := uint64(seed)
	for _, l := range labels {
		x ^= l + 0x9e3779b97f4a7c15 + (x << 6) + (x >> 2)
		x ^= x >> 30
		x *= 0xbf58476d1ce4e5b9
		x ^= x >> 27
		x *= 0x94d049bb133111eb
		x ^= x >> 31
	}
	return int64(x%1_000_000_000) + 1
}

// counts are the exact, seed-determined counters read at the sim layer's
// boundary after a run. Events is zero when the run was partitioned:
// Sim.Sched is then partition 0 only, and the total is not observable
// from outside the program.
type counts struct {
	Events      uint64
	Partitions  int
	RTSSent     int64
	Successes   int64
	CTSTimeouts int64
	ACKTimeouts int64
	FrameErrors int64
	Drops       int64
	TxFrames    int64
	Reuse       float64
}

func (c *counts) add(o counts) {
	c.Events += o.Events
	c.Partitions = max(c.Partitions, o.Partitions)
	c.RTSSent += o.RTSSent
	c.Successes += o.Successes
	c.CTSTimeouts += o.CTSTimeouts
	c.ACKTimeouts += o.ACKTimeouts
	c.FrameErrors += o.FrameErrors
	c.Drops += o.Drops
	c.TxFrames += o.TxFrames
	c.Reuse += o.Reuse
}

func readCounts(s *sim.Sim, res *sim.Result) counts {
	c := counts{Partitions: s.Partitions(), Reuse: res.SpatialReuse}
	if c.Partitions == 1 {
		c.Events = s.Sched.Executed()
	}
	for _, st := range res.NodeStats {
		c.RTSSent += st.RTSSent
		c.Successes += st.Successes
		c.CTSTimeouts += st.CTSTimeouts
		c.ACKTimeouts += st.ACKTimeouts
		c.FrameErrors += st.FrameErrors
		c.Drops += st.Drops
	}
	for _, ft := range []phy.FrameType{phy.RTS, phy.CTS, phy.Data, phy.ACK, phy.Hello} {
		c.TxFrames += s.Channel.TxCount(ft)
	}
	return c
}

// recordCounts sets the des, mac and phy ledger entries from counts
// summed over runs (spatial reuse is averaged).
func recordCounts(l ledger, c counts, runs int) {
	l.set("des.events", float64(c.Events), "count")
	l.set("des.partitions", float64(c.Partitions), "count")
	l.set("mac.rts_sent", float64(c.RTSSent), "count")
	l.set("mac.successes", float64(c.Successes), "count")
	ratio := 0.0
	if c.RTSSent > 0 {
		ratio = float64(c.Successes) / float64(c.RTSSent)
	}
	l.set("mac.handshake_ratio", ratio, "ratio")
	l.set("mac.cts_timeouts", float64(c.CTSTimeouts), "count")
	l.set("mac.ack_timeouts", float64(c.ACKTimeouts), "count")
	l.set("mac.frame_errors", float64(c.FrameErrors), "count")
	l.set("mac.drops", float64(c.Drops), "count")
	l.set("phy.tx_frames", float64(c.TxFrames), "count")
	l.set("phy.spatial_reuse", c.Reuse/float64(max(runs, 1)), "ratio")
}

// direct is one traced pass through the sim layer: parse+validate, key,
// build, run and encode, each under its own span.
type direct struct {
	res    *sim.Result
	body   []byte
	counts counts
	build  time.Duration
	run    time.Duration
	allocs uint64
	wall   time.Duration
}

func runDirect(t *tracer, raw []byte, req int64, opts sim.Options) (direct, error) {
	var d direct
	root := t.open("op", 0, req)
	s := t.open("sim.parse", root.ID, req)
	sc, err := parse(raw)
	t.close(s)
	if err != nil {
		return d, err
	}
	s = t.open("sim.key", root.ID, req)
	_, err = sim.ScenarioKey(sc)
	t.close(s)
	if err != nil {
		return d, err
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	s = t.open("sim.build", root.ID, req)
	built, err := sim.Build(sc, opts)
	s = t.close(s)
	runtime.ReadMemStats(&m1)
	if err != nil {
		return d, err
	}
	d.build, d.allocs = s.dur(), m1.Mallocs-m0.Mallocs
	s = t.open("sim.run", root.ID, req)
	res, err := built.Run()
	s = t.close(s)
	if err != nil {
		return d, err
	}
	d.run = s.dur()
	s = t.open("sim.encode", root.ID, req)
	body, err := sim.EncodeResult(res)
	t.close(s)
	if err != nil {
		return d, err
	}
	root = t.close(root)
	d.res, d.body, d.wall = res, body, root.dur()
	d.counts = readCounts(built, res)
	return d, nil
}

// simLedger accumulates the sim-layer figures of traced direct runs.
type simLedger struct {
	build, run          []time.Duration
	allocs, resultBytes []float64
	events              uint64
	eventRun            time.Duration // run time of the runs whose events are counted
}

func (l *simLedger) add(d direct) {
	l.build, l.run = append(l.build, d.build), append(l.run, d.run)
	l.allocs = append(l.allocs, float64(d.allocs))
	l.resultBytes = append(l.resultBytes, float64(len(d.body)))
	if d.counts.Events > 0 {
		l.events += d.counts.Events
		l.eventRun += d.run
	}
}

// record sets the sim-layer medians and des.ns_per_event, which stays 0
// when no run's events were observable.
func (l *simLedger) record(b *bench) {
	b.layer.set("sim.build_ms", ms(medianDuration(l.build)), "ms")
	b.layer.set("sim.run_ms", ms(medianDuration(l.run)), "ms")
	b.layer.set("sim.build_allocs", quantile(l.allocs, 0.5), "count")
	b.layer.set("sim.result_bytes", quantile(l.resultBytes, 0.5), "bytes")
	b.layer.set("sim.parse_us", us(medianDuration(b.t.durations("sim.parse"))), "us")
	b.layer.set("sim.key_us", us(medianDuration(b.t.durations("sim.key"))), "us")
	b.layer.set("sim.encode_ms", ms(medianDuration(b.t.durations("sim.encode"))), "ms")
	nsPerEvent := 0.0
	if l.events > 0 {
		nsPerEvent = float64(l.eventRun) / float64(l.events)
	}
	b.layer.set("des.ns_per_event", nsPerEvent, "ns")
}

// nodeSeconds is the simulated work of one result: every node of the
// network for the scenario's simulated duration.
func nodeSeconds(sc sim.Scenario, res *sim.Result) float64 {
	return float64(len(res.NodeStats)) * time.Duration(sc.Duration).Seconds()
}

// checkInvariants applies the domain checks every result must pass.
func checkInvariants(res *sim.Result) error {
	for i, c := range res.CollisionRatio {
		if !(c >= 0 && c <= 1) {
			return fmt.Errorf("node %d collision ratio %v outside [0,1]", i, c)
		}
	}
	if !(res.Jain > 0 && res.Jain <= 1+1e-12) {
		return fmt.Errorf("Jain index %v outside (0,1]", res.Jain)
	}
	return nil
}

// runEncode is the untraced operation of the in-process workloads:
// RunScenario, then EncodeResult.
func runEncode(sc sim.Scenario, opts sim.Options) (*sim.Result, []byte, error) {
	res, err := sim.RunScenario(sc, opts)
	if err != nil {
		return nil, nil, err
	}
	body, err := sim.EncodeResult(res)
	return res, body, err
}
