package sim

// Build wires a Scenario into a live simulation. The assembly order —
// topology draw, scheduler, channel, radios, neighbor bootstrap, per-node
// sources and MAC instances, starts, mobility — is part of the
// determinism contract: every random draw comes from either the topology
// stream (seeded Seed) or the protocol stream (seeded Seed^0x5eed) in a
// fixed sequence, so identical scenarios produce bit-identical results.
// The kernel-determinism goldens in internal/experiments pin this.

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"

	"repro/internal/cache"
	"repro/internal/des"
	"repro/internal/mac"
	"repro/internal/mobility"
	"repro/internal/neighbor"
	"repro/internal/phy"
	"repro/internal/stats"
	"repro/internal/telemetry"
	"repro/internal/topology"
	"repro/internal/trace"
	"repro/internal/traffic"
)

// Options carries the runtime (non-serializable) hooks a caller may
// attach alongside a declarative Scenario.
type Options struct {
	// Topology overrides the scenario's topology section with a
	// pre-generated placement.
	Topology *topology.Topology
	// Tracer receives every node's protocol events. It takes precedence
	// over the scenario's trace sink.
	Tracer trace.Tracer
	// Cache, when set, lets RunScenario (and therefore Runner.Run) serve
	// results from a content-addressed store instead of re-running
	// identical scenarios. Runs with a Topology or Tracer override bypass
	// the cache: those overrides are not part of the content address.
	Cache *cache.Store
	// Telemetry receives the streaming export of a run whose scenario
	// enables telemetry (ignored otherwise). When nil, Build provides an
	// in-memory Buffer exposed as Sim.Telemetry. Telemetry-enabled runs
	// bypass the cache — like Tracer, the sink's side effects cannot be
	// replayed from a cached result.
	Telemetry telemetry.Sink
	// Workers bounds the OS goroutines executing a partitioned run
	// (Scenario.Partition; 0 means GOMAXPROCS). It is a pure execution
	// knob: the partition layout — and therefore the result — is derived
	// from the scenario alone, byte-identical for any Workers value, so
	// Workers is deliberately absent from the result cache key.
	Workers int
}

// Sim is a fully assembled, not-yet-started simulation.
type Sim struct {
	// Scenario is the spec the simulation was built from.
	Scenario Scenario
	// Sched is the run's event scheduler.
	Sched *des.Scheduler
	// Channel is the shared PHY.
	Channel *phy.Channel
	// Topology is the resolved node placement.
	Topology *topology.Topology
	// Nodes are the MAC instances, indexed by phy.NodeID.
	Nodes []*mac.Node
	// Tables are the per-node neighbor tables.
	Tables []*neighbor.Table
	// Recorder is the trace ring when the scenario asked for one
	// (trace kind "recorder" and no Options.Tracer override).
	Recorder *trace.Recorder
	// Telemetry is the in-memory export buffer when the scenario enables
	// telemetry and no Options.Telemetry sink was supplied.
	Telemetry *telemetry.Buffer

	starters []SelfDriven
	delayRes *stats.Reservoir
	tel      *telemetryCollector
	parts    []*des.Scheduler // partition schedulers; parts[0] == Sched (len > 1 iff partitioned)
	workers  int
	events   uint64
}

// Events reports how many kernel events the run executed, summed over
// every partition (Sched.Executed() on the sequential kernel). It is 0
// before Run.
func (s *Sim) Events() uint64 { return s.events }

// Partitions reports how many event-queue partitions the build planned
// (1 for the sequential kernel).
func (s *Sim) Partitions() int {
	if len(s.parts) > 1 {
		return len(s.parts)
	}
	return 1
}

// Result holds the per-run metrics for the measured inner nodes. Field
// names are a stable contract: the kernel-determinism goldens are the
// canonical JSON encoding of this struct.
type Result struct {
	// ThroughputBps is each inner node's acknowledged goodput in bits/s.
	ThroughputBps []float64
	// DelaySec is each inner node's mean MAC service delay in seconds
	// (NaN markers are excluded: nodes that delivered nothing carry 0).
	DelaySec []float64
	// CollisionRatio is each inner node's ACK-timeout fraction of
	// data-phase handshakes.
	CollisionRatio []float64
	// Jain is the fairness index over the inner nodes' throughput.
	Jain float64
	// DelaySamplesSec holds a uniform sample of per-packet service delays
	// of the inner nodes (populated when Scenario.SampleDelays is set).
	DelaySamplesSec []float64
	// SpatialReuse is the network's concurrency factor: total transmit
	// airtime across all nodes divided by elapsed time. Values above 1
	// mean simultaneous transmissions coexisted — the reuse the paper's
	// directional schemes are built to unlock.
	SpatialReuse float64
	// AirtimeShare breaks the on-air time down by frame type (fractions
	// of TotalTxAirtime).
	AirtimeShare map[string]float64
	// NodeStats are the raw MAC counters for every node (all rings).
	NodeStats []mac.Stats
}

// MeanThroughputBps returns the average inner-node goodput.
func (r *Result) MeanThroughputBps() float64 { return mean(r.ThroughputBps) }

// MeanDelaySec returns the average inner-node service delay over nodes
// that delivered at least one packet.
func (r *Result) MeanDelaySec() float64 {
	var sum float64
	var n int
	for i, d := range r.DelaySec {
		if r.NodeStats[i].DelayCount > 0 {
			sum += d
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// MeanCollisionRatio returns the average inner-node collision ratio.
func (r *Result) MeanCollisionRatio() float64 { return mean(r.CollisionRatio) }

// DelayPercentileSec returns the p-th percentile of the sampled
// per-packet delays (0 without SampleDelays).
func (r *Result) DelayPercentileSec(p float64) float64 {
	return stats.Percentile(r.DelaySamplesSec, p)
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// resolvedTrafficSpec fills the traffic defaults: kind "saturated",
// 1460-byte packets, a 64-packet CBR queue.
func (sc Scenario) resolvedTrafficSpec() TrafficSpec {
	spec := sc.Traffic
	if spec.Kind == "" {
		spec.Kind = "saturated"
	}
	if spec.PacketBytes == 0 {
		spec.PacketBytes = traffic.PaperPacketBytes
	}
	if spec.QueueCap == 0 {
		spec.QueueCap = 64
	}
	return spec
}

// GenerateTopology resolves the scenario's topology section through the
// registry: the generator named by Kind draws from rng (seed it from
// Scenario.Seed for the canonical placement).
func GenerateTopology(rng *rand.Rand, sc Scenario) (*topology.Topology, error) {
	kind := sc.Topology.Kind
	if kind == "" {
		kind = "rings"
	}
	builder, ok := lookupTopology(kind)
	if !ok {
		return nil, fmt.Errorf("sim: topology.kind: unknown topology kind %q (registered: %v)", kind, TopologyKinds())
	}
	topo, err := builder(rng, sc)
	if err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}
	return topo, nil
}

// Build assembles the scenario into a runnable simulation. The returned
// Sim is idle; call Run to execute it, or drive Sched directly for
// custom instrumentation.
func Build(sc Scenario, opts Options) (*Sim, error) {
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	scheme, err := sc.ResolvedScheme()
	if err != nil {
		return nil, err
	}
	topo := opts.Topology
	if topo == nil {
		topo, err = GenerateTopology(rand.New(rand.NewSource(sc.Seed)), sc)
		if err != nil {
			return nil, err
		}
	}

	sched := des.New(sc.Seed ^ 0x5eed)
	phyParams := phy.DefaultParams()
	phyParams.Range = topo.Radius
	phyParams.Capture = sc.PHY.Capture
	phyParams.NAVOracle = sc.PHY.NAVOracle
	if sc.PHY.SINR {
		phyParams.SINRThreshold = 10
		phyParams.PathLoss = 2
		phyParams.NoiseFloor = 0.001
	}
	ch, err := phy.NewChannel(sched, phyParams)
	if err != nil {
		return nil, err
	}
	ch.AddRadios(topo.Positions)

	// Partitioned kernel: split large static scenarios into per-region
	// event queues (DESIGN.md §14). The layout depends only on the
	// scenario; partition p>0 gets its own scheduler with a seed derived
	// from the protocol stream's.
	plan := planPartition(sc, opts, topo)
	if phyParams.PropDelay <= 0 {
		plan = nil // zero lookahead cannot guarantee round progress
	}
	scheds := []*des.Scheduler{sched}
	if plan != nil {
		for p := 1; p < plan.parts; p++ {
			scheds = append(scheds, des.New(derivePartitionSeed(sc.Seed^0x5eed, p)))
		}
		if err := ch.ConfigurePartitions(scheds, plan.laneOf); err != nil {
			return nil, err
		}
	}

	var tables []*neighbor.Table
	if sc.Ablations.HelloBootstrap {
		tables, err = neighbor.Bootstrap(sched, ch, neighbor.DefaultHelloConfig())
		if err != nil {
			return nil, err
		}
	} else {
		tables = neighbor.GroundTruth(ch)
	}

	tracer := opts.Tracer
	var recorder *trace.Recorder
	if tracer == nil && sc.Trace.Kind == "recorder" {
		capacity := sc.Trace.Capacity
		if capacity == 0 {
			capacity = 1024
		}
		recorder = trace.NewRecorder(capacity)
		tracer = recorder
	}

	var tel *telemetryCollector
	var telBuf *telemetry.Buffer
	if sc.Telemetry.Enabled() {
		sink := opts.Telemetry
		if sink == nil {
			telBuf = telemetry.NewBuffer()
			sink = telBuf
		}
		tel, err = newTelemetryCollector(sc, sink, topo.InnerCount())
		if err != nil {
			return nil, err
		}
		ch.SetMetrics(tel.phyMetrics)
	}

	macCfg := mac.DefaultConfig(scheme, sc.BeamwidthDeg*math.Pi/180)
	macCfg.DisableEIFS = sc.Ablations.DisableEIFS
	macCfg.Tracer = tracer
	if tel != nil {
		macCfg.Metrics = tel.macMetrics
	}
	macCfg.BasicAccess = sc.Ablations.BasicAccess
	macCfg.FastForward = sc.FastForward
	if plan != nil {
		// The analytic fast-forward jump (DESIGN.md §12) gates on
		// ActivePending()==0 over the single global queue; a partition's
		// queue only sees its own lane, so the gate would fire while
		// another partition still holds active events. Force the
		// sequential countdown — the partitioned kernel's determinism
		// contract doesn't include the fast-forward bit-identity proof.
		macCfg.FastForward = false
	}
	if sc.Ablations.AdaptiveRTS > 0 {
		macCfg.AdaptiveRTSStaleness = des.Time(sc.Ablations.AdaptiveRTS)
	}
	var delayRes *stats.Reservoir
	if sc.SampleDelays {
		delayRes = stats.NewReservoir(4096, sched.Rand())
	}

	trafficSpec := sc.resolvedTrafficSpec()
	buildSource, ok := lookupTraffic(trafficSpec.Kind)
	if !ok {
		return nil, fmt.Errorf("sim: traffic.kind: unknown traffic kind %q (registered: %v)", trafficSpec.Kind, TrafficKinds())
	}

	s := &Sim{
		Scenario:  sc,
		Sched:     sched,
		Channel:   ch,
		Topology:  topo,
		Nodes:     make([]*mac.Node, ch.NumRadios()),
		Tables:    tables,
		Recorder:  recorder,
		Telemetry: telBuf,
		delayRes:  delayRes,
		tel:       tel,
		parts:     scheds,
		workers:   opts.Workers,
	}
	// Per-node assembly is allocation-lean (DESIGN.md §15): MAC nodes
	// come from one backing array, and each node's neighbor list is
	// carved from one exactly sized shared backing (capped subslices
	// whose ownership transfers to the traffic source), so the loop costs
	// O(1) allocations per node at any N.
	nodeBacking := make([]mac.Node, ch.NumRadios())
	nbBack := make([]phy.NodeID, 0, ch.NeighborPairs())
	for i := 0; i < ch.NumRadios(); i++ {
		id := phy.NodeID(i)
		// Every node lives entirely on its partition's scheduler: its MAC
		// timers, traffic arrivals and random draws all come from the
		// owning lane, so a lane's event stream is self-contained between
		// cross-partition flushes.
		nodeSched := sched
		if plan != nil {
			nodeSched = scheds[plan.laneOf[i]]
		}
		var src mac.Source = traffic.Empty{}
		start := len(nbBack)
		nbBack = ch.NeighborsAppend(id, nbBack)
		if nbs := nbBack[start:len(nbBack):len(nbBack)]; len(nbs) > 0 {
			src, err = buildSource(TrafficEnv{
				Sched: nodeSched, Rand: nodeSched.Rand(), Neighbors: nbs, Spec: trafficSpec,
			})
			if err != nil {
				return nil, err
			}
		}
		nodeCfg := macCfg
		if delayRes != nil && i < topo.InnerCount() {
			nodeCfg.OnDelivery = func(d des.Time) { delayRes.Add(d.Seconds()) }
		}
		s.Nodes[i] = &nodeBacking[i]
		if err := mac.NewInto(s.Nodes[i], nodeSched, ch.Radio(id), tables[i], src, nodeCfg); err != nil {
			return nil, err
		}
		if sd, ok := src.(SelfDriven); ok {
			sd.SetKick(s.Nodes[i].Kick)
			s.starters = append(s.starters, sd)
		}
	}
	return s, nil
}

// Run starts every node and self-driven source, attaches mobility when
// the scenario asks for it, executes the measured duration and collects
// the inner-node metrics.
func (s *Sim) Run() (*Result, error) {
	sc := s.Scenario
	for _, n := range s.Nodes {
		n.Start()
	}
	for _, st := range s.starters {
		st.Start()
	}
	if sc.Mobility.Kind == "waypoint" {
		mob, err := mobility.New(s.Sched, s.Channel, mobility.DefaultConfig(sc.Mobility.MaxSpeed))
		if err != nil {
			return nil, err
		}
		mob.Start()
		refresh := des.Time(sc.Mobility.RefreshInterval)
		if refresh <= 0 {
			refresh = des.Second
		}
		if _, err := neighbor.PeriodicRefresh(s.Sched, s.Channel, s.Tables, refresh); err != nil {
			return nil, err
		}
	}
	start := s.Sched.Now() // after any bootstrap
	duration := des.Time(sc.Duration)
	if s.tel != nil {
		if err := s.tel.startSampling(s, duration); err != nil {
			return nil, err
		}
	}
	if len(s.parts) > 1 {
		// Partitioned kernel: conservative barrier windows with the PHY
		// propagation delay as lookahead (the earliest cross-partition
		// consequence of any event is a signal START edge one propagation
		// delay later; airtime only extends the END edge). Workers is an
		// execution knob only — the round structure is fixed by the
		// layout, so any worker count produces identical results.
		workers := s.workers
		if workers <= 0 {
			workers = runtime.GOMAXPROCS(0)
		}
		g := &des.Group{
			Parts:     s.parts,
			Lookahead: s.Channel.Params().PropDelay,
			Flush:     s.Channel.FlushCross,
		}
		s.events = g.Run(start+duration, workers)
	} else {
		s.Sched.Run(start + duration)
		s.events = s.Sched.Executed()
	}
	if s.tel != nil {
		if err := s.tel.finish(s); err != nil {
			return nil, err
		}
	}

	res := &Result{
		ThroughputBps:  make([]float64, s.Topology.InnerCount()),
		DelaySec:       make([]float64, s.Topology.InnerCount()),
		CollisionRatio: make([]float64, s.Topology.InnerCount()),
		NodeStats:      make([]mac.Stats, len(s.Nodes)),
	}
	for i, n := range s.Nodes {
		res.NodeStats[i] = n.Stats()
	}
	for i := 0; i < s.Topology.InnerCount(); i++ {
		st := res.NodeStats[i]
		res.ThroughputBps[i] = float64(st.BitsAcked) / duration.Seconds()
		res.DelaySec[i] = st.AvgDelay().Seconds()
		res.CollisionRatio[i] = st.CollisionRatio()
	}
	res.Jain = stats.JainIndex(res.ThroughputBps)
	res.SpatialReuse = s.Channel.TotalTxAirtime().Seconds() / duration.Seconds()
	if total := s.Channel.TotalTxAirtime(); total > 0 {
		res.AirtimeShare = make(map[string]float64, 4)
		for _, ft := range []phy.FrameType{phy.RTS, phy.CTS, phy.Data, phy.ACK} {
			res.AirtimeShare[ft.String()] = s.Channel.TxAirtime(ft).Seconds() / total.Seconds()
		}
	}
	if s.delayRes != nil {
		res.DelaySamplesSec = s.delayRes.Sample()
	}
	return res, nil
}
