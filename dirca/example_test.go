package dirca_test

import (
	"fmt"
	"math"

	"repro/dirca"
)

// ExampleMaxThroughput reproduces one Fig. 5 point: the best saturation
// throughput of each scheme with a 30° beam and N = 5.
func ExampleMaxThroughput() {
	mp := dirca.ModelParams{
		N:         5,
		Beamwidth: 30 * math.Pi / 180,
		Lengths:   dirca.PaperLengths(),
	}
	for _, s := range dirca.Schemes() {
		_, th, err := dirca.MaxThroughput(s, mp, 0)
		if err != nil {
			fmt.Println("error:", err)
			return
		}
		fmt.Printf("%s %.3f\n", s, th)
	}
	// Output:
	// ORTS-OCTS 0.320
	// DRTS-DCTS 0.375
	// DRTS-OCTS 0.390
}

// ExampleThroughput evaluates the model at a fixed attempt probability.
func ExampleThroughput() {
	mp := dirca.ModelParams{
		N:         8,
		Beamwidth: math.Pi, // 180°
		Lengths:   dirca.PaperLengths(),
	}
	th, err := dirca.Throughput(dirca.DRTSDCTS, 0.01, mp)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Printf("%.3f\n", th)
	// Output:
	// 0.042
}

// ExampleAttemptProbability solves the readiness→attempt fixed point the
// paper references: p = p₀·(1−p)·e^(−pN).
func ExampleAttemptProbability() {
	p, err := dirca.AttemptProbability(0.1, 5)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Printf("%.4f\n", p)
	// Output:
	// 0.0668
}

// ExampleSimulate runs one small deterministic simulation and reports
// whether the saturated network made progress.
func ExampleSimulate() {
	res, err := dirca.Simulate(dirca.Scenario{
		Scheme:   dirca.ORTSOCTS.String(),
		Topology: dirca.TopologySpec{N: 3},
		Seed:     1,
		Duration: dirca.Duration(500 * dirca.Millisecond),
	})
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Println("inner nodes:", len(res.ThroughputBps))
	fmt.Println("progress:", res.MeanThroughputBps() > 0)
	// Output:
	// inner nodes: 3
	// progress: true
}

// ExampleNewNetwork assembles the classic hidden-terminal scenario
// through the custom-network API.
func ExampleNewNetwork() {
	nw, err := dirca.NewNetwork(dirca.NetworkConfig{
		Scheme:    dirca.ORTSOCTS,
		Positions: []dirca.Position{{X: -0.9}, {X: 0}, {X: 0.9}},
		Flows:     []dirca.Flow{{Src: 0, Dst: 1}, {Src: 2, Dst: 1}},
		Seed:      7,
	})
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	nw.Run(2 * dirca.Second)
	a, c := nw.NodeStats(0), nw.NodeStats(2)
	fmt.Println("both hidden senders progressed:", a.Successes > 0 && c.Successes > 0)
	// Output:
	// both hidden senders progressed: true
}
