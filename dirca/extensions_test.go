package dirca_test

import (
	"math"
	"testing"

	"repro/dirca"
)

func TestAllSchemesFacade(t *testing.T) {
	all := dirca.AllSchemes()
	if len(all) != 4 || all[3] != dirca.ORTSDCTS {
		t.Errorf("AllSchemes = %v", all)
	}
	s, err := dirca.ParseScheme("drts-dcts")
	if err != nil || s != dirca.DRTSDCTS {
		t.Errorf("ParseScheme = %v, %v", s, err)
	}
	if _, err := dirca.ParseScheme("nope"); err == nil {
		t.Error("bad name should fail")
	}
}

func TestAttemptProbabilityFacade(t *testing.T) {
	p, err := dirca.AttemptProbability(0.1, 5)
	if err != nil {
		t.Fatal(err)
	}
	if p <= 0 || p >= 0.1 {
		t.Errorf("p = %v outside (0, p0)", p)
	}
	mp := dirca.ModelParams{N: 5, Beamwidth: math.Pi / 6, Lengths: dirca.PaperLengths()}
	th, err := dirca.ThroughputFromReadiness(dirca.DRTSDCTS, 0.1, mp)
	if err != nil {
		t.Fatal(err)
	}
	if th <= 0 || th >= 1 {
		t.Errorf("throughput = %v", th)
	}
}

func TestFig5SensitivityFacade(t *testing.T) {
	series, err := dirca.Fig5Sensitivity(3, []int{100})
	if err != nil {
		t.Fatal(err)
	}
	if len(series[100]) != 12 {
		t.Errorf("rows = %d, want 12", len(series[100]))
	}
}

func TestSweepFacades(t *testing.T) {
	base := dirca.Scenario{
		Scheme: dirca.DRTSDCTS.String(), BeamwidthDeg: 30, Topology: dirca.TopologySpec{N: 3}, Seed: 6,
		Duration: dirca.Duration(200 * dirca.Millisecond),
	}
	loads, err := dirca.LoadSweep(base, []dirca.Scheme{dirca.ORTSOCTS}, []float64{100_000}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(loads) != 1 {
		t.Errorf("load cells = %d", len(loads))
	}
	speeds, err := dirca.MobilitySweep(base, []dirca.Scheme{dirca.DRTSDCTS}, []float64{0.2}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(speeds) != 1 {
		t.Errorf("mobility cells = %d", len(speeds))
	}
}

func TestModelVsSimFacade(t *testing.T) {
	base := dirca.Scenario{Seed: 6, Duration: dirca.Duration(200 * dirca.Millisecond)}
	rows, err := dirca.ModelVsSim(base, []int{3}, []float64{30}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d, want 3 (one per scheme)", len(rows))
	}
	rho := dirca.SpearmanRank(rows)
	if rho < -1 || rho > 1 {
		t.Errorf("spearman = %v", rho)
	}
}

func TestReuseAndCDFFacades(t *testing.T) {
	base := dirca.Scenario{Seed: 9, Duration: dirca.Duration(200 * dirca.Millisecond)}
	cells, err := dirca.ReuseStudy(base, []dirca.Scheme{dirca.ORTSOCTS}, 3, []float64{30}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 1 || cells[0].Reuse.Mean <= 0 {
		t.Errorf("reuse cells = %+v", cells)
	}
	cdfBase := base
	cdfBase.Topology.N = 3
	rows, err := dirca.DelayCDF(cdfBase, []dirca.Scheme{dirca.ORTSOCTS}, []float64{50, 95})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Errorf("cdf rows = %d", len(rows))
	}
}
