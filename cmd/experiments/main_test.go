package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/sim"
)

func capture(t *testing.T, fn func() error) (string, error) {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	errRun := fn()
	w.Close()
	os.Stdout = old
	out := make([]byte, 1<<22)
	total := 0
	for {
		n, err := r.Read(out[total:])
		total += n
		if err != nil || n == 0 {
			break
		}
	}
	return string(out[:total]), errRun
}

func TestRunTable1(t *testing.T) {
	out, err := capture(t, func() error { return run([]string{"-run", "table1"}) })
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "Table 1") || !strings.Contains(out, "31-1023") {
		t.Errorf("table1 output: %q", out)
	}
}

func TestRunFig5WithSVG(t *testing.T) {
	dir := t.TempDir()
	out, err := capture(t, func() error {
		return run([]string{"-run", "fig5", "-svg", dir})
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "shape check") {
		t.Errorf("fig5 output missing shape check: %q", out[:min(len(out), 200)])
	}
	for _, name := range []string{"fig5_n3.svg", "fig5_n5.svg", "fig5_n8.svg"} {
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Errorf("missing %s: %v", name, err)
			continue
		}
		if !strings.HasPrefix(string(data), "<svg") {
			t.Errorf("%s is not SVG", name)
		}
	}
}

func TestRunSmallGrid(t *testing.T) {
	out, err := capture(t, func() error {
		return run([]string{"-run", "fig6", "-topologies", "1", "-duration", "150ms"})
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "Fig. 6") {
		t.Errorf("fig6 block missing: %q", out[:min(len(out), 300)])
	}
}

func TestRunBadFlags(t *testing.T) {
	if err := run([]string{"-bogus"}); err == nil {
		t.Error("unknown flag should fail")
	}
	if err := run([]string{"-scenario", "/nonexistent.json"}); err == nil {
		t.Error("missing scenario file should fail")
	}
}

func TestDumpScenario(t *testing.T) {
	out, err := capture(t, func() error {
		return run([]string{"-seed", "3", "-duration", "2s", "-dump-scenario"})
	})
	if err != nil {
		t.Fatal(err)
	}
	sc, err := sim.ParseScenario([]byte(out))
	if err != nil {
		t.Fatal(err)
	}
	if sc.Seed != 3 || sc.Duration.String() != "2s" {
		t.Errorf("dumped scenario seed=%d duration=%v", sc.Seed, sc.Duration)
	}
	// Unset scheme, N and beamwidth take the single-run defaults, so the
	// dump is a scenario the tool itself accepts.
	if sc.Scheme != "DRTS-DCTS" || sc.Topology.N != 5 || sc.BeamwidthDeg != 30 {
		t.Errorf("dumped scenario scheme=%q n=%d beam=%v, want DRTS-DCTS 5 30", sc.Scheme, sc.Topology.N, sc.BeamwidthDeg)
	}
	path := filepath.Join(t.TempDir(), "dump.json")
	if err := os.WriteFile(path, []byte(out), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := capture(t, func() error { return run([]string{"-scenario", path, "-run", "table1"}) }); err != nil {
		t.Errorf("dumped scenario rejected on reload: %v", err)
	}
}

// TestDumpScenarioRoundTrip: -scenario F -dump-scenario prints F itself,
// every section intact, so a study runs exactly the file it was given.
func TestDumpScenarioRoundTrip(t *testing.T) {
	want, err := sim.MarshalScenario(sim.Scenario{
		Scheme:       "DRTS-OCTS",
		BeamwidthDeg: 60,
		Seed:         4,
		Duration:     sim.Duration(150 * time.Millisecond),
		Topology:     sim.TopologySpec{N: 4, Radius: 1.5, Rings: 4},
		Traffic:      sim.TrafficSpec{Kind: "cbr", OfferedLoadBps: 100_000, QueueCap: 16},
		Telemetry:    sim.TelemetrySpec{Interval: sim.Duration(10 * time.Millisecond), MaxNodes: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "f.json")
	if err := os.WriteFile(path, want, 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := capture(t, func() error { return run([]string{"-scenario", path, "-dump-scenario"}) })
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("dump differs from the scenario file\n--- file ---\n%s--- dump ---\n%s", want, got)
	}
}

// TestScenarioBaseConfig: a scenario file supplies the base config for a
// study, overriding -seed/-duration and the study's default density.
func TestScenarioBaseConfig(t *testing.T) {
	path := filepath.Join(t.TempDir(), "base.json")
	spec := `{"scheme":"DRTS-DCTS","beamwidthDeg":60,"seed":5,"duration":"150ms","topology":{"n":3}}`
	if err := os.WriteFile(path, []byte(spec), 0o644); err != nil {
		t.Fatal(err)
	}
	out, err := capture(t, func() error {
		return run([]string{"-run", "delaycdf", "-scenario", path, "-topologies", "1"})
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "delay") && !strings.Contains(out, "Delay") {
		t.Errorf("delaycdf output missing: %q", out[:min(len(out), 300)])
	}
}
