// Command bench runs the repository's hot-path benchmarks and records the
// results as a JSON artifact, so the performance trajectory of the
// simulator is tracked in the repo rather than in commit messages.
//
// It shells out to `go test -bench -benchmem`, parses the standard bench
// output (including custom b.ReportMetric columns), and writes one JSON
// document with ns/op, B/op, allocs/op and any extra metrics per
// benchmark.
//
// Examples:
//
//	bench                              # hot-path set -> BENCH_<today>.json
//	bench -bench 'Fig6' -o fig6.json   # any benchmark regexp
//	bench -count 5 -benchtime 2x -o -  # repeat runs, write to stdout
//	bench -compare BENCH_after.json    # gate: non-zero exit if ns/op or
//	                                   # allocs/op regressed >10% (set
//	                                   # -max-regress to tune)
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"time"
)

// hotPathBenchmarks is the default set: the event-kernel micro-benches
// (mixed delays, and the MAC's fixed-delay mix), the channel
// micro-bench, the end-to-end cost of one simulated second (dense and
// sparse), the analytical Fig. 5 sweep, the result cache cold/warm
// pair, the fast-forward on/off pair over the sparse scenario, the
// partitioned parallel kernel (sequential vs 1-worker vs 4-worker), and
// the 10⁴-node scale trio (Build allocations, mobility churn
// incremental vs full rebuild, end-to-end event throughput).
const hotPathBenchmarks = "^(BenchmarkScheduler|BenchmarkSchedulerFixedDelay|BenchmarkChannelBroadcast|BenchmarkSimulationSecond|BenchmarkSimulationSecondSparse|BenchmarkFig5|BenchmarkScenarioCache|BenchmarkTelemetryOff|BenchmarkTelemetryOn|BenchmarkFastForwardOn|BenchmarkFastForwardOff|BenchmarkParallelKernel|BenchmarkBuildLargeN|BenchmarkMobilityChurn|BenchmarkScaleSimulationSecond|BenchmarkServedScenario)$"

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// Report is the JSON artifact written by this command.
type Report struct {
	// Date is the run date (YYYY-MM-DD).
	Date string `json:"date"`
	// GoVersion, GOOS, GOARCH and CPUs describe the machine, since ns/op
	// is only comparable within one environment.
	GoVersion string `json:"go_version"`
	GOOS      string `json:"goos"`
	GOARCH    string `json:"goarch"`
	CPUs      int    `json:"cpus"`
	// Command is the `go test` invocation that produced the results.
	Command string `json:"command"`
	// Results holds one entry per benchmark result line, in output order
	// (repeated lines from -count stay separate).
	Results []Result `json:"results"`
}

// Result is one parsed benchmark output line.
type Result struct {
	// Name is the benchmark name including any -cpu suffix (e.g.
	// "BenchmarkScheduler-8").
	Name string `json:"name"`
	// Iterations is the measured b.N.
	Iterations int64 `json:"iterations"`
	// NsPerOp, BytesPerOp and AllocsPerOp are the standard columns
	// (bytes/allocs require -benchmem and are -1 when absent).
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
	// Extra holds custom b.ReportMetric columns (e.g. "Kbps/node").
	Extra map[string]float64 `json:"extra,omitempty"`
}

func run(args []string, stdout *os.File) error {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	var (
		bench     = fs.String("bench", hotPathBenchmarks, "benchmark regexp passed to go test")
		benchtime = fs.String("benchtime", "", "go test -benchtime value (e.g. 100x, 2s)")
		count     = fs.Int("count", 1, "go test -count value")
		pkg       = fs.String("pkg", "repro", "package pattern holding the benchmarks")
		out       = fs.String("o", "", `output path ("-" for stdout; default BENCH_<date>.json)`)
		compare   = fs.String("compare", "", "baseline bench JSON to gate against; exit non-zero on regression")
		maxRegr   = fs.Float64("max-regress", 10, "allowed ns/op and allocs/op growth over the baseline, in percent")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	goArgs := []string{"test", "-run", "^$", "-bench", *bench, "-benchmem",
		"-count", fmt.Sprint(*count)}
	if *benchtime != "" {
		goArgs = append(goArgs, "-benchtime", *benchtime)
	}
	goArgs = append(goArgs, *pkg)

	cmd := exec.Command("go", goArgs...)
	cmd.Stderr = os.Stderr
	raw, err := cmd.Output()
	if err != nil {
		return fmt.Errorf("go %v: %w", goArgs, err)
	}
	results, err := ParseBenchOutput(string(raw))
	if err != nil {
		return err
	}
	if len(results) == 0 {
		return fmt.Errorf("no benchmark results matched %q", *bench)
	}
	report := Report{
		Date:      time.Now().Format("2006-01-02"), //desalint:ignore wallclock report metadata stamp; no simulation result depends on it
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		CPUs:      runtime.NumCPU(),
		Command:   "go " + fmt.Sprint(goArgs),
		Results:   results,
	}
	path := *out
	if path == "" {
		path = fmt.Sprintf("BENCH_%s.json", report.Date)
	}
	var w *os.File
	if path == "-" {
		w = stdout
	} else {
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
		fmt.Fprintf(os.Stderr, "bench: writing %s\n", path)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(report); err != nil {
		return err
	}
	if *compare != "" {
		baseline, err := LoadReport(*compare)
		if err != nil {
			return err
		}
		cmps := CompareReports(baseline, report, *maxRegr)
		if len(cmps) == 0 {
			return fmt.Errorf("no benchmarks in common with baseline %s", *compare)
		}
		if n := WriteComparison(os.Stderr, cmps, *maxRegr); n > 0 {
			return fmt.Errorf("%d benchmark(s) regressed beyond %.1f%% of %s", n, *maxRegr, *compare)
		}
		fmt.Fprintf(os.Stderr, "bench: no regressions beyond %.1f%% of %s\n", *maxRegr, *compare)
	}
	return nil
}
