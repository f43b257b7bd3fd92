// Command perfbench is the repository's benchmark. It drives the
// simulator from outside, through the public functions of internal/sim,
// internal/cache and internal/server and a loopback HTTP client, on
// three workloads (paper-grid, field-10k, served-mix; see README.md).
// Every input follows from --seed, every output is checked, and the last
// line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 a
// traced run records spans and counts at each layer boundary and the
// metrics are the per-layer ones. The metric names must match
// BENCHMARK.json at the checkout root.
//
// Usage, from the checkout root:
//
//	bash perfbench/run.sh --workload paper-grid --seed 1 --seconds 10 --trace 0
//	bash perfbench/run.sh compare OLD_RESULTS_DIR NEW_RESULTS_DIR
//
// Each run also saves its record (metrics, report-only figures and the
// host record) under .bench_build/perfbench/results, where compare
// reads it.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"
)

var workloads = map[string]func(*bench) error{
	"paper-grid": runPaperGrid,
	"field-10k":  runField,
	"served-mix": runServed,
}

// bench is the state of one benchmark run.
type bench struct {
	workload string
	seed     int64
	window   time.Duration // measured time per pass
	t        *tracer       // nil on untraced runs
	out      string        // directory for results, spans and temp dirs
	report   io.Writer

	e2e   ledger // end-to-end metrics (untraced runs)
	layer ledger // per-layer metrics (traced runs)
	extra ledger // report-only figures

	attempted, failed int
}

func (b *bench) traced() bool { return b.t != nil }

// count records one attempted operation or check; a non-nil err marks
// it failed.
func (b *bench) count(what string, err error) {
	b.attempted++
	if err != nil {
		b.failed++
		fmt.Fprintf(os.Stderr, "perfbench: FAIL %s: %v\n", what, err)
	}
}

// about prefixes a failure with the input it concerns; it keeps nil
// as nil, so callers build no message on the success path.
func about(input []byte, err error) error {
	if err == nil {
		return nil
	}
	return fmt.Errorf("%s: %w", input, err)
}

// setupRepeats is how many times each run sets its workload up.
const setupRepeats = 5

// setups runs the workload's set-up n times and reports the median as
// setup_s. Repeating it keeps the figure steady; each call must leave
// the state the measurement uses.
func (b *bench) setups(n int, setup func() error) error {
	ds := make([]time.Duration, 0, n)
	for i := 0; i < n; i++ {
		start := time.Now()
		if err := setup(); err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		ds = append(ds, time.Since(start))
	}
	b.e2e.set("setup_s", medianDuration(ds).Seconds(), "s")
	return nil
}

func main() {
	status, err := run(os.Args[1:], os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	os.Exit(status)
}

// run parses the command line and either measures one workload or, for
// "compare OLD NEW", compares saved results. It returns the exit status.
func run(args []string, stdout io.Writer) (int, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload: paper-grid, field-10k or served-mix")
	seed := fs.Int64("seed", 1, "workload seed; every input is derived from it")
	seconds := fs.Int("seconds", 10, "measured seconds per pass")
	trace := fs.Int("trace", 0, "1 records spans and reports per-layer metrics")
	root := fs.String("root", ".", "checkout root holding BENCHMARK.json")
	out := fs.String("out", ".bench_build/perfbench", "output directory, relative to -root unless absolute")
	if err := fs.Parse(args); err != nil {
		return 0, err
	}
	if fs.Arg(0) == "compare" {
		return compare(fs.Args()[1:], *root, stdout), nil
	}
	runWorkload, ok := workloads[*workload]
	if !ok {
		return 0, fmt.Errorf("unknown workload %q (want paper-grid, field-10k or served-mix)", *workload)
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		return 0, fmt.Errorf("want --seconds >= 1 and --trace 0 or 1")
	}
	declared, err := readDeclared(filepath.Join(*root, "BENCHMARK.json"))
	if err != nil {
		return 0, err
	}
	outDir := *out
	if !filepath.IsAbs(outDir) {
		outDir = filepath.Join(*root, outDir)
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return 0, err
	}

	b := &bench{
		workload: *workload, seed: *seed, window: time.Duration(*seconds) * time.Second,
		out: outDir, report: stdout, e2e: ledger{}, layer: ledger{}, extra: ledger{},
	}
	if *trace == 1 {
		b.t = newTracer()
	}
	h := hostRecord()
	hostJSON, _ := json.Marshal(h) // a struct of strings and ints always marshals
	fmt.Fprintf(stdout, "perfbench workload=%s seed=%d seconds=%d trace=%d\nhost %s\n",
		b.workload, b.seed, *seconds, *trace, hostJSON)
	if err := runWorkload(b); err != nil {
		return 0, err
	}

	metrics, want := b.e2e, declared.EndToEnd
	if b.traced() {
		metrics, want = b.layer, declared.PerLayer
	}
	if err := matchDeclared(metrics, want); err != nil {
		return 0, err
	}
	b.extra.set("failed_ratio", float64(b.failed)/float64(max(b.attempted, 1)), "ratio")
	for _, l := range []ledger{metrics, b.extra} {
		for _, name := range l.names() {
			fmt.Fprintf(stdout, "metric %-22s %.6g %s\n", name, l[name].Value, l[name].Unit)
		}
	}
	if b.traced() {
		b.t.printSummary(stdout)
		spans := filepath.Join(outDir, fmt.Sprintf("spans-%s-seed%d.jsonl", b.workload, b.seed))
		if err := b.t.writeSpans(spans); err != nil {
			return 0, err
		}
		fmt.Fprintf(stdout, "spans written to %s\n", spans)
	}
	res := result{
		Workload: b.workload, Seed: b.seed, Seconds: *seconds, Trace: *trace, Host: h,
		Correct: b.failed == 0, Attempted: b.attempted, Failed: b.failed,
		Metrics: metrics, Extra: b.extra,
	}
	if err := res.save(outDir); err != nil {
		return 0, err
	}
	line, err := json.Marshal(struct {
		Correct   bool   `json:"correct"`
		Attempted int    `json:"attempted"`
		Failed    int    `json:"failed"`
		Metrics   ledger `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, metrics})
	if err != nil {
		return 0, err
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0, nil
}

// declared is the metric catalog of BENCHMARK.json.
type declared struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

func readDeclared(path string) (declared, error) {
	var d declared
	raw, err := os.ReadFile(path)
	if err != nil {
		return d, fmt.Errorf("read metric catalog: %w", err)
	}
	if err := json.Unmarshal(raw, &d); err != nil {
		return d, fmt.Errorf("parse %s: %w", path, err)
	}
	return d, nil
}

// matchDeclared insists that a run reports exactly the declared
// metrics, with the declared units.
func matchDeclared(got ledger, want []struct{ Name, Unit string }) error {
	if len(got) != len(want) {
		return fmt.Errorf("run produced %d metrics, BENCHMARK.json declares %d: %v", len(got), len(want), got.names())
	}
	for _, w := range want {
		m, ok := got[w.Name]
		if !ok {
			return fmt.Errorf("run did not produce declared metric %s", w.Name)
		}
		if m.Unit != w.Unit {
			return fmt.Errorf("metric %s has unit %s, BENCHMARK.json declares %s", w.Name, m.Unit, w.Unit)
		}
	}
	return nil
}

// result is the record of one run kept under the output directory for
// the compare mode.
type result struct {
	Workload  string `json:"workload"`
	Seed      int64  `json:"seed"`
	Seconds   int    `json:"seconds"`
	Trace     int    `json:"trace"`
	Host      host   `json:"host"`
	Correct   bool   `json:"correct"`
	Attempted int    `json:"attempted"`
	Failed    int    `json:"failed"`
	Metrics   ledger `json:"metrics"`
	Extra     ledger `json:"extra"`
}

func (r result) save(dir string) error {
	dir = filepath.Join(dir, "results")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	name := fmt.Sprintf("%s-seed%d-trace%d.json", r.Workload, r.Seed, r.Trace)
	return os.WriteFile(filepath.Join(dir, name), append(b, '\n'), 0o644)
}
