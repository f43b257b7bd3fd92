package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// metric is one named, unit-carrying number of a run.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// ledger collects a run's metrics by name. set overwrites, so a
// workload may fill a metric in stages.
type ledger map[string]metric

func (l ledger) set(name string, value float64, unit string) {
	l[name] = metric{Value: value, Unit: unit}
}

// names returns the ledger's metric names in sorted order.
func (l ledger) names() []string {
	out := make([]string, 0, len(l))
	for name := range l {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// host is the machine record stored with every result. Two results
// whose records differ were not measured under the same conditions, and
// the compare mode flags them.
type host struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"goVersion"`
	CPUModel   string `json:"cpuModel"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
}

func hostRecord() host {
	return host{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		CPUModel:   cpuModel(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
	}
}

// cpuModel reads the first "model name" of /proc/cpuinfo, or "unknown"
// where that file does not exist.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if name, value, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(name) == "model name" {
			return strings.TrimSpace(value)
		}
	}
	return "unknown"
}

// peakRSSMB is the process's peak resident set size in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}

// quantile returns the q-quantile (0 ≤ q ≤ 1) of xs by linear
// interpolation between order statistics. xs is sorted in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return xs[lo] + (xs[hi]-xs[lo])*(pos-float64(lo))
}

// durationsMS converts durations to float milliseconds.
func durationsMS(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	return out
}

// medianDuration is the median of ds, which it leaves unchanged.
func medianDuration(ds []time.Duration) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = float64(d)
	}
	return time.Duration(quantile(xs, 0.5))
}

// memDelta measures Go heap allocation and GC cycles between two
// snapshots, normalized per operation.
type memDelta struct{ before runtime.MemStats }

func startMem() *memDelta {
	d := &memDelta{}
	runtime.ReadMemStats(&d.before)
	return d
}

// record sets go.alloc_mb and go.gc_cycles, each per operation.
func (d *memDelta) record(l ledger, ops int) {
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	n := float64(max(ops, 1))
	l.set("go.alloc_mb", float64(after.TotalAlloc-d.before.TotalAlloc)/(1<<20)/n, "MB")
	l.set("go.gc_cycles", float64(after.NumGC-d.before.NumGC)/n, "count")
}

// segment is a stretch of a measured window: the operations completed
// in it and the simulated node-seconds they delivered.
type segment struct {
	start    time.Time
	ops      int
	nodeSecs float64
	wall     time.Duration
}

func (s *segment) add(nodeSecs float64) {
	s.ops++
	s.nodeSecs += nodeSecs
}

func (s segment) end() segment {
	s.wall = time.Since(s.start)
	return s
}

// recordEndToEnd sets the end-to-end metrics every workload reports:
// latency quantiles over all operations, and throughput as the median
// over the window's segments. A median of segment rates is steadier
// than one window-wide mean when the host's speed drifts for seconds at
// a time.
func recordEndToEnd(b *bench, lats []time.Duration, segs []segment) {
	xs := durationsMS(lats)
	b.e2e.set("req_p50_ms", quantile(xs, 0.5), "ms")
	b.e2e.set("req_p90_ms", quantile(xs, 0.9), "ms")
	rates := make([]float64, len(segs))
	nodeRates := make([]float64, len(segs))
	for i, s := range segs {
		rates[i] = float64(s.ops) / s.wall.Seconds()
		nodeRates[i] = s.nodeSecs / s.wall.Seconds()
	}
	b.e2e.set("req_per_s", quantile(rates, 0.5), "1/s")
	b.e2e.set("node_sim_s_per_s", quantile(nodeRates, 0.5), "node_s/s")
	b.e2e.set("peak_rss_mb", peakRSSMB(), "MB")
	fmt.Fprintf(b.report, "samples=%d segments=%d\n", len(lats), len(segs))
}
