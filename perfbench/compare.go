package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
)

// compare prints, for two sets of saved results (the results directory
// of two checkouts, or any two directories of result files), each
// metric's median and quartiles per workload and side, and the change
// of the medians measured against BENCHMARK.json's bound. Results
// recorded under different host records are flagged and the exit status
// is 3: such a comparison measures the machines, not the change.
func compare(args []string, root string, w io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(w, "usage: perfbench compare OLD_RESULTS_DIR NEW_RESULTS_DIR")
		return 2
	}
	sides := make([][]result, 2)
	for i, dir := range args {
		rs, err := loadResults(dir)
		if err != nil {
			fmt.Fprintln(w, "perfbench:", err)
			return 1
		}
		sides[i] = rs
	}
	bounds := map[string]float64{}
	lowerBetter := map[string]bool{}
	if raw, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json")); err == nil {
		var cat struct {
			EndToEnd []struct {
				Name, Better string
				Bound        float64
			} `json:"end_to_end"`
		}
		if json.Unmarshal(raw, &cat) == nil {
			for _, m := range cat.EndToEnd {
				bounds[m.Name] = m.Bound
				lowerBetter[m.Name] = m.Better == "lower"
			}
		}
	}

	status := 0
	hosts := map[host][]string{}
	for i, rs := range sides {
		for _, r := range rs {
			hosts[r.Host] = append(hosts[r.Host], fmt.Sprintf("%s/%s-seed%d", args[i], r.Workload, r.Seed))
		}
	}
	if len(hosts) > 1 {
		status = 3
		fmt.Fprintln(w, "FLAG: the results come from different host records; medians below compare machines, not code:")
		for h, files := range hosts {
			fmt.Fprintf(w, "  %+v: %d results, e.g. %s\n", h, len(files), files[0])
		}
	}

	type group struct {
		workload string
		trace    int
	}
	values := map[group]map[string][2][]float64{}
	for i, rs := range sides {
		for _, r := range rs {
			g := group{r.Workload, r.Trace}
			if values[g] == nil {
				values[g] = map[string][2][]float64{}
			}
			for name, m := range r.Metrics {
				v := values[g][name]
				v[i] = append(v[i], m.Value)
				values[g][name] = v
			}
		}
	}
	groups := make([]group, 0, len(values))
	for g := range values {
		groups = append(groups, g)
	}
	sort.Slice(groups, func(i, j int) bool {
		if groups[i].workload != groups[j].workload {
			return groups[i].workload < groups[j].workload
		}
		return groups[i].trace < groups[j].trace
	})
	for _, g := range groups {
		fmt.Fprintf(w, "\n%s trace=%d\n%-24s %-34s %-34s %s\n", g.workload, g.trace, "metric", "old median [q1 q3] n", "new median [q1 q3] n", "change")
		names := make([]string, 0, len(values[g]))
		for name := range values[g] {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			v := values[g][name]
			if len(v[0]) == 0 || len(v[1]) == 0 {
				continue
			}
			om, nm := quantile(v[0], 0.5), quantile(v[1], 0.5)
			change := (nm - om) / om
			verdict := ""
			if bound, ok := bounds[name]; ok && g.trace == 0 {
				worse := change
				if !lowerBetter[name] {
					worse = -change
				}
				verdict = fmt.Sprintf("(bound %.0f%%)", 100*bound)
				if worse > bound {
					verdict += " WORSE BEYOND BOUND"
				}
			}
			fmt.Fprintf(w, "%-24s %-34s %-34s %+.1f%% %s\n", name, summarize(v[0]), summarize(v[1]), 100*change, verdict)
		}
	}
	return status
}

// summarize renders median and quartiles the way Python's
// statistics.quantiles(values, n=4) computes them.
func summarize(xs []float64) string {
	q1, q3 := quartiles(xs)
	return fmt.Sprintf("%.4g [%.4g %.4g] %d", quantile(xs, 0.5), q1, q3, len(xs))
}

// quartiles follows statistics.quantiles(xs, n=4) (the "exclusive"
// method); with fewer than two values both quartiles are that value.
func quartiles(xs []float64) (float64, float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		return s[0], s[0]
	}
	q := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := i*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(3)
}

func loadResults(dir string) ([]result, error) {
	files, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, err
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("no result files in %s", dir)
	}
	out := make([]result, 0, len(files))
	for _, f := range files {
		raw, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		var r result
		if err := json.Unmarshal(raw, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", f, err)
		}
		out = append(out, r)
	}
	return out, nil
}
