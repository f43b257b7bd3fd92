package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer. Spans of one operation (a grid
// cell, a field run, an HTTP request) share req; parent is the id of
// the span that caused this one, 0 for a root.
type span struct {
	ID     int64         `json:"id"`
	Parent int64         `json:"parent"`
	Req    int64         `json:"req"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"startNs"`
	End    time.Duration `json:"endNs"`
}

func (s span) dur() time.Duration { return s.End - s.Start }

// tracer keeps spans in memory until the run ends. All spans are
// recorded by the benchmark around its own calls into the program; the
// program itself is not instrumented. A nil *tracer records nothing, so
// untraced code paths can share helpers with traced ones.
type tracer struct {
	epoch time.Time
	ids   atomic.Int64

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// open starts a span; close records it.
func (t *tracer) open(name string, parent, req int64) span {
	if t == nil {
		return span{}
	}
	return span{ID: t.ids.Add(1), Parent: parent, Req: req, Name: name, Start: time.Since(t.epoch)}
}

func (t *tracer) close(s span) span {
	if t == nil {
		return s
	}
	s.End = time.Since(t.epoch)
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
	return s
}

// durations returns the durations of every recorded span named name.
func (t *tracer) durations(name string) []time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []time.Duration
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, s.dur())
		}
	}
	return out
}

// spanSummary is the per-name aggregate printed at the end of a traced
// run. Self time is a span's duration minus the time its children
// cover; children of one parent never overlap in this benchmark, so
// their durations simply add.
type spanSummary struct {
	Name  string
	Count int
	Total time.Duration
	Self  time.Duration
}

func (t *tracer) summary() []spanSummary {
	t.mu.Lock()
	defer t.mu.Unlock()
	childTime := make(map[int64]time.Duration)
	for _, s := range t.spans {
		if s.Parent != 0 {
			childTime[s.Parent] += s.dur()
		}
	}
	byName := make(map[string]*spanSummary)
	for _, s := range t.spans {
		agg := byName[s.Name]
		if agg == nil {
			agg = &spanSummary{Name: s.Name}
			byName[s.Name] = agg
		}
		agg.Count++
		agg.Total += s.dur()
		agg.Self += s.dur() - childTime[s.ID]
	}
	out := make([]spanSummary, 0, len(byName))
	for _, agg := range byName {
		out = append(out, *agg)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// writeSpans writes every span as one JSON line, in start order.
func (t *tracer) writeSpans(path string) error {
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	sort.Slice(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("write spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}

// printSummary writes the self-time table as report lines.
func (t *tracer) printSummary(w io.Writer) {
	for _, s := range t.summary() {
		fmt.Fprintf(w, "span %-14s count=%-6d total_ms=%.3f self_ms=%.3f\n",
			s.Name, s.Count, ms(s.Total), ms(s.Self))
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
