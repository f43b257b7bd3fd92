package des

import (
	"bytes"
	"fmt"
	"reflect"
	"runtime"
	"testing"
	"time"
)

func TestRunBeforeStrictBound(t *testing.T) {
	s := New(1)
	var fired []Time
	for _, at := range []Time{10, 20, 30} {
		at := at
		s.At(at, func() { fired = append(fired, at) })
	}
	if n := s.RunBefore(30); n != 2 {
		t.Fatalf("RunBefore(30) executed %d events, want 2 (strict bound)", n)
	}
	if want := []Time{10, 20}; !reflect.DeepEqual(fired, want) {
		t.Fatalf("fired %v, want %v", fired, want)
	}
	if s.Now() != 20 {
		t.Fatalf("clock advanced to %v, want 20 (last executed event, not the horizon)", s.Now())
	}
	at, ok := s.NextAt()
	if !ok || at != 30 {
		t.Fatalf("NextAt = %v,%v, want 30,true", at, ok)
	}
	s.AdvanceTo(25)
	if s.Now() != 25 {
		t.Fatalf("AdvanceTo(25): clock %v", s.Now())
	}
	s.AdvanceTo(5)
	if s.Now() != 25 {
		t.Fatalf("AdvanceTo never rewinds; clock %v", s.Now())
	}
}

func TestNextAtEmpty(t *testing.T) {
	s := New(1)
	if at, ok := s.NextAt(); ok {
		t.Fatalf("NextAt on empty queue = %v,true, want _,false", at)
	}
}

// pingPong is a two-partition workload whose partitions continuously
// cross-schedule into each other through a staged outbox, exactly the
// shape the PHY produces. Each partition logs every execution; the logs
// must be identical for every worker count.
type pingPong struct {
	parts   []*Scheduler
	outbox  [][]crossEvent // staged by executing partitions, per source
	logs    [][]string
	latency Time
}

type crossEvent struct {
	dst int
	at  Time
	tag string
}

// schedule installs a self-rescheduling callback on partition p that
// fires every interval until limit, staging a cross event to the other
// partition latency later on every firing.
func (pp *pingPong) schedule(p int, start, interval, limit Time) {
	var fire func()
	fire = func() {
		now := pp.parts[p].Now()
		pp.logs[p] = append(pp.logs[p], fmt.Sprintf("p%d@%d", p, now))
		pp.outbox[p] = append(pp.outbox[p], crossEvent{
			dst: 1 - p,
			at:  now + pp.latency,
			tag: fmt.Sprintf("x%d->%d@%d", p, 1-p, now+pp.latency),
		})
		if now+interval <= limit {
			pp.parts[p].Schedule(interval, fire)
		}
	}
	pp.parts[p].At(start, fire)
}

// flush routes staged events in fixed partition order.
func (pp *pingPong) flush() {
	for src := range pp.outbox {
		for _, ev := range pp.outbox[src] {
			ev := ev
			dst := ev.dst
			pp.parts[dst].At(ev.at, func() {
				pp.logs[dst] = append(pp.logs[dst], ev.tag)
			})
		}
		pp.outbox[src] = pp.outbox[src][:0]
	}
}

func runPingPong(workers int, latency, lookahead, until Time) [][]string {
	pp := &pingPong{
		parts:   []*Scheduler{New(1), New(2)},
		outbox:  make([][]crossEvent, 2),
		logs:    make([][]string, 2),
		latency: latency,
	}
	// Deliberately incommensurate intervals so cross events interleave
	// with local ones at awkward offsets.
	pp.schedule(0, 3, 11, 500)
	pp.schedule(1, 5, 13, 500)
	g := &Group{Parts: pp.parts, Lookahead: lookahead, Flush: pp.flush}
	g.Run(until, workers)
	return pp.logs
}

func TestGroupWorkerCountInvariance(t *testing.T) {
	// Latency 7 makes cross arrivals collide with local events at equal
	// timestamps — the tie-heavy regime where worker scheduling could
	// leak into results if the engine were wrong.
	want := runPingPong(1, 7, 7, 600)
	if len(want[0]) == 0 || len(want[1]) == 0 {
		t.Fatal("workload executed nothing")
	}
	atLeastProcs(t, 8)
	for _, workers := range []int{2, 4, 8} {
		got := runPingPong(workers, 7, 7, 600)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("workers=%d: execution logs diverged from workers=1", workers)
		}
	}
}

// TestGroupMatchesSequentialMerge checks the conservative engine against
// a plain single-scheduler run of the same logical workload. At equal
// timestamps the partitioned kernel's FIFO tie-break legitimately
// differs from a global scheduler's (cross-partition events are inserted
// at window boundaries, not at emission), so the workload uses a cross
// latency (1009) that puts every cross arrival strictly after every
// local event time — tie-free, the order must match exactly. The group
// still synchronizes on a much smaller lookahead (7) to keep the window
// structure fine-grained.
func TestGroupMatchesSequentialMerge(t *testing.T) {
	const latency, until = 1009, 2500
	logs := runPingPong(1, latency, 7, until)
	// Reference: simulate both "partitions" on one scheduler. Local
	// events fire in the same (time, insertion) order; cross events are
	// scheduled directly at firing time, no staging needed.
	ref := New(1)
	refLogs := make([][]string, 2)
	var install func(p int, start, interval, limit Time)
	install = func(p int, start, interval, limit Time) {
		var fire func()
		fire = func() {
			now := ref.Now()
			refLogs[p] = append(refLogs[p], fmt.Sprintf("p%d@%d", p, now))
			dst := 1 - p
			tag := fmt.Sprintf("x%d->%d@%d", p, dst, now+latency)
			ref.Schedule(latency, func() { refLogs[dst] = append(refLogs[dst], tag) })
			if now+interval <= limit {
				ref.Schedule(interval, fire)
			}
		}
		ref.At(start, fire)
	}
	install(0, 3, 11, 500)
	install(1, 5, 13, 500)
	ref.Run(until)
	for p := range logs {
		if !reflect.DeepEqual(logs[p], refLogs[p]) {
			t.Errorf("partition %d: conservative window order diverged from the sequential merge\n got %v\nwant %v",
				p, logs[p], refLogs[p])
		}
	}
}

func TestGroupSinglePartitionEqualsRun(t *testing.T) {
	mk := func() (*Scheduler, *[]Time) {
		s := New(9)
		var fired []Time
		var tick func()
		tick = func() {
			fired = append(fired, s.Now())
			if s.Now() < 100 {
				s.Schedule(9, tick)
			}
		}
		s.At(0, tick)
		return s, &fired
	}
	seq, seqLog := mk()
	seq.Run(100)
	par, parLog := mk()
	g := &Group{Parts: []*Scheduler{par}, Lookahead: Microsecond}
	g.Run(100, 4)
	if !reflect.DeepEqual(*seqLog, *parLog) {
		t.Fatalf("single-partition group diverged from Scheduler.Run: %v vs %v", *parLog, *seqLog)
	}
	if seq.Now() != par.Now() {
		t.Fatalf("final clocks differ: %v vs %v", seq.Now(), par.Now())
	}
}

func TestGroupInclusiveUntil(t *testing.T) {
	s := New(1)
	ran := false
	s.At(50, func() { ran = true })
	g := &Group{Parts: []*Scheduler{s}, Lookahead: 1}
	g.Run(50, 2)
	if !ran {
		t.Fatal("event exactly at until did not run (Run's inclusive bound)")
	}
	if s.Now() != 50 {
		t.Fatalf("clock %v, want 50", s.Now())
	}
}

// TestGroupExitBarrier runs many one-round groups on two workers. The
// exit barrier must wait for the worker's exit acknowledgement however
// the two goroutines interleave: a worker that acknowledges before the
// coordinator first looks must not leave the coordinator spinning.
func TestGroupExitBarrier(t *testing.T) {
	atLeastProcs(t, 2)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 20000; i++ {
			g := &Group{Parts: []*Scheduler{New(1), New(2)}, Lookahead: 1}
			for _, p := range g.Parts {
				p.At(0, func() {})
			}
			if n := g.Run(0, 2); n != 2 {
				t.Errorf("run %d executed %d events, want 2", i, n)
				return
			}
		}
	}()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("Group.Run did not return: the exit barrier missed the worker's acknowledgement")
	}
}

// TestGroupParkedWaitersWake: a slow Flush keeps the workers waiting for
// the next phase, and a slow partition keeps the coordinator waiting for
// arrivals, both long enough to park. Every publish must wake the
// parked side, or Run never returns.
func TestGroupParkedWaitersWake(t *testing.T) {
	workers := runtime.NumCPU() + 2 // more workers than CPUs: Run parks
	atLeastProcs(t, workers)
	g := &Group{Lookahead: 1}
	for i := 0; i < 2*workers; i++ {
		s := New(int64(i))
		for at := Time(0); at < 40; at += 4 {
			if i == 1 {
				s.At(at, func() { time.Sleep(100 * time.Microsecond) })
			} else {
				s.At(at, func() {})
			}
		}
		g.Parts = append(g.Parts, s)
	}
	g.Flush = func() { time.Sleep(100 * time.Microsecond) }
	done := make(chan uint64)
	go func() { done <- g.Run(40, workers) }()
	select {
	case n := <-done:
		if want := uint64(len(g.Parts) * 10); n != want {
			t.Fatalf("executed %d events, want %d", n, want)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("Group.Run did not return: a parked waiter missed its wakeup")
	}
}

// atLeastProcs raises GOMAXPROCS to at least n until the test ends.
// Group.Run clamps workers to GOMAXPROCS, and GOMAXPROCS may exceed the
// core count, so a test that names a worker count runs that many on any
// host.
func atLeastProcs(t *testing.T, n int) {
	t.Helper()
	if prev := runtime.GOMAXPROCS(0); prev < n {
		runtime.GOMAXPROCS(n)
		t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
	}
}

// TestGroupWorkersClampedToGOMAXPROCS: a worker beyond the core count
// only spins at the barrier, so Run clamps workers to GOMAXPROCS. Flush
// runs on the coordinator while every worker goroutine waits, so the
// count seen there is base plus the workers Run started (the coordinator
// is worker 0 and runs on the caller's goroutine). With GOMAXPROCS
// raised, Run starts every worker asked for.
func TestGroupWorkersClampedToGOMAXPROCS(t *testing.T) {
	const parts = 16
	newGroup := func() *Group {
		g := &Group{Lookahead: 1}
		for i := 0; i < parts; i++ {
			s := New(int64(i))
			for at := Time(i % 7); at < 200; at += 7 {
				s.At(at, func() {})
			}
			g.Parts = append(g.Parts, s)
		}
		return g
	}
	procs := runtime.GOMAXPROCS(0)
	base := runtime.NumGoroutine()
	peak := 0
	g := newGroup()
	g.Flush = func() { peak = max(peak, runtime.NumGoroutine()) }
	g.Run(200, 64*procs)
	if limit := base + procs - 1; peak > limit {
		t.Fatalf("%d goroutines during Flush with GOMAXPROCS=%d, want at most %d (base %d)",
			peak, procs, limit, base)
	}

	// Count worker frames rather than goroutines: a worker of an earlier
	// run that is still exiting can only add to this count.
	const want = 4
	atLeastProcs(t, want)
	buf := make([]byte, 1<<20)
	seen := 0
	g = newGroup()
	g.Flush = func() {
		n := runtime.Stack(buf, true)
		seen = max(seen, bytes.Count(buf[:n], []byte("des.(*Group).worker(")))
	}
	g.Run(200, want)
	if seen < want-1 {
		t.Fatalf("%d worker goroutines during Flush with GOMAXPROCS >= %d, want %d", seen, want, want-1)
	}
}
