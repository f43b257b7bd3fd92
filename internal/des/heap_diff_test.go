package des

// Differential test of the scheduler's queue (fixed-delay lane plus typed
// min-heap) against the stdlib container/heap implementation the
// scheduler originally used. Both sides execute the same program of
// inserts, cancellations and clock advances through one interpreter; the
// firing order must match exactly, including FIFO tie-breaking among
// simultaneous events, and Now, NextAt, Pending and ActivePending are
// compared after every operation. The programs come from two generators
// — uniformly random due times, and a workload dominated by one fixed
// delay like the MAC's backoff slots — and from FuzzSchedulerOrder.

import (
	"container/heap"
	"encoding/binary"
	"math/rand"
	"testing"
)

// refTimer mirrors the scheduler's queue entry for the reference heap.
type refTimer struct {
	at    Time
	seq   uint64
	id    int
	index int
	inert bool
}

// refHeap is the container/heap-backed reference: a min-heap over
// (at, seq) with index maintenance, exactly like the pre-optimization
// scheduler queue.
type refHeap []*refTimer

func (h refHeap) Len() int { return len(h) }

func (h refHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}

func (h refHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}

func (h *refHeap) Push(x any) {
	tm := x.(*refTimer)
	tm.index = len(*h)
	*h = append(*h, tm)
}

func (h *refHeap) Pop() any {
	old := *h
	n := len(old)
	tm := old[n-1]
	old[n-1] = nil
	tm.index = -1
	*h = old[:n-1]
	return tm
}

// opKind is one instruction of a scheduler program.
type opKind uint8

const (
	opAt         opKind = iota // At(arg): absolute due time, clamped when in the past
	opSchedule                 // Schedule(arg)
	opTicker                   // ScheduleInert(arg&0xffff), re-arming itself arg>>16 times
	opAtPast                   // At(Now()-arg): always clamps to a zero delay
	opCancelLive               // cancel the live timer at reference-heap slot arg%len
	opCancelAny                // cancel the handle of any id ever issued; stale ones must fail
	opCancelLane               // cancel the lane's head, middle or tail entry, or all of them (arg%4)
	opRun                      // Run(Now()+arg)
	opRunBefore                // RunBefore(Now()+arg)
	opStep                     // Step()
	numOps
)

// op is one decoded instruction. arg uses at most 24 bits so every
// program has a 4-byte-per-op encoding for the fuzz corpus.
type op struct {
	kind opKind
	arg  uint32
}

const maxArg = 1<<24 - 1

// encodeProgram is the inverse of decodeProgram.
func encodeProgram(prog []op) []byte {
	b := make([]byte, 0, 4*len(prog))
	for _, o := range prog {
		b = binary.LittleEndian.AppendUint32(b, uint32(o.kind)|o.arg<<8)
	}
	return b
}

// decodeProgram reads 4 bytes per op: the kind in the low byte, the
// argument in the upper 24 bits.
func decodeProgram(b []byte) []op {
	prog := make([]op, 0, len(b)/4)
	for ; len(b) >= 4; b = b[4:] {
		w := binary.LittleEndian.Uint32(b)
		prog = append(prog, op{kind: opKind(w&0xff) % numOps, arg: w >> 8})
	}
	return prog
}

// diffHarness runs one program on a Scheduler and on the reference heap
// in lockstep: every callback pops the reference and checks it fired the
// reference's minimum at the reference's due time.
type diffHarness struct {
	t       testing.TB
	s       *Scheduler
	ref     refHeap
	refSeq  uint64
	now     Time
	handles []Timer        // id -> scheduler handle
	refs    []*refTimer    // id -> reference entry (index -1 once gone)
	ids     map[*timer]int // queue entry -> id of the timer it currently carries
	fired   uint64
	claims  int  // times a non-empty lane was seen holding a new delay
	laneD   Time // the delay it held then
}

func newDiffHarness(t testing.TB) *diffHarness {
	return &diffHarness{t: t, s: New(0), ids: make(map[*timer]int), laneD: -1}
}

// schedule inserts one timer at absolute time at on both sides. A
// ticker re-arms at the same delay rearm more times when it fires.
func (h *diffHarness) schedule(at Time, inert bool, delay Time, rearm int) {
	id := len(h.handles)
	fire := func() { h.fire(id, inert, delay, rearm) }
	var tm Timer
	if inert {
		tm = h.s.AtInert(at, fire)
	} else {
		tm = h.s.At(at, fire)
	}
	if at < h.now {
		at = h.now
	}
	if tm.When() != at {
		h.t.Fatalf("id %d: handle due at %d, reference %d", id, tm.When(), at)
	}
	h.refSeq++
	rt := &refTimer{at: at, seq: h.refSeq, id: id, inert: inert}
	heap.Push(&h.ref, rt)
	h.handles = append(h.handles, tm)
	h.refs = append(h.refs, rt)
	h.ids[tm.tm] = id
}

func (h *diffHarness) fire(id int, inert bool, delay Time, rearm int) {
	if h.ref.Len() == 0 {
		h.t.Fatalf("scheduler fired %d, reference is empty", id)
	}
	rt := heap.Pop(&h.ref).(*refTimer)
	if rt.id != id {
		h.t.Fatalf("firing order diverged: scheduler %d, reference %d", id, rt.id)
	}
	if h.s.Now() != rt.at {
		h.t.Fatalf("id %d fired at %d, reference due %d", id, h.s.Now(), rt.at)
	}
	if h.handles[id].Active() {
		h.t.Fatalf("id %d still active inside its own callback", id)
	}
	h.now = rt.at
	h.fired++
	if rearm > 0 {
		h.schedule(h.now+delay, inert, delay, rearm-1)
	}
}

// cancel cancels id on both sides and checks the result matches the
// reference's view of whether id was still pending.
func (h *diffHarness) cancel(id int) {
	rt := h.refs[id]
	live := rt.index >= 0
	if got := h.s.Cancel(h.handles[id]); got != live {
		h.t.Fatalf("Cancel(id %d) = %v, reference pending %v", id, got, live)
	}
	if live {
		heap.Remove(&h.ref, rt.index)
	}
	if h.handles[id].Active() {
		h.t.Fatalf("id %d active after Cancel", id)
	}
}

// liveLane lists the ids queued in the lane, head first.
func (h *diffHarness) liveLane() []int {
	var ids []int
	for _, tm := range h.s.lane[h.s.laneHead:] {
		if tm != nil {
			ids = append(ids, h.ids[tm])
		}
	}
	return ids
}

func (h *diffHarness) exec(o op) {
	s := h.s
	arg := Time(o.arg)
	before := h.fired
	switch o.kind {
	case opAt:
		h.schedule(arg, false, 0, 0)
	case opSchedule:
		h.schedule(s.Now()+arg, false, 0, 0)
	case opTicker:
		d := arg & 0xffff
		h.schedule(s.Now()+d, true, d, int(arg>>16)%16)
	case opAtPast:
		h.schedule(s.Now()-arg, false, 0, 0)
	case opCancelLive:
		if n := h.ref.Len(); n > 0 {
			h.cancel(h.ref[int(o.arg)%n].id)
		}
	case opCancelAny:
		if n := len(h.handles); n > 0 {
			h.cancel(int(o.arg) % n)
		}
	case opCancelLane:
		lane := h.liveLane()
		if len(lane) == 0 {
			break
		}
		switch o.arg % 4 {
		case 0:
			h.cancel(lane[0])
		case 1:
			h.cancel(lane[len(lane)/2])
		case 2:
			h.cancel(lane[len(lane)-1])
		default:
			for _, id := range lane {
				h.cancel(id)
			}
			if s.laneLive != 0 || len(s.lane) != 0 {
				h.t.Fatalf("lane not empty after cancelling every entry: live %d, len %d", s.laneLive, len(s.lane))
			}
		}
	case opRun:
		until := s.Now() + arg
		n := s.Run(until)
		if n != h.fired-before {
			h.t.Fatalf("Run reported %d events, callbacks saw %d", n, h.fired-before)
		}
		if h.ref.Len() > 0 && h.ref[0].at <= until {
			h.t.Fatalf("Run(%d) left id %d due at %d", until, h.ref[0].id, h.ref[0].at)
		}
		if h.now < until {
			h.now = until
		}
	case opRunBefore:
		horizon := s.Now() + arg
		n := s.RunBefore(horizon)
		if n != h.fired-before {
			h.t.Fatalf("RunBefore reported %d events, callbacks saw %d", n, h.fired-before)
		}
		if h.ref.Len() > 0 && h.ref[0].at < horizon {
			h.t.Fatalf("RunBefore(%d) left id %d due at %d", horizon, h.ref[0].id, h.ref[0].at)
		}
	case opStep:
		want := h.ref.Len() > 0
		if got := s.Step(); got != want || (h.fired-before == 1) != want {
			h.t.Fatalf("Step = %v after %d callbacks, reference had pending %v", got, h.fired-before, want)
		}
	}
	h.check()
}

// check compares the observable queue state with the reference and
// verifies the lane's structural invariants.
func (h *diffHarness) check() {
	s := h.s
	if s.Now() != h.now {
		h.t.Fatalf("Now = %d, reference %d", s.Now(), h.now)
	}
	if s.Pending() != h.ref.Len() {
		h.t.Fatalf("Pending = %d, reference %d", s.Pending(), h.ref.Len())
	}
	active := 0
	for _, rt := range h.ref {
		if !rt.inert {
			active++
		}
	}
	if s.ActivePending() != active {
		h.t.Fatalf("ActivePending = %d, reference %d", s.ActivePending(), active)
	}
	at, ok := s.NextAt()
	if ok != (h.ref.Len() > 0) || ok && at != h.ref[0].at {
		h.t.Fatalf("NextAt = (%d, %v), reference %v", at, ok, h.ref)
	}

	live := 0
	var prev *timer
	for i, tm := range s.lane[:cap(s.lane)] {
		if tm == nil {
			continue
		}
		if i < s.laneHead || i >= len(s.lane) {
			h.t.Fatalf("lane slot %d outside [%d, %d) holds a timer", i, s.laneHead, len(s.lane))
		}
		if !tm.inLane || int(tm.index) != i {
			h.t.Fatalf("lane slot %d: inLane %v, index %d", i, tm.inLane, tm.index)
		}
		if prev != nil && !s.less(prev, tm) {
			h.t.Fatalf("lane out of order at slot %d: (%d, %d) after (%d, %d)", i, tm.at, tm.seq, prev.at, prev.seq)
		}
		prev = tm
		live++
	}
	if live != s.laneLive {
		h.t.Fatalf("lane holds %d timers, laneLive %d", live, s.laneLive)
	}
	if live > 0 && s.lane[s.laneHead] == nil {
		h.t.Fatal("lane head slot is nil while the lane is live")
	}
	if len(s.lane) > 0 && 2*s.laneHead >= len(s.lane) {
		h.t.Fatalf("lane head %d past half its length %d", s.laneHead, len(s.lane))
	}
	if live > 0 && s.laneD != h.laneD {
		h.claims++
		h.laneD = s.laneD
	}
}

// run executes prog and then drains both sides completely.
func (h *diffHarness) run(prog []op) {
	h.check()
	for _, o := range prog {
		h.exec(o)
	}
	h.s.RunAll()
	if h.ref.Len() != 0 {
		h.t.Fatalf("drain: reference still holds %d timers", h.ref.Len())
	}
	h.check()
	if len(h.s.lane) != 0 || len(h.s.heap) != 0 {
		h.t.Fatalf("drained scheduler holds lane %d, heap %d", len(h.s.lane), len(h.s.heap))
	}
}

// randomDelayProgram is the original differential workload: due times
// uniform over a wide window, so the lane is claimed and drained by
// chance and nearly every insert goes through the heap.
func randomDelayProgram(rng *rand.Rand) []op {
	prog := make([]op, 0, 2000)
	for len(prog) < cap(prog) {
		switch r := rng.Intn(10); {
		case r < 6:
			prog = append(prog, op{opAt, uint32(rng.Intn(100000))})
		case r < 8:
			prog = append(prog, op{opCancelLive, uint32(rng.Intn(maxArg))})
		default:
			prog = append(prog, op{opRun, uint32(rng.Intn(20000))})
		}
	}
	return prog
}

// fixedDelayProgram mimics the MAC: most inserts share one delay (a
// backoff slot), a few percent use other delays or clamp from the past,
// and cancellations hit the lane head, middle and tail. The common
// delay changes between phases, and whole-lane cancels drain the lane,
// so the lane is re-claimed for different delays within one program.
func fixedDelayProgram(rng *rand.Rand) []op {
	slots := []uint32{20, 7, 20, 1}
	prog := make([]op, 0, 3000)
	for len(prog) < cap(prog) {
		d := slots[len(prog)/500%len(slots)]
		switch r := rng.Intn(100); {
		case r < 40:
			prog = append(prog, op{opSchedule, d})
		case r < 55:
			prog = append(prog, op{opTicker, d | uint32(rng.Intn(16))<<16})
		case r < 62:
			prog = append(prog, op{opSchedule, uint32(rng.Intn(200))})
		case r < 66:
			prog = append(prog, op{opAtPast, uint32(rng.Intn(50))})
		case r < 72:
			prog = append(prog, op{opCancelLive, uint32(rng.Intn(maxArg))})
		case r < 78:
			prog = append(prog, op{opCancelLane, uint32(rng.Intn(4))})
		case r < 80:
			prog = append(prog, op{opCancelAny, uint32(rng.Intn(maxArg))})
		case r < 88:
			prog = append(prog, op{opRun, uint32(rng.Intn(3 * int(d)))})
		case r < 94:
			prog = append(prog, op{opRunBefore, uint32(rng.Intn(3 * int(d)))})
		default:
			prog = append(prog, op{opStep, 0})
		}
	}
	return prog
}

// trialSeed is the seed of differential trial i.
func trialSeed(i int) int64 { return int64(i)*1009 + 1 }

const diffTrials = 50

// TestTypedHeapMatchesContainerHeap drives the scheduler and the
// reference heap with identical random insert/cancel workloads and
// checks they agree on the exact firing order.
func TestTypedHeapMatchesContainerHeap(t *testing.T) {
	for trial := 0; trial < diffTrials; trial++ {
		newDiffHarness(t).run(randomDelayProgram(rand.New(rand.NewSource(trialSeed(trial)))))
	}
}

// TestFixedDelayLaneMatchesContainerHeap is the same differential check
// on workloads dominated by one fixed delay, where the lane carries most
// of the traffic and is re-claimed as the common delay changes.
func TestFixedDelayLaneMatchesContainerHeap(t *testing.T) {
	claims := 0
	for trial := 0; trial < diffTrials; trial++ {
		h := newDiffHarness(t)
		h.run(fixedDelayProgram(rand.New(rand.NewSource(trialSeed(trial)))))
		claims += h.claims
	}
	// Each program switches the common delay several times and cancels
	// the whole lane often; far fewer claims means the workload stopped
	// exercising re-claim.
	if claims < 10*diffTrials {
		t.Fatalf("lane claimed %d times over %d trials; the workload no longer re-claims it", claims, diffTrials)
	}
}

// TestLaneCancelPositions pins the cancellation cases one by one on a
// lane of five entries: head, middle, tail, then the rest.
func TestLaneCancelPositions(t *testing.T) {
	h := newDiffHarness(t)
	prog := []op{
		{opSchedule, 20}, {opSchedule, 20}, {opSchedule, 20}, {opSchedule, 20}, {opSchedule, 20},
		{opSchedule, 5}, // heap
		{opCancelLane, 0},
		{opCancelLane, 1},
		{opCancelLane, 2},
		{opCancelLane, 3},
		{opAtPast, 9}, // clamps to d=0 and re-claims the drained lane
		{opSchedule, 0},
		{opSchedule, 20}, // heap now
	}
	for _, o := range prog {
		h.exec(o)
	}
	if h.s.laneD != 0 || h.s.laneLive != 2 || len(h.s.heap) != 2 {
		t.Fatalf("after re-claim: lane delay %d holding %d, heap %d; want delay 0 holding 2, heap 2", h.s.laneD, h.s.laneLive, len(h.s.heap))
	}
	h.run([]op{{opStep, 0}, {opRun, 100}})
	if h.claims != 2 {
		t.Fatalf("lane claimed %d delays, want 2", h.claims)
	}
}

// FuzzSchedulerOrder runs arbitrary programs through the differential
// interpreter. The seed corpus is the encoded programs of every trial
// above.
func FuzzSchedulerOrder(f *testing.F) {
	for trial := 0; trial < diffTrials; trial++ {
		f.Add(encodeProgram(randomDelayProgram(rand.New(rand.NewSource(trialSeed(trial))))))
		f.Add(encodeProgram(fixedDelayProgram(rand.New(rand.NewSource(trialSeed(trial))))))
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		prog := decodeProgram(b)
		if len(prog) > 4096 {
			prog = prog[:4096]
		}
		newDiffHarness(t).run(prog)
	})
}
