// Package des is a deterministic discrete-event simulation kernel: a
// monotonic virtual clock, an event queue with stable FIFO ordering among
// simultaneous events, cancellable timers, and a seeded random stream. It
// is single-threaded by design — protocol models run as callbacks on the
// scheduler goroutine, which makes runs exactly reproducible for a given
// seed.
//
// The event queue is built for the MAC workload: millions of schedules
// per simulated second, most of them canceled before they fire, and most
// of the rest one backoff slot long. It has two parts ordered by the same
// (due time, scheduling sequence) key:
//
//   - a fixed-delay FIFO lane. The first insert that finds the lane
//     empty claims its delay; every later insert with exactly that delay
//     is appended. The clock never runs backwards and the sequence
//     number strictly increases, so appends arrive already sorted and
//     the lane needs no sifting.
//   - a typed binary min-heap holding every other insert.
//
// The scheduler fires whichever of the lane head and the heap root is
// smaller, so the firing order is exactly that of a single heap. Timers
// are recycled through a free list, both parts store typed pointers (no
// interface boxing), and cancellation unlinks the entry immediately via
// its index — so steady-state scheduling performs no allocation and
// canceled events leave no garbage behind. Timer handles are small
// generation-checked values: a handle retained after its timer fired (or
// was canceled and recycled) safely reports inactive instead of aliasing
// a later event.
package des

import (
	"math/rand"
	"time"
)

// Time is a simulation timestamp in nanoseconds since the start of the run.
type Time int64

// Common durations expressed in simulation Time units.
const (
	Nanosecond  Time = 1
	Microsecond      = 1000 * Nanosecond
	Millisecond      = 1000 * Microsecond
	Second           = 1000 * Millisecond
)

// Seconds converts a simulation duration to floating-point seconds.
func (t Time) Seconds() float64 {
	return float64(t) / float64(Second)
}

// Microseconds converts a simulation duration to floating-point
// microseconds.
func (t Time) Microseconds() float64 {
	return float64(t) / float64(Microsecond)
}

// String renders the time like a time.Duration (both are nanosecond
// counts).
func (t Time) String() string {
	return time.Duration(t).String()
}

// Event is a scheduled action dispatched without a closure. Hot callers
// (the PHY layer) pool Event implementations and schedule them via
// AtEvent/ScheduleEvent, so delivering a frame to a dense neighborhood
// allocates nothing.
type Event interface {
	// Fire runs the event at its due time, on the scheduler goroutine.
	Fire()
}

// timer is one pending queue entry. Entries are owned by the scheduler
// and recycled through a free list once fired or canceled; external code
// only ever sees them through generation-checked Timer handles.
type timer struct {
	at    Time
	seq   uint64
	fn    func() // exactly one of fn/ev is set
	ev    Event
	gen   uint32 // bumped on recycle; stale handles mismatch
	index int32  // position in the heap array, or in the lane when inLane
	inert bool   // classified inert at scheduling time (see AtInert)
	// inLane marks an entry queued in the fixed-delay lane, not the heap.
	inLane bool
}

// Timer is a cancellable handle for a scheduled event. The zero value is
// an inert handle: not active, and cancelling it is a no-op. Handles stay
// safe to retain indefinitely — after the event fires (or is canceled)
// the underlying entry may be recycled for a new event, and the
// generation check makes the old handle report inactive rather than
// affect the newcomer.
type Timer struct {
	tm  *timer
	gen uint32
	at  Time
}

// When returns the simulated time the timer is (or was) due to fire. The
// zero handle returns 0.
func (t Timer) When() Time {
	return t.at
}

// Active reports whether the timer is still pending: neither fired nor
// canceled.
func (t Timer) Active() bool {
	return t.tm != nil && t.tm.gen == t.gen
}

// Scheduler owns the virtual clock and the pending-event queue.
type Scheduler struct {
	now  Time
	heap []*timer
	// lane[laneHead:] holds the timers due laneD after their insertion,
	// in (at, seq) order; canceled entries leave a nil slot behind. When
	// laneLive > 0, lane[laneHead] is the live lane head.
	lane     []*timer
	laneHead int
	laneLive int
	laneD    Time
	free     []*timer
	seq      uint64
	rng      *rand.Rand
	count    uint64 // events executed
	activeN  int    // pending events NOT classified inert
}

// New returns a Scheduler whose random stream is seeded with seed.
func New(seed int64) *Scheduler {
	return &Scheduler{rng: rand.New(rand.NewSource(seed))}
}

// Now returns the current simulated time.
func (s *Scheduler) Now() Time {
	return s.now
}

// Rand returns the scheduler's deterministic random stream.
func (s *Scheduler) Rand() *rand.Rand {
	return s.rng
}

// Executed returns the number of events executed so far.
func (s *Scheduler) Executed() uint64 {
	return s.count
}

// Pending returns the number of events still queued. Canceled events are
// removed eagerly and never count.
func (s *Scheduler) Pending() int {
	return len(s.heap) + s.laneLive
}

// ActivePending returns the number of pending events that were NOT
// classified inert at scheduling time. When it reaches zero the queue
// holds only dead-air bookkeeping — countdowns and idle waits whose due
// times are already fixed — so a fast-forward layer may advance the
// clock analytically without changing what any pending event observes.
//
//desalint:hotpath
func (s *Scheduler) ActivePending() int {
	return s.activeN
}

// alloc takes a recycled timer from the free list or makes a new one.
//
//desalint:hotpath
func (s *Scheduler) alloc() *timer {
	if n := len(s.free); n > 0 {
		tm := s.free[n-1]
		s.free[n-1] = nil
		s.free = s.free[:n-1]
		return tm
	}
	return &timer{}
}

// recycle invalidates every outstanding handle to tm and returns it to
// the free list. Callbacks are cleared so the queue never retains
// captured state past a timer's lifetime.
//
//desalint:hotpath
func (s *Scheduler) recycle(tm *timer) {
	tm.gen++
	tm.fn = nil
	tm.ev = nil
	if !tm.inert {
		s.activeN--
	}
	tm.inert = false
	tm.inLane = false
	tm.index = -1
	s.free = append(s.free, tm)
}

// insert enqueues a prepared timer and returns its handle. An insert
// whose delay matches the lane's goes to the lane, and an insert that
// finds the lane empty claims the lane for its own delay; everything
// else goes to the heap.
//
//desalint:hotpath
func (s *Scheduler) insert(tm *timer, at Time) Timer {
	if at < s.now {
		at = s.now
	}
	s.seq++
	tm.at = at
	tm.seq = s.seq
	if !tm.inert {
		s.activeN++
	}
	if s.laneLive == 0 {
		s.laneD = at - s.now
	}
	if at-s.now == s.laneD {
		tm.inLane = true
		tm.index = int32(len(s.lane))
		s.lane = append(s.lane, tm)
		s.laneLive++
	} else {
		tm.index = int32(len(s.heap))
		s.heap = append(s.heap, tm)
		s.siftUp(len(s.heap) - 1)
	}
	return Timer{tm: tm, gen: tm.gen, at: at}
}

// At schedules fn to run at absolute time t. Scheduling in the past (t
// before Now) clamps to Now, preserving causality. Events scheduled for
// the same instant fire in scheduling order.
//
//desalint:hotpath
func (s *Scheduler) At(t Time, fn func()) Timer {
	tm := s.alloc()
	tm.fn = fn
	return s.insert(tm, t)
}

// Schedule schedules fn to run after delay d from now. Negative delays
// clamp to zero.
//
//desalint:hotpath
func (s *Scheduler) Schedule(d Time, fn func()) Timer {
	if d < 0 {
		d = 0
	}
	return s.At(s.now+d, fn)
}

// AtEvent schedules ev to fire at absolute time t, with the same clamping
// and FIFO guarantees as At. Passing a pooled pointer implementation
// performs no allocation.
//
//desalint:hotpath
func (s *Scheduler) AtEvent(t Time, ev Event) Timer {
	tm := s.alloc()
	tm.ev = ev
	return s.insert(tm, t)
}

// ScheduleEvent schedules ev to fire after delay d from now. Negative
// delays clamp to zero.
//
//desalint:hotpath
func (s *Scheduler) ScheduleEvent(d Time, ev Event) Timer {
	if d < 0 {
		d = 0
	}
	return s.AtEvent(s.now+d, ev)
}

// Events default to ACTIVE: anything not explicitly classified is
// assumed capable of perturbing other nodes (frame arrivals, protocol
// responses, telemetry sample ticks — the sample grid is pinned by
// keeping ticks active). The Inert variants below are the opt-in for
// events that only consume idle time: their due instant is fixed at
// scheduling time, firing them has no effect on any OTHER pending
// event, and they may therefore be overtaken by an analytic clock jump.
// Classification is a scheduling-time property — a timer never changes
// class while pending.

// AtInert schedules fn at absolute time t as an inert event: pure idle
// bookkeeping (a backoff slot boundary, a NAV or DIFS expiry, a paced
// arrival) that cannot perturb any other pending event when it fires.
// Ordering, clamping, and FIFO guarantees are identical to At.
//
//desalint:hotpath
func (s *Scheduler) AtInert(t Time, fn func()) Timer {
	tm := s.alloc()
	tm.fn = fn
	tm.inert = true
	return s.insert(tm, t)
}

// ScheduleInert schedules fn after delay d from now as an inert event.
// Negative delays clamp to zero.
//
//desalint:hotpath
func (s *Scheduler) ScheduleInert(d Time, fn func()) Timer {
	if d < 0 {
		d = 0
	}
	return s.AtInert(s.now+d, fn)
}

// Cancel prevents a pending timer from firing. It reports whether the
// cancellation took effect (false when the timer already fired, was
// already canceled, or is the zero handle). The queue entry is unlinked
// immediately — heavy cancellation (the MAC's normal operation) leaves no
// garbage in the queue.
//
//desalint:hotpath
func (s *Scheduler) Cancel(t Timer) bool {
	tm := t.tm
	if tm == nil || tm.gen != t.gen {
		return false
	}
	if tm.inLane {
		s.lane[tm.index] = nil
		s.laneLive--
		if int(tm.index) == s.laneHead {
			s.advanceLane()
		}
	} else {
		s.remove(int(tm.index))
	}
	s.recycle(tm)
	return true
}

// next returns the earliest pending timer, or nil when none is queued.
//
//desalint:hotpath
func (s *Scheduler) next() *timer {
	if s.laneLive == 0 {
		if len(s.heap) == 0 {
			return nil
		}
		return s.heap[0]
	}
	tm := s.lane[s.laneHead]
	if len(s.heap) > 0 && s.less(s.heap[0], tm) {
		return s.heap[0]
	}
	return tm
}

// Step executes the next pending event and reports whether one ran.
//
//desalint:hotpath
func (s *Scheduler) Step() bool {
	tm := s.next()
	if tm == nil {
		return false
	}
	s.fire(tm)
	return true
}

// fire dequeues tm, which next just returned, and runs it.
//
//desalint:hotpath
func (s *Scheduler) fire(tm *timer) {
	if tm.inLane {
		s.lane[s.laneHead] = nil
		s.laneLive--
		s.advanceLane()
	} else {
		s.popMin()
	}
	s.now = tm.at
	s.count++
	fn, ev := tm.fn, tm.ev
	// Recycle before running: the callback observes its own handle as
	// no longer active (it has fired), and may immediately reuse the
	// entry for a follow-up event.
	s.recycle(tm)
	if fn != nil {
		fn()
	} else {
		ev.Fire()
	}
}

// Run executes events until the clock would pass `until` or the queue
// drains, and returns the number of events executed by this call. Events
// scheduled exactly at `until` still run.
//
//desalint:hotpath
func (s *Scheduler) Run(until Time) uint64 {
	start := s.count
	for tm := s.next(); tm != nil && tm.at <= until; tm = s.next() {
		s.fire(tm)
	}
	if s.now < until {
		s.now = until
	}
	return s.count - start
}

// NextAt returns the due time of the earliest pending event and whether
// one exists. The partition group engine uses it to compute conservative
// execution horizons.
//
//desalint:hotpath
func (s *Scheduler) NextAt() (Time, bool) {
	tm := s.next()
	if tm == nil {
		return 0, false
	}
	return tm.at, true
}

// RunBefore executes events strictly earlier than horizon and returns
// how many ran. Unlike Run it neither executes events AT the horizon nor
// advances the clock to it: the horizon is a conservative bound, not a
// target, and the next window may still insert events exactly at it.
//
//desalint:hotpath
func (s *Scheduler) RunBefore(horizon Time) uint64 {
	start := s.count
	for tm := s.next(); tm != nil && tm.at < horizon; tm = s.next() {
		s.fire(tm)
	}
	return s.count - start
}

// AdvanceTo moves the clock forward to t without executing anything
// (clamping, never rewinding). The group engine calls it once per
// partition after the final window so every partition ends a run at the
// same instant, mirroring Run's trailing clock advance.
func (s *Scheduler) AdvanceTo(t Time) {
	if t > s.now {
		s.now = t
	}
}

// RunAll executes every pending event regardless of time and returns how
// many ran. Useful for draining short test scenarios.
func (s *Scheduler) RunAll() uint64 {
	start := s.count
	for tm := s.next(); tm != nil; tm = s.next() {
		s.fire(tm)
	}
	return s.count - start
}

// advanceLane moves the lane head past nil slots after the head entry
// fired or was canceled. An empty lane rewinds to the start of its
// array, and once the head passes half the array's length the live tail
// is moved down, so the lane's memory stays proportional to the timers
// it holds.
//
//desalint:hotpath
func (s *Scheduler) advanceLane() {
	if s.laneLive == 0 {
		// Every slot from the head on is nil already.
		s.lane = s.lane[:0]
		s.laneHead = 0
		return
	}
	for s.lane[s.laneHead] == nil {
		s.laneHead++
	}
	if 2*s.laneHead >= len(s.lane) {
		kept := copy(s.lane, s.lane[s.laneHead:])
		clear(s.lane[kept:])
		s.lane = s.lane[:kept]
		s.laneHead = 0
		for i, tm := range s.lane {
			if tm != nil {
				tm.index = int32(i)
			}
		}
	}
}

// The heap is a hand-rolled binary min-heap over (at, seq) — strict
// arrival order with FIFO tie-breaking. container/heap would box every
// *timer through an interface on each Push/Pop; inlining the sifts keeps
// the hot path monomorphic and allocation-free.

// less orders the heap by due time, then scheduling order.
//
//desalint:hotpath
func (s *Scheduler) less(a, b *timer) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

//desalint:hotpath
func (s *Scheduler) siftUp(i int) {
	h := s.heap
	tm := h[i]
	for i > 0 {
		parent := (i - 1) / 2
		if !s.less(tm, h[parent]) {
			break
		}
		h[i] = h[parent]
		h[i].index = int32(i)
		i = parent
	}
	h[i] = tm
	tm.index = int32(i)
}

//desalint:hotpath
func (s *Scheduler) siftDown(i int) {
	h := s.heap
	n := len(h)
	tm := h[i]
	for {
		child := 2*i + 1
		if child >= n {
			break
		}
		if right := child + 1; right < n && s.less(h[right], h[child]) {
			child = right
		}
		if !s.less(h[child], tm) {
			break
		}
		h[i] = h[child]
		h[i].index = int32(i)
		i = child
	}
	h[i] = tm
	tm.index = int32(i)
}

// popMin removes the heap's earliest timer.
//
//desalint:hotpath
func (s *Scheduler) popMin() {
	h := s.heap
	n := len(h) - 1
	h[0] = h[n]
	h[n] = nil
	s.heap = h[:n]
	if n > 0 {
		s.siftDown(0)
	}
}

// remove unlinks the timer at heap position i.
//
//desalint:hotpath
func (s *Scheduler) remove(i int) {
	h := s.heap
	n := len(h) - 1
	last := h[n]
	h[n] = nil
	s.heap = h[:n]
	if i == n {
		return
	}
	h[i] = last
	last.index = int32(i)
	// The displaced entry may belong above or below its new slot.
	s.siftDown(i)
	if h[i] == last {
		s.siftUp(i)
	}
}
