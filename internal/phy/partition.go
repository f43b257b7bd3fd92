// Grid-partition ownership for the parallel kernel. Every radio belongs
// to exactly one lane: the per-partition execution context holding the
// partition's scheduler, its delivery-object pools, its share of the
// airtime accounting, and an outbox of staged cross-partition
// deliveries. A channel always has at least lane 0 (the sequential
// kernel is the one-lane special case, running exactly the historical
// code path); ConfigurePartitions splits it into one lane per partition
// scheduler.
//
// The concurrency contract mirrors internal/des.Group: during a window,
// lane state is touched only by the goroutine executing that lane's
// scheduler. A transmission propagating to a radio in another lane never
// reaches across — it appends a crossDelivery to the SOURCE lane's
// outbox, and FlushCross (run single-threaded between windows by the
// group engine) routes the staged entries into destination lanes in
// fixed (source lane, emission order) sequence, which pins the
// destination queue's FIFO tie-breaking to a pure function of the
// partition layout. Every radio's cached audience is filled before the
// first window and placement is then frozen (no mobility under
// partitioning), so no lane refills an audience during a window. A
// lane writes only the SINR path loss into the audiences of its own
// senders.

package phy

import (
	"fmt"

	"repro/internal/des"
)

// lane is one partition's execution context on the shared channel.
type lane struct {
	sched *des.Scheduler

	txTime  map[FrameType]des.Time
	txCount map[FrameType]int64

	// Free lists for per-delivery objects. Signals and events always
	// live in the RECEIVER's lane: they are mutated by receiver-side
	// callbacks and recycled on the receiver's goroutine.
	freeSigs   []*signal
	freeEvents []*sigEvent
	freeHints  []*navHintEvent

	// outbox stages deliveries to radios owned by other lanes until the
	// next FlushCross.
	outbox []crossDelivery
}

// crossDelivery is one staged signal (or NAV hint) bound for a radio in
// another lane. Times are absolute: they were computed on the source
// lane's clock when the transmission started.
type crossDelivery struct {
	dst   *Radio
	frame Frame
	power float64
	start des.Time // signal start (or hint delivery instant)
	end   des.Time // signal end; unused for hints
	hint  bool
}

// newLane builds an empty lane bound to a scheduler.
func newLane(sched *des.Scheduler) *lane {
	return &lane{
		sched:   sched,
		txTime:  make(map[FrameType]des.Time),
		txCount: make(map[FrameType]int64),
	}
}

// ConfigurePartitions splits the channel into one lane per scheduler,
// assigning each radio to the lane named by laneOf (indexed by NodeID).
// scheds[0] must be the scheduler the channel was created with — lane 0
// keeps the objects already pooled there, so a one-entry configuration
// is the identity. The call fills every radio's audience: after it the
// placement is frozen (SetPos would race against concurrent reads).
func (c *Channel) ConfigurePartitions(scheds []*des.Scheduler, laneOf []int32) error {
	if len(scheds) == 0 {
		return fmt.Errorf("phy: ConfigurePartitions needs at least one scheduler")
	}
	if scheds[0] != c.sched {
		return fmt.Errorf("phy: partition scheduler 0 must be the channel's own scheduler")
	}
	if len(laneOf) != len(c.radios) {
		return fmt.Errorf("phy: partition assignment covers %d radios, channel has %d", len(laneOf), len(c.radios))
	}
	lanes := make([]*lane, len(scheds))
	lanes[0] = c.lanes[0]
	for i := 1; i < len(scheds); i++ {
		lanes[i] = newLane(scheds[i])
	}
	for id, li := range laneOf {
		if li < 0 || int(li) >= len(lanes) {
			return fmt.Errorf("phy: radio %d assigned to lane %d of %d", id, li, len(lanes))
		}
		c.radios[id].lane = lanes[li]
	}
	c.lanes = lanes
	// With every audience current, propagation in a window never
	// refills one; freezing placement keeps it that way (SetPos now
	// panics instead of racing).
	for _, r := range c.radios {
		c.audience(r)
	}
	c.frozen = true
	return nil
}

// FlushCross routes every staged cross-lane delivery into its
// destination lane's queue and clears the outboxes. It must run
// single-threaded between execution windows (the des.Group Flush hook);
// iteration order — source lanes ascending, entries in emission order —
// is part of the determinism contract.
func (c *Channel) FlushCross() {
	for _, src := range c.lanes {
		for i := range src.outbox {
			e := &src.outbox[i]
			dst := e.dst.lane
			if e.hint {
				dst.sched.AtEvent(e.start, dst.allocHint(e.dst, e.frame))
				continue
			}
			sig := dst.allocSignal(e.frame, e.power)
			dst.sched.AtEvent(e.start, dst.allocEvent(e.dst, sig, false))
			dst.sched.AtEvent(e.end, dst.allocEvent(e.dst, sig, true))
		}
		src.outbox = src.outbox[:0]
	}
}

// stage appends a delivery bound for another lane to this (source)
// lane's outbox.
//
//desalint:hotpath
func (l *lane) stage(dst *Radio, f Frame, power float64, start, end des.Time, hint bool) {
	l.outbox = append(l.outbox, crossDelivery{
		dst: dst, frame: f, power: power, start: start, end: end, hint: hint,
	})
}
