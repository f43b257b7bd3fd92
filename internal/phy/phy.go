// Package phy models the physical layer of a single-channel ad hoc
// network with directional transmit antennas and omni-directional
// reception, following the assumptions of the paper (Section 2):
//
//   - equal transmit range R for omni and directional transmissions
//     (equal gain via power control);
//   - complete attenuation outside the transmit beam: a node hears a
//     frame only if it is within range AND inside the sender's beam;
//   - omni-directional reception: any two time-overlapping signals heard
//     by a node corrupt each other (no capture, unless the capture
//     ablation is enabled);
//   - half-duplex radios that are deaf while transmitting;
//   - fixed propagation delay between all pairs in range.
package phy

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/des"
	"repro/internal/geom"
	"repro/internal/telemetry"
)

// Metrics holds optional telemetry counters for channel-level frame
// accounting. Every field may be nil — counting on a nil instrument is
// a no-op, so the instrumented hot path pays only a nil check when
// telemetry is disabled.
type Metrics struct {
	// TxFrames counts every frame put on the air, network-wide.
	TxFrames *telemetry.Counter
	// RxFrames counts every frame successfully decoded by some radio
	// (one transmission can be decoded by many receivers).
	RxFrames *telemetry.Counter
	// RxErrors counts garbled receptions (collision damage observed at a
	// radio).
	RxErrors *telemetry.Counter
}

// NodeID identifies a radio in the network. IDs are dense and start at 0.
type NodeID int

// Broadcast is the destination for frames addressed to every neighbor.
const Broadcast NodeID = -1

// FrameType enumerates the MAC frame types carried by the channel.
type FrameType int

// Frame types used by the 802.11-style MAC and the neighbor protocol.
const (
	RTS FrameType = iota + 1
	CTS
	Data
	ACK
	Hello
)

var frameTypeNames = map[FrameType]string{
	RTS:   "RTS",
	CTS:   "CTS",
	Data:  "DATA",
	ACK:   "ACK",
	Hello: "HELLO",
}

// String returns the conventional frame-type name.
func (ft FrameType) String() string {
	if n, ok := frameTypeNames[ft]; ok {
		return n
	}
	return fmt.Sprintf("FrameType(%d)", int(ft))
}

// Frame is a MAC frame in flight. Bytes is the on-air size used to compute
// airtime; NAV is the duration-field value receivers use for virtual
// carrier sensing.
type Frame struct {
	Type  FrameType
	Src   NodeID
	Dst   NodeID
	Bytes int
	NAV   des.Time
	Seq   int64
	// Payload carries protocol data that a real frame would serialize
	// (e.g. the sender position in a HELLO beacon). It does not affect
	// airtime; Bytes does.
	Payload any
}

// Mode describes the antenna configuration of one transmission. The zero
// value is an omni-directional transmission.
type Mode struct {
	Directional bool
	Bearing     float64 // radians, toward the intended receiver
	Beamwidth   float64 // radians, total width of the cone
}

// Omni is the omni-directional transmission mode.
var Omni = Mode{}

// Directed returns a directional mode aimed at bearing with the given
// beamwidth.
func Directed(bearing, beamwidth float64) Mode {
	return Mode{Directional: true, Bearing: bearing, Beamwidth: beamwidth}
}

// Covers reports whether a transmission in this mode reaches direction dir.
func (m Mode) Covers(dir float64) bool {
	if !m.Directional {
		return true
	}
	return geom.WithinBeam(m.Bearing, m.Beamwidth, dir)
}

// Params configures the channel. DefaultParams matches Table 1 of the
// paper (DSSS at 2 Mb/s).
type Params struct {
	// BitRate is the raw channel rate in bits per second.
	BitRate int64
	// SyncTime is the PLCP preamble+header time prepended to every frame.
	SyncTime des.Time
	// PropDelay is the fixed propagation delay between any pair in range.
	PropDelay des.Time
	// Range is the transmission/reception radius R (same length unit as
	// node positions).
	Range float64
	// Capture, when true, enables the ablation receiver: an already
	// locked-on signal survives later-starting overlaps (the newcomer is
	// lost instead of both). The paper's model uses Capture=false.
	Capture bool
	// SINRThreshold, when positive, replaces the overlap-collision
	// receiver with a physical signal-to-interference-plus-noise model:
	// received power is TxGain/d^PathLoss (transmit power 1, directional
	// gain 2π/θ by energy conservation — the paper's footnote 2), and a
	// frame decodes only while its power stays at least SINRThreshold
	// times the sum of NoiseFloor and all other heard signal powers.
	// Strong frames therefore capture over weak interferers, and narrow
	// beams buy SNR headroom against the noise floor.
	SINRThreshold float64
	// PathLoss is the path-loss exponent α (used when SINRThreshold > 0;
	// typical values 2–4).
	PathLoss float64
	// NoiseFloor is the constant noise power (same units as the unit
	// transmit power; used when SINRThreshold > 0).
	NoiseFloor float64
	// NAVOracle, when true, delivers frame headers (as NAV hints, not
	// energy) to every in-range radio even outside the transmit beam.
	// This ablation separates "directional schemes win by reduced waiting"
	// from "directional schemes win by spatial reuse": with the oracle,
	// out-of-beam neighbors defer exactly as they would under
	// omni-directional transmissions, but the interference footprint
	// stays directional.
	NAVOracle bool
}

// DefaultParams returns the paper's Table 1 channel configuration with a
// transmission range of 1.0 distance unit.
func DefaultParams() Params {
	return Params{
		BitRate:   2_000_000,
		SyncTime:  192 * des.Microsecond,
		PropDelay: 1 * des.Microsecond,
		Range:     1.0,
	}
}

// Validate checks the parameter ranges.
func (p Params) Validate() error {
	if p.BitRate <= 0 {
		return fmt.Errorf("phy: bit rate must be positive, got %d", p.BitRate)
	}
	if p.SyncTime < 0 || p.PropDelay < 0 {
		return fmt.Errorf("phy: sync time and propagation delay must be non-negative")
	}
	if p.Range <= 0 {
		return fmt.Errorf("phy: range must be positive, got %v", p.Range)
	}
	if p.SINRThreshold > 0 {
		if p.PathLoss < 1 {
			return fmt.Errorf("phy: SINR mode needs a path-loss exponent >= 1, got %v", p.PathLoss)
		}
		if p.NoiseFloor < 0 {
			return fmt.Errorf("phy: noise floor must be non-negative, got %v", p.NoiseFloor)
		}
	}
	return nil
}

// sinr reports whether the physical SINR receiver model is enabled.
func (p Params) sinr() bool { return p.SINRThreshold > 0 }

// Gain returns the transmit antenna gain of mode m under the SINR model:
// 1 for omni, 2π/θ for a cone of width θ (energy conservation).
func (m Mode) Gain() float64 {
	if !m.Directional || m.Beamwidth <= 0 || m.Beamwidth >= 2*math.Pi {
		return 1
	}
	return 2 * math.Pi / m.Beamwidth
}

// Airtime returns the on-air duration of a frame of the given byte size:
// sync preamble plus serialization at the channel bit rate.
func (p Params) Airtime(bytes int) des.Time {
	bits := int64(bytes) * 8
	return p.SyncTime + des.Time(bits*int64(des.Second)/p.BitRate)
}

// Handler receives PHY indications. All callbacks run on the scheduler
// goroutine. Carrier callbacks are edge-triggered for a non-transmitting
// radio; after a transmission ends the MAC should re-query CarrierBusy
// because transitions during its own transmission are not delivered.
type Handler interface {
	// OnCarrierBusy fires when heard energy appears at an idle radio.
	OnCarrierBusy()
	// OnCarrierIdle fires when the last heard signal ends and the radio is
	// not transmitting.
	OnCarrierIdle()
	// OnFrame delivers a successfully decoded frame (regardless of
	// addressing; filtering is the MAC's job).
	OnFrame(f Frame)
	// OnFrameError fires when garbled energy ends (collision damage);
	// 802.11 uses this for EIFS.
	OnFrameError()
	// OnTxDone fires when this radio's own transmission leaves the air.
	OnTxDone()
}

// NAVHinter is an optional Handler extension. When the channel runs with
// Params.NAVOracle, radios that are in range of a directional
// transmission but outside its beam receive the frame header through
// OnNAVHint at the time the frame ends, without any energy having been
// sensed.
type NAVHinter interface {
	OnNAVHint(f Frame)
}

// signal is one transmission as perceived by one receiver.
type signal struct {
	frame     Frame
	power     float64 // received power under the SINR model
	corrupted bool
	missed    bool // receiver was deaf (transmitting) during part of it
}

// Radio is one node's half-duplex transceiver attached to a Channel.
type Radio struct {
	id      NodeID
	pos     geom.Point
	cell    cellKey // grid cell handle; valid while the index is built
	ch      *Channel
	lane    *lane // owning partition; lanes[0] unless partitioned
	handler Handler

	transmitting bool
	active       []*signal // signals currently on the air at this radio
	txDone       txDoneEvent

	// aud is the cached audience: every other radio in range, in ID
	// order. It is current while audGen equals the channel's gen.
	aud    []audEntry
	audGen uint64
}

// audEntry is one member of a radio's audience, with the per-pair values
// propagate needs on every frame. Bearing and loss are pure functions of
// the two positions, so reading them from the cache changes no result
// bit. The loss is worked out by the first SINR frame that covers the
// receiver, so a refill never pays for receivers outside every beam.
type audEntry struct {
	dst     *Radio
	bearing float64 // src.pos.Bearing(dst.pos)
	loss    float64 // pathLoss(src, dst); 0 until a SINR frame needs it
}

// ID returns the radio's node ID.
func (r *Radio) ID() NodeID { return r.id }

// ChannelParams returns the configuration of the channel this radio is
// attached to.
func (r *Radio) ChannelParams() Params { return r.ch.params }

// Pos returns the radio's current position.
func (r *Radio) Pos() geom.Point { return r.pos }

// SetPos moves the radio (mobility support). Propagation decisions use
// positions as of each transmission's start; a frame already in flight is
// unaffected by later movement (quasi-static per frame). The spatial
// index absorbs the move incrementally: only the source and destination
// cell buckets are touched, so mobility churn costs O(moved) radios, not
// a full reindex (DESIGN.md §15). The move also invalidates every cached
// audience; each is refilled on its next read. Moving a radio on a
// partitioned channel panics — ConfigurePartitions freezes placement
// because the audiences are read concurrently by every lane.
func (r *Radio) SetPos(p geom.Point) {
	c := r.ch
	if c.frozen {
		panic("phy: SetPos on a partitioned channel (placement is frozen by ConfigurePartitions)")
	}
	r.pos = p
	c.gen++
	if c.gridDirty || c.fullRebuild {
		// No valid cell handles to migrate between; fall back to the
		// all-or-nothing rebuild on the next gather.
		c.gridDirty = true
		return
	}
	if k := c.cellOf(p); k != r.cell {
		c.migrate(r, k)
	}
}

// Transmitting reports whether the radio is currently transmitting.
func (r *Radio) Transmitting() bool { return r.transmitting }

// CarrierBusy reports whether any signal energy is currently arriving.
// The value is only physically meaningful when the radio is not
// transmitting (a transmitting radio cannot sense the channel).
func (r *Radio) CarrierBusy() bool { return len(r.active) > 0 }

// ErrTxBusy is returned when Transmit is called on a radio that is
// already transmitting.
var ErrTxBusy = fmt.Errorf("phy: radio already transmitting")

// Transmit puts frame f on the air with antenna mode m and returns the
// frame's airtime. OnTxDone fires on the handler when the transmission
// ends. Reception at each in-range, in-beam radio starts after the
// propagation delay.
//
//desalint:hotpath
func (r *Radio) Transmit(f Frame, m Mode) (des.Time, error) {
	if r.transmitting {
		return 0, ErrTxBusy
	}
	r.transmitting = true
	// Our own transmission stomps anything we were receiving.
	for _, sig := range r.active {
		sig.missed = true
	}
	airtime := r.ch.params.Airtime(f.Bytes)
	l := r.lane
	l.txTime[f.Type] += airtime
	l.txCount[f.Type]++
	r.ch.metrics.TxFrames.Inc()
	r.ch.propagate(r, f, m, airtime)
	l.sched.ScheduleEvent(airtime, &r.txDone)
	return airtime, nil
}

// txDoneEvent signals the end of a radio's own transmission. Each radio
// embeds one — a half-duplex radio has at most one transmission in
// flight, so the event needs no pooling and no allocation.
type txDoneEvent struct {
	r *Radio
}

// Fire completes the transmission and notifies the MAC.
//
//desalint:hotpath
func (e *txDoneEvent) Fire() {
	e.r.transmitting = false
	e.r.handler.OnTxDone()
}

// signalStart registers an arriving signal at this radio.
//
//desalint:hotpath
func (r *Radio) signalStart(sig *signal) {
	if r.transmitting {
		sig.missed = true
	}
	switch {
	case r.ch.params.sinr():
		r.sinrArrival(sig)
	case len(r.active) > 0:
		// Overlap. Without capture, everyone is damaged; with capture the
		// established signal survives and only the newcomer is lost.
		sig.corrupted = true
		if !r.ch.params.Capture {
			for _, other := range r.active {
				other.corrupted = true
			}
		}
	}
	r.active = append(r.active, sig)
	if len(r.active) == 1 && !r.transmitting {
		r.handler.OnCarrierBusy()
	}
}

// sinrArrival applies the physical receiver model when sig starts: every
// signal whose power no longer clears the threshold against noise plus
// all other heard power is (irreversibly) damaged. Power levels are
// constant per signal, so checking at each arrival covers all overlap
// intervals.
//
//desalint:hotpath
func (r *Radio) sinrArrival(sig *signal) {
	p := r.ch.params
	total := p.NoiseFloor + sig.power
	for _, other := range r.active {
		total += other.power
	}
	if interference := total - sig.power; sig.power < p.SINRThreshold*interference {
		sig.corrupted = true
	}
	for _, other := range r.active {
		if interference := total - other.power; other.power < p.SINRThreshold*interference {
			other.corrupted = true
		}
	}
}

// signalEnd completes an arriving signal: deliver, report error, or drop.
//
//desalint:hotpath
func (r *Radio) signalEnd(sig *signal) {
	for i, s := range r.active {
		if s == sig {
			r.active = append(r.active[:i], r.active[i+1:]...)
			break
		}
	}
	// A signal ending while we transmit was missed in its entirety or tail.
	if r.transmitting {
		sig.missed = true
	}
	switch {
	case sig.missed:
		// The radio never perceived this signal; nothing to report.
	case sig.corrupted:
		r.ch.metrics.RxErrors.Inc()
		r.handler.OnFrameError()
	default:
		r.ch.metrics.RxFrames.Inc()
		r.handler.OnFrame(sig.frame)
	}
	if len(r.active) == 0 && !r.transmitting {
		r.handler.OnCarrierIdle()
	}
}

// Channel connects radios on a shared single-frequency medium.
//
// Delivery walks the sender's cached audience (DESIGN.md §7.2): the
// radios in range with their bearings, worked out once per placement
// rather than on every frame. Audiences are filled from a uniform
// spatial grid with cell size equal to the transmission range: every
// radio a transmission can reach lies in the sender's cell or one of its
// eight neighbors. The grid is built lazily after AddRadio; once built,
// SetPos migrates the moved radio between its source and destination
// cell buckets in place, so a burst of mobility updates costs O(moved)
// bucket edits, not a reindex of every radio (DESIGN.md §15).
type Channel struct {
	sched  *des.Scheduler
	params Params
	radios []*Radio

	// lanes hold the per-partition execution contexts (scheduler, object
	// pools, airtime accounting, cross-partition outbox). The sequential
	// kernel runs entirely on lanes[0]; see partition.go.
	lanes   []*lane
	metrics Metrics

	// Spatial index: cell -> slot in buckets; buckets hold radio IDs in
	// no particular order (audience fills sort what they gather). Moves
	// migrate a radio between its source and destination buckets
	// (swap-remove plus append). Bucket storage is reused across rebuilds
	// and migrations; emptied buckets park their slots on freeSlots.
	cells       map[cellKey]int
	buckets     [][]int32
	freeSlots   []int
	usedBuckets int
	gridDirty   bool
	fullRebuild bool
	scratch     []int32 // candidate IDs gathered per audience fill

	// Audience cache: gen counts placement changes (AddRadio, AddRadios,
	// SetPos), and a radio's audience is current iff its audGen equals
	// gen. audReset marks radios added since the last bulk fill, so the
	// next read refills every audience from one backing array.
	gen      uint64
	audReset bool
	// frozen marks a partitioned channel: the audiences are read
	// concurrently by every lane, so radio placement must not change
	// (ConfigurePartitions sets it; SetPos panics).
	frozen bool
}

// cellKey addresses one grid cell (position divided by range, floored).
type cellKey struct {
	x, y int32
}

// cellOf maps a position to its grid cell.
func (c *Channel) cellOf(p geom.Point) cellKey {
	inv := 1 / c.params.Range
	return cellKey{x: int32(math.Floor(p.X * inv)), y: int32(math.Floor(p.Y * inv))}
}

// rebuildGrid reindexes every radio and refreshes the cell handles.
// Backing arrays are reused, except that a bucket whose occupancy fell
// below 25% of its capacity is reallocated tight and slots past the used
// range are released — otherwise bucket storage grows to the
// largest-ever occupancy and stays there, which is permanent ballast at
// large N.
func (c *Channel) rebuildGrid() {
	for i := 0; i < c.usedBuckets; i++ {
		c.buckets[i] = c.buckets[i][:0]
	}
	if c.cells == nil {
		c.cells = make(map[cellKey]int, len(c.radios))
	} else {
		clear(c.cells)
	}
	c.usedBuckets = 0
	c.freeSlots = c.freeSlots[:0]
	for _, r := range c.radios {
		k := c.cellOf(r.pos)
		r.cell = k
		slot, ok := c.cells[k]
		if !ok {
			if c.usedBuckets == len(c.buckets) {
				c.buckets = append(c.buckets, nil)
			}
			slot = c.usedBuckets
			c.usedBuckets++
			c.cells[k] = slot
		}
		c.buckets[slot] = append(c.buckets[slot], int32(r.id))
	}
	for i := 0; i < c.usedBuckets; i++ {
		if b := c.buckets[i]; cap(b) >= 8 && len(b)*4 < cap(b) {
			c.buckets[i] = append(make([]int32, 0, len(b)), b...)
		}
	}
	for i := c.usedBuckets; i < len(c.buckets); i++ {
		c.buckets[i] = nil
	}
	c.gridDirty = false
}

// migrate moves radio r (whose position is already updated) from the
// bucket of its current cell handle into the bucket of cell k. The
// source bucket uses swap-remove and the destination appends; only these
// two buckets are touched, so a burst of mobility costs O(moved) rather
// than a full reindex.
//
//desalint:hotpath
func (c *Channel) migrate(r *Radio, k cellKey) {
	id := int32(r.id)
	oldSlot := c.cells[r.cell]
	b := c.buckets[oldSlot]
	last := len(b) - 1
	b[slices.Index(b, id)] = b[last]
	c.buckets[oldSlot] = b[:last]
	if last == 0 {
		delete(c.cells, r.cell)
		c.freeSlots = append(c.freeSlots, oldSlot)
	}

	slot, ok := c.cells[k]
	if !ok {
		if n := len(c.freeSlots); n > 0 {
			slot = c.freeSlots[n-1]
			c.freeSlots = c.freeSlots[:n-1]
		} else {
			if c.usedBuckets == len(c.buckets) {
				c.buckets = append(c.buckets, nil)
			}
			slot = c.usedBuckets
			c.usedBuckets++
		}
		c.cells[k] = slot
	}
	c.buckets[slot] = append(c.buckets[slot], id)
	r.cell = k
}

// gather collects the IDs of every radio in the 3×3 cell block around
// r's cell — everything within range of any point in that cell — into
// the channel's scratch buffer, in no particular order. Only audience
// fills call it, and a partitioned channel fills every audience before
// it freezes placement, so gather never runs inside a partitioned window.
func (c *Channel) gather(r *Radio) []int32 {
	if c.gridDirty {
		c.rebuildGrid()
	}
	center := r.cell
	out := c.scratch[:0]
	for dx := int32(-1); dx <= 1; dx++ {
		for dy := int32(-1); dy <= 1; dy++ {
			if slot, ok := c.cells[cellKey{x: center.x + dx, y: center.y + dy}]; ok {
				out = append(out, c.buckets[slot]...)
			}
		}
	}
	c.scratch = out
	return out
}

// hears reports whether dst belongs to src's audience: another radio
// within range.
func (c *Channel) hears(src, dst *Radio) bool {
	return dst != src && dst.pos.Dist2(src.pos) <= c.params.Range*c.params.Range
}

// appendAudience appends to out every candidate in src's audience, in
// candidate order, with its bearing.
func (c *Channel) appendAudience(out []audEntry, src *Radio, cands []int32) []audEntry {
	for _, cand := range cands {
		dst := c.radios[cand]
		if c.hears(src, dst) {
			out = append(out, audEntry{dst: dst, bearing: src.pos.Bearing(dst.pos)})
		}
	}
	return out
}

// pathLoss is the SINR path loss from src to dst, with the distance
// clamped away from zero.
func (c *Channel) pathLoss(src, dst *Radio) float64 {
	d := src.pos.Dist(dst.pos)
	if d < 1e-6 {
		d = 1e-6
	}
	return math.Pow(d, c.params.PathLoss)
}

// audience returns r's audience, refilling it first if placement changed
// since it was filled. After AddRadio or AddRadios every audience is
// refilled at once; after SetPos only the audience being read is, so
// mobility churn stays O(moved) until the next reads.
//
//desalint:hotpath
func (c *Channel) audience(r *Radio) []audEntry {
	if c.audReset {
		c.fillAudiences()
	} else if r.audGen != c.gen {
		c.refillAudience(r)
	}
	return r.aud
}

// refillAudience recomputes one radio's audience in place: the work the
// per-frame scan did before audiences were cached (gather, sort the
// candidate IDs, keep those in range with their bearings), done once per
// placement instead of once per frame.
func (c *Channel) refillAudience(r *Radio) {
	cands := c.gather(r)
	slices.Sort(cands)
	r.aud = c.appendAudience(r.aud[:0], r, cands)
	r.audGen = c.gen
}

// fillAudiences refills every radio's audience. The 3×3 block is
// gathered and sorted once per occupied cell and shared by every radio
// in it. A counting pass sizes one backing array exactly, and each
// audience is a capped subslice of it, so the fill costs one allocation
// at any N (DESIGN.md §15) and a later refill that grows reallocates
// privately instead of overwriting a neighbor's entries.
func (c *Channel) fillAudiences() {
	if c.gridDirty {
		c.rebuildGrid()
	}
	total := 0
	for slot := 0; slot < c.usedBuckets; slot++ {
		if len(c.buckets[slot]) == 0 {
			continue // parked on freeSlots
		}
		cands := c.gather(c.radios[c.buckets[slot][0]])
		for _, id := range c.buckets[slot] {
			for _, cand := range cands {
				if c.hears(c.radios[id], c.radios[cand]) {
					total++
				}
			}
		}
	}
	back := make([]audEntry, 0, total)
	for slot := 0; slot < c.usedBuckets; slot++ {
		if len(c.buckets[slot]) == 0 {
			continue
		}
		cands := c.gather(c.radios[c.buckets[slot][0]])
		slices.Sort(cands)
		for _, id := range c.buckets[slot] {
			r := c.radios[id]
			start := len(back)
			back = c.appendAudience(back, r, cands)
			r.aud = back[start:len(back):len(back)]
			r.audGen = c.gen
		}
	}
	c.audReset = false
}

// allocSignal takes a recycled signal or makes a new one.
//
//desalint:hotpath
func (l *lane) allocSignal(f Frame, power float64) *signal {
	if n := len(l.freeSigs); n > 0 {
		sig := l.freeSigs[n-1]
		l.freeSigs = l.freeSigs[:n-1]
		*sig = signal{frame: f, power: power}
		return sig
	}
	return &signal{frame: f, power: power}
}

// sigEvent delivers one signal edge (start or end) to one radio. Events
// are pooled on the receiver's lane; an event recycles itself after
// firing, and the end edge also recycles its signal (nothing references
// a signal after signalEnd).
type sigEvent struct {
	lane *lane
	dst  *Radio
	sig  *signal
	end  bool
}

// Fire dispatches the signal edge and returns the event (and, on the end
// edge, the signal) to the lane pools.
//
//desalint:hotpath
func (e *sigEvent) Fire() {
	if e.end {
		e.dst.signalEnd(e.sig)
		e.lane.freeSigs = append(e.lane.freeSigs, e.sig)
	} else {
		e.dst.signalStart(e.sig)
	}
	e.sig = nil
	e.dst = nil
	e.lane.freeEvents = append(e.lane.freeEvents, e)
}

// allocEvent takes a recycled delivery event or makes a new one.
//
//desalint:hotpath
func (l *lane) allocEvent(dst *Radio, sig *signal, end bool) *sigEvent {
	if n := len(l.freeEvents); n > 0 {
		e := l.freeEvents[n-1]
		l.freeEvents = l.freeEvents[:n-1]
		e.dst, e.sig, e.end = dst, sig, end
		return e
	}
	return &sigEvent{lane: l, dst: dst, sig: sig, end: end}
}

// navHintEvent delivers an out-of-beam frame header under the NAV-oracle
// ablation.
type navHintEvent struct {
	lane  *lane
	dst   *Radio
	frame Frame
}

// Fire hands the header to the destination's NAVHinter, if implemented.
//
//desalint:hotpath
func (e *navHintEvent) Fire() {
	if h, ok := e.dst.handler.(NAVHinter); ok {
		h.OnNAVHint(e.frame)
	}
	e.dst = nil
	e.frame = Frame{}
	e.lane.freeHints = append(e.lane.freeHints, e)
}

// allocHint takes a recycled NAV-hint event or makes a new one.
//
//desalint:hotpath
func (l *lane) allocHint(dst *Radio, f Frame) *navHintEvent {
	if n := len(l.freeHints); n > 0 {
		e := l.freeHints[n-1]
		l.freeHints = l.freeHints[:n-1]
		e.dst, e.frame = dst, f
		return e
	}
	return &navHintEvent{lane: l, dst: dst, frame: f}
}

// NewChannel creates a channel driven by the given scheduler.
func NewChannel(sched *des.Scheduler, params Params) (*Channel, error) {
	if err := params.Validate(); err != nil {
		return nil, err
	}
	return &Channel{
		sched:  sched,
		params: params,
		lanes:  []*lane{newLane(sched)},
	}, nil
}

// Params returns the channel configuration.
func (c *Channel) Params() Params { return c.params }

// SetFullRebuild forces the all-or-nothing reindex strategy: every
// SetPos marks the whole index dirty and the next gather rebuilds it
// from scratch, instead of migrating the moved radio between its source
// and destination cells. Incremental migration is the default; the
// forced mode exists for the differential mobility tests and the
// mobility-churn benchmark baseline.
func (c *Channel) SetFullRebuild(v bool) { c.fullRebuild = v }

// SetMetrics installs telemetry counters for the channel's frame
// accounting. The zero Metrics value (all nil) disables them.
func (c *Channel) SetMetrics(m Metrics) { c.metrics = m }

// AddRadio attaches a new radio at pos. IDs are assigned densely in
// attachment order. The handler must be non-nil before the first event
// fires; it may be set later via SetHandler to break construction cycles.
func (c *Channel) AddRadio(pos geom.Point, handler Handler) *Radio {
	r := &Radio{id: NodeID(len(c.radios)), pos: pos, ch: c, lane: c.lanes[0], handler: handler}
	r.txDone.r = r
	c.radios = append(c.radios, r)
	c.gridDirty = true
	c.gen++
	c.audReset = true
	return r
}

// AddRadios attaches one handler-less radio per position (IDs assigned
// densely in slice order) from a single batched backing array — the
// large-N assembly path, costing O(1) allocations for the whole batch
// instead of one heap object per radio. Handlers are attached afterwards
// via SetHandler, before the first event fires.
func (c *Channel) AddRadios(positions []geom.Point) {
	backing := make([]Radio, len(positions))
	c.radios = slices.Grow(c.radios, len(positions))
	for i, pos := range positions {
		r := &backing[i]
		r.id = NodeID(len(c.radios))
		r.pos = pos
		r.ch = c
		r.lane = c.lanes[0]
		r.txDone.r = r
		c.radios = append(c.radios, r)
	}
	c.gridDirty = true
	c.gen++
	c.audReset = true
}

// SetHandler installs the MAC handler for a radio.
func (r *Radio) SetHandler(h Handler) { r.handler = h }

// Radio returns the radio with the given ID, or nil.
func (c *Channel) Radio(id NodeID) *Radio {
	if id < 0 || int(id) >= len(c.radios) {
		return nil
	}
	return c.radios[id]
}

// NumRadios returns the number of attached radios.
func (c *Channel) NumRadios() int { return len(c.radios) }

// TxAirtime returns the cumulative on-air time of all transmissions of
// the given frame type across the whole network. Because transmissions
// overlap in space, the sum over types can exceed elapsed time — the
// ratio Σ TxAirtime / elapsed is the network's spatial-reuse factor.
// Accounting is kept per lane; getters sum over lanes (only valid
// outside execution windows).
func (c *Channel) TxAirtime(ft FrameType) des.Time {
	var total des.Time
	for _, l := range c.lanes {
		total += l.txTime[ft]
	}
	return total
}

// TxCount returns how many frames of the given type went on the air.
func (c *Channel) TxCount(ft FrameType) int64 {
	var total int64
	for _, l := range c.lanes {
		total += l.txCount[ft]
	}
	return total
}

// TotalTxAirtime sums TxAirtime over every frame type.
func (c *Channel) TotalTxAirtime() des.Time {
	var total des.Time
	for _, l := range c.lanes {
		//desalint:commutative integer sum over des.Time; addition is order-independent
		for _, t := range l.txTime {
			total += t
		}
	}
	return total
}

// Neighbors returns the IDs of all radios within range of id, in ID order.
func (c *Channel) Neighbors(id NodeID) []NodeID {
	if c.Radio(id) == nil {
		return nil
	}
	return c.NeighborsAppend(id, nil)
}

// NeighborsAppend appends the IDs of all radios within range of id to
// dst (in ID order) and returns the extended slice. The IDs come from
// id's cached audience, so neighbor tables and traffic lists built from
// it share one computation with propagation. Passing a reused buffer
// keeps bulk queries — one per node at build time — free of per-call
// allocations.
func (c *Channel) NeighborsAppend(id NodeID, dst []NodeID) []NodeID {
	self := c.Radio(id)
	if self == nil {
		return dst
	}
	for _, a := range c.audience(self) {
		dst = append(dst, a.dst.id)
	}
	return dst
}

// NeighborPairs returns the number of (radio, neighbor) pairs in range:
// the summed length of NeighborsAppend over every radio, so bulk callers
// can size one backing array up front.
func (c *Channel) NeighborPairs() int {
	n := 0
	for _, r := range c.radios {
		n += len(c.audience(r))
	}
	return n
}

// propagate schedules signal start/end at every radio that hears the
// transmission: in the sender's audience (in range, not the sender
// itself) and inside the beam. The received power divides the beam gain
// by the path loss, which is worked out only after the beam check and
// then kept in the audience entry; the entry belongs to the sender,
// whose lane is the only one that runs its transmissions. Receivers in
// another lane get their deliveries staged on the source lane's outbox
// instead of scheduled directly; FlushCross routes them between windows.
//
//desalint:hotpath
func (c *Channel) propagate(src *Radio, f Frame, m Mode, airtime des.Time) {
	l := src.lane
	now := l.sched.Now()
	aud := c.audience(src)
	for i := range aud {
		a := &aud[i]
		dst := a.dst
		if !m.Covers(a.bearing) {
			if c.params.NAVOracle {
				if dst.lane == l {
					l.sched.ScheduleEvent(c.params.PropDelay+airtime, l.allocHint(dst, f))
				} else {
					l.stage(dst, f, 0, now+c.params.PropDelay+airtime, 0, true)
				}
			}
			continue
		}
		power := 0.0
		if c.params.sinr() {
			if a.loss == 0 {
				a.loss = c.pathLoss(src, dst)
			}
			power = m.Gain() / a.loss
		}
		if dst.lane != l {
			l.stage(dst, f, power, now+c.params.PropDelay, now+c.params.PropDelay+airtime, false)
			continue
		}
		sig := l.allocSignal(f, power)
		l.sched.ScheduleEvent(c.params.PropDelay, l.allocEvent(dst, sig, false))
		l.sched.ScheduleEvent(c.params.PropDelay+airtime, l.allocEvent(dst, sig, true))
	}
}
