package phy

// Differential coverage for the incremental spatial index (DESIGN.md
// §15) and the per-radio audience cache (§7.2): randomized mobility
// churn interleaved with transmissions must produce delivery traces
// byte-identical to the forced all-or-nothing rebuild, and every cached
// audience must equal a brute-force scan, across seeds and under -race
// (via `make test`). The partitioned kernel freezes placement instead —
// SetPos must panic rather than race against concurrent reads.

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/des"
	"repro/internal/geom"
)

// churnOp is one scripted stimulus: a batch of repositionings followed
// by one directional transmission.
type churnOp struct {
	moves   []churnMove
	src     NodeID
	bearing float64
	width   float64
}

type churnMove struct {
	id  NodeID
	pos geom.Point
}

// churnScript draws a deterministic op sequence so both channel
// instances see the identical stimulus.
func churnScript(seed int64, n, rounds int) []churnOp {
	rng := rand.New(rand.NewSource(seed))
	ops := make([]churnOp, rounds)
	for i := range ops {
		nMoves := rng.Intn(8)
		moves := make([]churnMove, nMoves)
		for j := range moves {
			moves[j] = churnMove{
				id:  NodeID(rng.Intn(n)),
				pos: geom.Point{X: rng.Float64()*6 - 3, Y: rng.Float64()*6 - 3},
			}
		}
		ops[i] = churnOp{
			moves:   moves,
			src:     NodeID(rng.Intn(n)),
			bearing: rng.Float64()*6 - 3,
			width:   0.5 + rng.Float64()*2,
		}
	}
	return ops
}

// traceRec is one observed PHY indication.
type traceRec struct {
	at   des.Time
	node NodeID
	kind byte // 'f' frame, 'e' frame error, 'b' carrier busy, 'i' carrier idle, 't' tx done
	src  NodeID
	seq  int64
}

// tracingHandler appends every indication to a shared log.
type tracingHandler struct {
	sched *des.Scheduler
	id    NodeID
	log   *[]traceRec
}

func (h *tracingHandler) rec(kind byte, src NodeID, seq int64) {
	*h.log = append(*h.log, traceRec{at: h.sched.Now(), node: h.id, kind: kind, src: src, seq: seq})
}

func (h *tracingHandler) OnCarrierBusy()  { h.rec('b', -1, 0) }
func (h *tracingHandler) OnCarrierIdle()  { h.rec('i', -1, 0) }
func (h *tracingHandler) OnFrame(f Frame) { h.rec('f', f.Src, f.Seq) }
func (h *tracingHandler) OnFrameError()   { h.rec('e', -1, 0) }
func (h *tracingHandler) OnTxDone()       { h.rec('t', -1, 0) }

// runChurn replays the scripted churn on a fresh channel and returns the
// full delivery trace.
func runChurn(t *testing.T, seed int64, n int, ops []churnOp, fullRebuild bool) []traceRec {
	t.Helper()
	sched := des.New(seed)
	p := DefaultParams()
	p.Range = 0.9
	ch, err := NewChannel(sched, p)
	if err != nil {
		t.Fatal(err)
	}
	var log []traceRec
	place := rand.New(rand.NewSource(seed ^ 0x9e37))
	handlers := make([]tracingHandler, n)
	for i := 0; i < n; i++ {
		handlers[i] = tracingHandler{sched: sched, id: NodeID(i), log: &log}
		ch.AddRadio(geom.Point{X: place.Float64()*6 - 3, Y: place.Float64()*6 - 3}, &handlers[i])
	}
	ch.SetFullRebuild(fullRebuild)
	var seq int64
	for _, op := range ops {
		for _, m := range op.moves {
			ch.Radio(m.id).SetPos(m.pos)
		}
		seq++
		tx := ch.Radio(op.src)
		f := Frame{Type: Data, Src: tx.ID(), Dst: Broadcast, Bytes: 200, Seq: seq}
		if _, err := tx.Transmit(f, Directed(op.bearing, op.width)); err != nil {
			t.Fatal(err)
		}
		sched.RunAll()
	}
	return log
}

// TestMobilityChurnDifferential: across 4 seeds, the incremental index
// and the forced full rebuild must yield identical traces — same
// indications, at the same instants, in the same order.
func TestMobilityChurnDifferential(t *testing.T) {
	const n, rounds = 120, 150
	for _, seed := range []int64{1, 2, 3, 4} {
		ops := churnScript(seed, n, rounds)
		inc := runChurn(t, seed, n, ops, false)
		full := runChurn(t, seed, n, ops, true)
		if len(inc) != len(full) {
			t.Fatalf("seed %d: incremental trace has %d records, full rebuild %d", seed, len(inc), len(full))
		}
		for i := range inc {
			if inc[i] != full[i] {
				t.Fatalf("seed %d: trace diverges at record %d: incremental %+v, full rebuild %+v",
					seed, i, inc[i], full[i])
			}
		}
	}
}

// bruteAudience is the reference audience: an O(N) scan of every radio in
// ID order, with each value computed the way propagation defines it.
func bruteAudience(ch *Channel, src *Radio) []audEntry {
	p := ch.Params()
	var out []audEntry
	for _, dst := range ch.radios {
		if dst == src || dst.pos.Dist2(src.pos) > p.Range*p.Range {
			continue
		}
		a := audEntry{dst: dst, bearing: src.pos.Bearing(dst.pos)}
		if p.SINRThreshold > 0 {
			d := src.pos.Dist(dst.pos)
			if d < 1e-6 {
				d = 1e-6
			}
			a.loss = math.Pow(d, p.PathLoss)
		}
		out = append(out, a)
	}
	return out
}

// checkAudiences compares every radio's cached audience with the brute
// force scan: same members in the same order, bit-equal bearing, and a
// path loss that is either not worked out yet (0) or bit-equal. The
// members of tx's audience inside beam must have their loss worked out:
// the frame tx just sent covered them.
func checkAudiences(t *testing.T, ch *Channel, step int, tx *Radio, beam Mode) {
	t.Helper()
	for _, r := range ch.radios {
		got, want := ch.audience(r), bruteAudience(ch, r)
		if len(got) != len(want) {
			t.Fatalf("step %d radio %d: audience has %d members, brute force %d", step, r.id, len(got), len(want))
		}
		for i := range got {
			g, w := got[i], want[i]
			lossOK := math.Float64bits(g.loss) == math.Float64bits(w.loss) ||
				g.loss == 0 && (r != tx || !beam.Covers(w.bearing))
			if g.dst != w.dst ||
				math.Float64bits(g.bearing) != math.Float64bits(w.bearing) || !lossOK {
				t.Fatalf("step %d radio %d member %d: cached {%d %v %v}, brute force {%d %v %v}",
					step, r.id, i, g.dst.id, g.bearing, g.loss, w.dst.id, w.bearing, w.loss)
			}
		}
	}
}

// TestAudienceDifferential: across 4 seeds of scripted moves and
// transmissions, under the SINR model so path loss is cached too, every
// audience equals the brute-force scan after every step — with the
// incremental index and with the forced full rebuild.
func TestAudienceDifferential(t *testing.T) {
	const n, rounds = 80, 60
	for _, fullRebuild := range []bool{false, true} {
		for _, seed := range []int64{1, 2, 3, 4} {
			sched := des.New(seed)
			p := DefaultParams()
			p.Range = 0.9
			p.SINRThreshold, p.PathLoss, p.NoiseFloor = 10, 2.5, 0.001
			ch, err := NewChannel(sched, p)
			if err != nil {
				t.Fatal(err)
			}
			place := rand.New(rand.NewSource(seed ^ 0x9e37))
			handlers := make([]discardHandler, n)
			for i := range handlers {
				ch.AddRadio(geom.Point{X: place.Float64()*6 - 3, Y: place.Float64()*6 - 3}, &handlers[i])
			}
			ch.SetFullRebuild(fullRebuild)
			checkAudiences(t, ch, -1, nil, Omni)
			for step, op := range churnScript(seed, n, rounds) {
				for _, m := range op.moves {
					ch.Radio(m.id).SetPos(m.pos)
				}
				tx := ch.Radio(op.src)
				beam := Directed(op.bearing, op.width)
				f := Frame{Type: Data, Src: tx.ID(), Dst: Broadcast, Bytes: 200, Seq: int64(step)}
				if _, err := tx.Transmit(f, beam); err != nil {
					t.Fatal(err)
				}
				sched.RunAll()
				checkAudiences(t, ch, step, tx, beam)
			}
		}
	}
}

// TestAudienceFollowsMoves: a cached audience must not outlive a move.
// A receiver moved out of range stops receiving, and one moved into
// range starts receiving, on the next transmission.
func TestAudienceFollowsMoves(t *testing.T) {
	sched := des.New(1)
	ch, err := NewChannel(sched, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	var log []traceRec
	handlers := make([]tracingHandler, 3)
	pos := []geom.Point{{X: 0}, {X: 0.5}, {X: 5}}
	for i := range handlers {
		handlers[i] = tracingHandler{sched: sched, id: NodeID(i), log: &log}
		ch.AddRadio(pos[i], &handlers[i])
	}
	var seq int64
	receivers := func() []NodeID {
		log = log[:0]
		seq++
		f := Frame{Type: Data, Src: 0, Dst: Broadcast, Bytes: 100, Seq: seq}
		if _, err := ch.Radio(0).Transmit(f, Omni); err != nil {
			t.Fatal(err)
		}
		sched.RunAll()
		var got []NodeID
		for _, rec := range log {
			if rec.kind == 'f' && rec.seq == seq {
				got = append(got, rec.node)
			}
		}
		return got
	}
	if got := receivers(); len(got) != 1 || got[0] != 1 {
		t.Fatalf("before any move: frame received by %v, want [1]", got)
	}
	ch.Radio(1).SetPos(geom.Point{X: 3}) // out of range
	if got := receivers(); len(got) != 0 {
		t.Fatalf("radio 1 moved out of range: frame received by %v, want nobody", got)
	}
	ch.Radio(2).SetPos(geom.Point{Y: 0.7}) // into range
	if got := receivers(); len(got) != 1 || got[0] != 2 {
		t.Fatalf("radio 2 moved into range: frame received by %v, want [2]", got)
	}
}

// TestPartitionedSetPosFrozen: ConfigurePartitions freezes radio
// placement (the grid is read concurrently by every lane), so SetPos on
// a partitioned channel must panic instead of corrupting the index.
func TestPartitionedSetPosFrozen(t *testing.T) {
	sched := des.New(1)
	ch, err := NewChannel(sched, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	var handlers [4]discardHandler
	for i := range handlers {
		ch.AddRadio(geom.Point{X: float64(i)}, &handlers[i])
	}
	if err := ch.ConfigurePartitions([]*des.Scheduler{sched}, []int32{0, 0, 0, 0}); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("SetPos on a partitioned channel did not panic")
		}
	}()
	ch.Radio(0).SetPos(geom.Point{X: 9})
}

// TestRebuildShrinksBuckets: a rebuild must release bucket capacity left
// over from a denser past — occupancy below 25% of capacity reallocates
// tight, and slots past the used range drop their backing arrays —
// otherwise the index permanently holds its historical peak.
func TestRebuildShrinksBuckets(t *testing.T) {
	sched := des.New(1)
	ch, err := NewChannel(sched, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	const n = 64
	var handlers [n]discardHandler
	for i := 0; i < n; i++ {
		ch.AddRadio(geom.Point{X: 0.5, Y: 0.5}, &handlers[i]) // one dense cell
	}
	ch.Neighbors(0) // build: slot 0 holds all 64 IDs
	if got := cap(ch.buckets[0]); got < n {
		t.Fatalf("dense bucket capacity %d, want >= %d", got, n)
	}
	// Scatter the radios over many cells and force a full rebuild.
	ch.SetFullRebuild(true)
	for i := 0; i < n; i++ {
		ch.Radio(NodeID(i)).SetPos(geom.Point{X: float64(i%8) * 3, Y: float64(i/8) * 3})
	}
	ch.Neighbors(0)
	for slot := 0; slot < ch.usedBuckets; slot++ {
		b := ch.buckets[slot]
		if cap(b) >= 8 && len(b)*4 < cap(b) {
			t.Fatalf("slot %d kept %d capacity for %d radios (>4x ballast)", slot, cap(b), len(b))
		}
	}
	for slot := ch.usedBuckets; slot < len(ch.buckets); slot++ {
		if ch.buckets[slot] != nil {
			t.Fatalf("unused slot %d retains a backing array (cap %d)", slot, cap(ch.buckets[slot]))
		}
	}
}
