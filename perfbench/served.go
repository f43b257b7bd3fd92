package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/cache"
	"repro/internal/server"
	"repro/internal/sim"
)

const (
	// hotKeys scenarios are repeated by about three requests in four.
	// The set is four times the store's in-memory bound, so most hits
	// read the entry file (from the OS page cache) and verify its
	// checksum.
	hotKeys  = 64
	lruBound = 16
	// segmentReplies completions make one throughput segment.
	segmentReplies = 256
	// overheadProbes sequential misses measure server overhead net of
	// simulation.
	overheadProbes = 16
)

// Seed streams of the served-mix inputs.
const (
	streamHot = iota + 3
	streamFresh
	streamProbe
)

// servedSpec draws one paper-scale scenario: ring topology, N ∈ {3, 5},
// 100–200 ms simulated, any of the three schemes.
func servedSpec(seed int64, stream, id uint64) spec {
	r := rand.New(rand.NewSource(derive(seed, stream, id)))
	scheme := []string{"ORTS-OCTS", "DRTS-DCTS", "DRTS-OCTS"}[r.Intn(3)]
	beam := 0.0
	if scheme != "ORTS-OCTS" {
		beam = []float64{30, 90, 150}[r.Intn(3)]
	}
	n := []int{3, 5}[r.Intn(2)]
	dur := fmt.Sprintf("%dms", 100+10*r.Intn(11))
	return ringSpec(scheme, beam, n, derive(seed, stream, id, 1), dur)
}

// request is one entry of the request sequence: a hot-set index or a
// fresh scenario id.
type request struct {
	hot bool
	id  int
}

// requestGen hands out the seed-determined request sequence to the
// clients in order. About three draws in four pick a hot key; the rest
// are fresh scenarios, one in five of them posted twice back to back so
// two clients are likely to ask for it at once and coalesce.
type requestGen struct {
	mu      sync.Mutex
	rng     *rand.Rand
	issued  int
	limit   int // stop after this many requests; 0 means no limit
	fresh   int
	pending *request
}

func newRequestGen(seed int64) *requestGen {
	return &requestGen{rng: rand.New(rand.NewSource(derive(seed, 6)))}
}

func (g *requestGen) next() (request, int64, bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.limit > 0 && g.issued >= g.limit {
		return request{}, 0, false
	}
	g.issued++
	idx := int64(g.issued)
	if g.pending != nil {
		r := *g.pending
		g.pending = nil
		return r, idx, true
	}
	u := g.rng.Float64()
	if u < 0.75 {
		return request{hot: true, id: g.rng.Intn(hotKeys)}, idx, true
	}
	r := request{id: g.fresh}
	g.fresh++
	if u >= 0.95 {
		g.pending = &r
	}
	return r, idx, true
}

// hotEntry is a hot-set scenario with its locally computed reply.
type hotEntry struct {
	raw      []byte
	key      cache.Key
	want     []byte // the expected response body
	nodeSecs float64
}

// servedEnv is one set-up of the served-mix workload: an on-disk store
// in a fresh directory, the server's handler on a loopback listener,
// and the filled hot set.
type servedEnv struct {
	dir    string
	store  *cache.Store
	srv    *server.Server
	hs     *http.Server
	served chan error
	url    string
	client *http.Client
	hot    []hotEntry
}

func newServedEnv(b *bench) (*servedEnv, error) {
	tmp := filepath.Join(b.out, "tmp")
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(tmp, "served-")
	if err != nil {
		return nil, err
	}
	store, err := cache.NewStore(dir, lruBound)
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	e := &servedEnv{
		dir: dir, store: store, srv: server.New(server.Config{Cache: store}),
		served: make(chan error, 1),
		url:    "http://" + ln.Addr().String() + "/v1/runs",
		client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: runtime.NumCPU()}},
	}
	e.hs = &http.Server{Handler: e.srv.Handler(), ReadHeaderTimeout: 10 * time.Second}
	go func() { e.served <- e.hs.Serve(ln) }()

	// Fill the hot set through the cache layer, as a sweep that ran
	// these scenarios before would have left it.
	for i := 0; i < hotKeys; i++ {
		raw := servedSpec(b.seed, streamHot, uint64(i)).json()
		sc, err := parse(raw)
		if err != nil {
			e.close()
			return nil, err
		}
		res, payload, err := runEncode(sc, sim.Options{})
		if err == nil {
			err = checkInvariants(res)
		}
		var key cache.Key
		if err == nil {
			key, err = sim.ScenarioKey(sc)
		}
		if err == nil {
			sp := b.t.open("cache.put", 0, 0)
			err = store.Put(key, payload)
			b.t.close(sp)
		}
		if err != nil {
			e.close()
			return nil, fmt.Errorf("hot scenario %s: %w", raw, err)
		}
		e.hot = append(e.hot, hotEntry{
			raw: raw, key: key, want: append(payload, '\n'), nodeSecs: nodeSeconds(sc, res),
		})
	}
	return e, nil
}

// close stops the HTTP server, waits for it, drains the pool and
// removes the store's directory.
func (e *servedEnv) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := e.hs.Shutdown(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: server shutdown:", err)
	}
	if err := <-e.served; err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintln(os.Stderr, "perfbench: serve:", err)
	}
	e.client.CloseIdleConnections()
	e.srv.Close()
	os.RemoveAll(e.dir)
}

// source is a reply's X-Simd-Source tag.
type source uint8

const (
	srcUnknown source = iota
	srcHit
	srcRun
	srcCoalesced
)

var sourceNames = [...]string{"unknown", "hit", "run", "coalesced"}

func parseSource(s string) source {
	for i, name := range sourceNames {
		if s == name {
			return source(i)
		}
	}
	return srcUnknown
}

// reply is the client's record of one request. It holds no strings, so
// the benchmark's own memory grows little with the number of requests.
type reply struct {
	req    request
	lat    time.Duration
	done   time.Duration // completion, from the start of the load
	source source
	key    cache.Key         // of a fresh scenario, from X-Scenario-Key
	sum    [sha256.Size]byte // of a fresh scenario's body
	err    error
}

// post sends one scenario and reads the whole reply.
func (e *servedEnv) post(raw []byte) (body []byte, source, key string, err error) {
	resp, err := e.client.Post(e.url, "application/json", bytes.NewReader(raw))
	if err != nil {
		return nil, "", "", err
	}
	defer resp.Body.Close()
	body, err = io.ReadAll(resp.Body)
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(body))
	}
	return body, resp.Header.Get("X-Simd-Source"), resp.Header.Get("X-Scenario-Key"), err
}

// load runs one closed-loop client per CPU: each sends its next request
// only when the previous reply is complete. It stops at the deadline or
// when gen runs out, and returns the replies, the wall time and, when
// traced, the deepest execution queue a client saw after a reply.
func (e *servedEnv) load(b *bench, gen *requestGen, deadline time.Time, t *tracer) ([]reply, time.Duration, int) {
	clients := runtime.NumCPU()
	per := make([][]reply, clients)
	depth := make([]int, clients)
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				r, idx, ok := gen.next()
				if !ok {
					return
				}
				raw := e.raw(b.seed, r)
				sp := t.open("http.request", 0, idx)
				t0 := time.Now()
				body, source, key, err := e.post(raw)
				lat := time.Since(t0)
				t.close(sp)
				rep := reply{req: r, lat: lat, done: time.Since(start), source: parseSource(source), err: err}
				if err == nil {
					rep.err = e.checkReply(&rep, body, key)
				}
				if t != nil {
					depth[c] = max(depth[c], e.srv.Stats().QueueDepth)
				}
				per[c] = append(per[c], rep)
			}
		}(c)
	}
	wg.Wait()
	wall := time.Since(start)
	var all []reply
	for _, p := range per {
		all = append(all, p...)
	}
	deepest := 0
	for _, d := range depth {
		deepest = max(deepest, d)
	}
	return all, wall, deepest
}

func (e *servedEnv) raw(seed int64, r request) []byte {
	if r.hot {
		return e.hot[r.id].raw
	}
	return servedSpec(seed, streamFresh, uint64(r.id)).json()
}

// checkReply applies the checks that need no local run: a known source
// tag, and for a hot key, the exact expected bytes and content address.
// For a fresh scenario it keeps the content address and a hash of the
// body for verify.
func (e *servedEnv) checkReply(rep *reply, body []byte, key string) error {
	if rep.source == srcUnknown {
		return fmt.Errorf("unknown X-Simd-Source")
	}
	if !rep.req.hot {
		rep.sum = sha256.Sum256(body)
		var err error
		rep.key, err = cache.ParseKey(key)
		return err
	}
	h := e.hot[rep.req.id]
	if key != h.key.String() {
		return fmt.Errorf("X-Scenario-Key %s, want %s", key, h.key)
	}
	if !bytes.Equal(body, h.want) {
		return fmt.Errorf("served body differs from the local run of %s", h.raw)
	}
	return nil
}

// local is the locally computed reply to a fresh scenario.
type local struct {
	sum      [sha256.Size]byte
	key      cache.Key
	nodeSecs float64
	err      error
}

// verify checks every reply, running each distinct fresh scenario
// locally (on all CPUs) and comparing bytes and content address with
// every reply it got. It returns the simulated node-seconds each reply
// delivered.
func (e *servedEnv) verify(b *bench, replies []reply) []float64 {
	ids := make(map[int]*local)
	var order []int
	for _, r := range replies {
		if !r.req.hot && ids[r.req.id] == nil {
			ids[r.req.id] = &local{}
			order = append(order, r.req.id)
		}
	}
	work := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for id := range work {
				ids[id].compute(servedSpec(b.seed, streamFresh, uint64(id)).json())
			}
		}()
	}
	for _, id := range order {
		work <- id
	}
	close(work)
	wg.Wait()

	nodeSecs := make([]float64, len(replies))
	for i, r := range replies {
		err := r.err
		if r.req.hot {
			nodeSecs[i] = e.hot[r.req.id].nodeSecs
		} else {
			l := ids[r.req.id]
			nodeSecs[i] = l.nodeSecs
			switch {
			case err != nil:
			case l.err != nil:
				err = l.err
			case r.key != l.key:
				err = fmt.Errorf("X-Scenario-Key %s, want %s", r.key, l.key)
			case r.sum != l.sum:
				err = fmt.Errorf("served body differs from the local run")
			}
		}
		b.count("request", about(e.raw(b.seed, r.req), err))
	}
	return nodeSecs
}

func (l *local) compute(raw []byte) {
	sc, err := parse(raw)
	if err != nil {
		l.err = err
		return
	}
	res, payload, err := runEncode(sc, sim.Options{})
	if err == nil {
		err = checkInvariants(res)
	}
	var key cache.Key
	if err == nil {
		key, err = sim.ScenarioKey(sc)
	}
	if err != nil {
		l.err = err
		return
	}
	l.sum = sha256.Sum256(append(payload, '\n'))
	l.key = key
	l.nodeSecs = nodeSeconds(sc, res)
}

func runServed(b *bench) error {
	var env *servedEnv
	err := b.setups(setupRepeats, func() error {
		if env != nil {
			env.close()
		}
		var err error
		env, err = newServedEnv(b)
		return err
	})
	if err != nil {
		return err
	}
	defer env.close()
	gen := newRequestGen(b.seed)

	if !b.traced() {
		replies, _, _ := env.load(b, gen, time.Now().Add(b.window), nil)
		rss := peakRSSMB()
		nodeSecs := env.verify(b, replies)
		recordServedLatency(b, replies, nodeSecs)
		b.e2e.set("peak_rss_mb", rss, "MB")
		return nil
	}

	replies, tracedWall, deepest := env.load(b, gen, time.Now().Add(b.window), b.t)
	st, cs := env.srv.Stats(), env.store.Stats()

	// Untraced reference: as many further requests of the same sequence.
	mem := startMem()
	gen.limit = gen.issued + len(replies)
	ref, wall, _ := env.load(b, gen, time.Now().Add(3*b.window), nil)
	mem.record(b.layer, len(ref))

	// Cache probe: every hot key twice, in a seeded random order, through
	// the server's own store.
	rng := rand.New(rand.NewSource(derive(b.seed, 7)))
	for round := 0; round < 2; round++ {
		for _, i := range rng.Perm(hotKeys) {
			sp := b.t.open("cache.get", 0, 0)
			payload, ok := env.store.Get(env.hot[i].key)
			b.t.close(sp)
			var cerr error
			if !ok || !bytes.Equal(append(payload, '\n'), env.hot[i].want) {
				cerr = fmt.Errorf("store returned wrong bytes for a hot key")
			}
			b.count("cache probe", about(env.hot[i].raw, cerr))
		}
	}

	// Overhead probe: a served miss against a direct parse, key, build,
	// run and encode of the same scenario, one at a time.
	var (
		ledgerCounts counts
		overhead     []time.Duration
		sl           simLedger
	)
	for i := 0; i < overheadProbes; i++ {
		raw := servedSpec(b.seed, streamProbe, uint64(i)).json()
		req := int64(-1 - i)
		sp := b.t.open("http.request", 0, req)
		body, source, _, err := env.post(raw)
		sp = b.t.close(sp)
		if err == nil && source != "run" {
			err = fmt.Errorf("probe served as %q, want a fresh run", source)
		}
		var d direct
		if err == nil {
			d, err = runDirect(b.t, raw, req, sim.Options{})
		}
		if err == nil && !bytes.Equal(body, append(d.body, '\n')) {
			err = fmt.Errorf("served body differs from the direct run")
		}
		b.count("overhead probe", about(raw, err))
		if err != nil {
			continue
		}
		overhead = append(overhead, sp.dur()-d.wall)
		ledgerCounts.add(d.counts)
		sl.add(d)
	}
	env.verify(b, append(replies, ref...))

	recordCounts(b.layer, ledgerCounts, len(sl.run))
	sl.record(b)
	b.layer.set("cache.get_us", us(medianDuration(b.t.durations("cache.get"))), "us")
	b.layer.set("cache.put_us", us(medianDuration(b.t.durations("cache.put"))), "us")
	b.layer.set("cache.hits", float64(cs.Hits), "count")
	b.layer.set("cache.misses", float64(cs.Misses), "count")
	b.layer.set("cache.evictions", float64(cs.Evictions), "count")
	b.layer.set("server.executed", float64(st.Executed), "count")
	b.layer.set("server.coalesced", float64(st.Coalesced), "count")
	b.layer.set("server.rejected", float64(st.Rejected), "count")
	hitRatio := 0.0
	if n := st.CacheHits + st.CacheMisses; n > 0 {
		hitRatio = float64(st.CacheHits) / float64(n)
	}
	b.layer.set("server.hit_ratio", hitRatio, "ratio")
	b.layer.set("server.queue_depth_max", float64(deepest), "count")
	b.layer.set("server.overhead_ms", ms(medianDuration(overhead)), "ms")
	b.layer.set("trace.overhead_ratio", tracedWall.Seconds()/wall.Seconds(), "ratio")
	fmt.Fprintf(b.report, "requests=%d traced_wall_s=%.3f untraced_wall_s=%.3f\n", len(replies), tracedWall.Seconds(), wall.Seconds())
	return nil
}

// recordServedLatency sets the end-to-end metrics of served-mix and its
// report-only split by X-Simd-Source.
func recordServedLatency(b *bench, replies []reply, nodeSecs []float64) {
	lats := make([]time.Duration, len(replies))
	var hits, misses []time.Duration
	bySource := make(map[source]int)
	for i, r := range replies {
		lats[i] = r.lat
		bySource[r.source]++
		switch r.source {
		case srcHit:
			hits = append(hits, r.lat)
		case srcRun:
			misses = append(misses, r.lat)
		}
	}
	// Throughput segments are runs of segmentReplies consecutive
	// completions.
	order := make([]int, len(replies))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(i, j int) bool { return replies[order[i]].done < replies[order[j]].done })
	var (
		segs []segment
		seg  segment
		from time.Duration
	)
	for _, i := range order {
		seg.add(nodeSecs[i])
		if seg.ops == segmentReplies {
			seg.wall = replies[i].done - from
			segs = append(segs, seg)
			seg, from = segment{}, replies[i].done
		}
	}
	recordEndToEnd(b, lats, segs)
	xs := durationsMS(lats)
	b.extra.set("req_p99_ms", quantile(xs, 0.99), "ms")
	b.extra.set("req_hit_p50_ms", ms(medianDuration(hits)), "ms")
	b.extra.set("req_miss_p50_ms", ms(medianDuration(misses)), "ms")
	for _, src := range []source{srcHit, srcRun, srcCoalesced} {
		b.extra.set("replies."+sourceNames[src], float64(bySource[src]), "count")
	}
}
