package main

import (
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"sync"
	"time"

	"qgov/internal/governor"
	"qgov/internal/serve"
	"qgov/internal/serve/client"
	"qgov/internal/stats"
	"qgov/internal/workload"
)

// The serving workloads are closed loops: a DVFS device cannot report
// epoch t+1 before it has applied decision t. Two lanes run in
// lockstep; each round a lane sends one batch holding the next epoch of
// every device it owns and waits for every reply, so no batch ever
// holds two observations for one session.

const (
	numLanes = 2
	// setupRepeats is how many times set-up runs per untraced run; the
	// first repeats-1 topologies are torn down unused and setup_s is the
	// median.
	setupRepeats = 7
	// traceBlockRounds is the length of the alternating untraced and
	// traced sections of a trace run.
	traceBlockRounds = 64
	// scrapeEvery is the round period of lane 0's telemetry read.
	scrapeEvery = 32
)

// servingConfig describes one serving workload.
type servingConfig struct {
	routed bool
	// Devices that decide every round, and their session lifetime in
	// epochs (0: the whole run).
	devices  int
	lifetime int
	// Sessions created at set-up that never decide.
	idle int
	// Streams recorded, and their length in epochs.
	streams      int
	streamFrames int
	// liveRound is the round after which live_bytes_per_session reads
	// the heap with every session live; it fixes session age at the
	// reading. A multiple of 2*traceBlockRounds, so in a trace run the
	// reading falls between sections.
	liveRound int
}

func runLonglivedFlat(opt options) (*run, error) {
	return runServing(opt, servingConfig{
		devices: 2048,
		streams: 64,
		// The live-bytes round plus twice the rounds this topology serves
		// per second on a 2-vCPU host, for every second of the timed
		// phase; the phase ends early if a faster server exhausts them.
		streamFrames: 1536 + int(opt.seconds)*300,
		liveRound:    1536,
	})
}

func runShortlivedRouted(opt options) (*run, error) {
	return runServing(opt, servingConfig{
		routed:       true,
		devices:      1024,
		lifetime:     40,
		idle:         8192,
		streams:      512,
		streamFrames: 40,
		liveRound:    384,
	})
}

// streamSpecs spreads the recorded streams over the registered
// workloads. Streams longer than h264-football's fixed 3,000-frame
// sequence leave it out.
func streamSpecs(seed int64, n, frames int) []streamSpec {
	var names []string
	for _, w := range workload.Names() {
		if w == "h264-football" && frames > 3000 {
			continue
		}
		names = append(names, w)
	}
	specs := make([]streamSpec, n)
	for i := range specs {
		specs[i] = streamSpec{workload: names[i%len(names)], seed: seed*100000 + int64(i)}
	}
	return specs
}

// device is one simulated cluster: a session id and the stream its
// current session replays.
type device struct {
	id    string
	index int
	gen   int // sessions this device has had before the current one
	age   int // epochs the current session has served
	life  int // epochs the current session lives; 0 for the whole run
	s     *stream
}

// topology is one set-up of the serving stack.
type topology struct {
	servers []*serve.Server
	closers []func()
	router  *serve.Router
	clients [numLanes]*client.Client // lane i's binary connection
	httpc   *http.Client
	metrics string // Prometheus scrape URL (flat only)
}

func (t *topology) close() {
	for i := len(t.closers) - 1; i >= 0; i-- {
		t.closers[i]()
	}
}

func listen() (net.Listener, error) { return net.Listen("tcp", "127.0.0.1:0") }

// startTopology starts the servers (and router), dials the lanes'
// connections and returns without creating any session.
func startTopology(cfg servingConfig) (*topology, error) {
	t := &topology{}
	replica := func(withHTTP bool) (string, error) {
		srv := serve.New(serve.Options{})
		t.servers = append(t.servers, srv)
		t.closers = append(t.closers, func() { _ = srv.Close() })
		lis, err := listen()
		if err != nil {
			return "", err
		}
		tcp := serve.NewTCP(srv, lis)
		go func() { _ = tcp.Serve() }()
		t.closers = append(t.closers, func() { _ = tcp.Close() })
		if withHTTP {
			hlis, err := listen()
			if err != nil {
				return "", err
			}
			hs := &http.Server{Handler: srv.Handler()}
			go func() { _ = hs.Serve(hlis) }()
			t.closers = append(t.closers, func() { _ = hs.Close() })
			t.metrics = "http://" + hlis.Addr().String() + "/v1/metrics?format=prometheus"
			tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
			t.httpc = &http.Client{Transport: tr, Timeout: 30 * time.Second}
			t.closers = append(t.closers, tr.CloseIdleConnections)
		}
		return lis.Addr().String(), nil
	}
	fail := func(err error) (*topology, error) {
		t.close()
		return nil, err
	}
	if !cfg.routed {
		addr, err := replica(true)
		if err != nil {
			return fail(err)
		}
		cl, err := client.Dial(addr)
		if err != nil {
			return fail(err)
		}
		t.closers = append(t.closers, func() { _ = cl.Close() })
		// Both lanes share one multiplexed connection.
		t.clients = [numLanes]*client.Client{cl, cl}
		return t, nil
	}
	addrs := make([]string, 2)
	for i := range addrs {
		a, err := replica(false)
		if err != nil {
			return fail(err)
		}
		addrs[i] = a
	}
	rt, err := serve.NewRouter(addrs, serve.RouterOptions{})
	if err != nil {
		return fail(err)
	}
	t.router = rt
	t.closers = append(t.closers, func() { _ = rt.Close() })
	lis, err := listen()
	if err != nil {
		return fail(err)
	}
	rtcp := serve.NewRouterTCP(rt, lis)
	go func() { _ = rtcp.Serve() }()
	t.closers = append(t.closers, func() { _ = rtcp.Close() })
	for i := range t.clients {
		cl, err := client.Dial(lis.Addr().String())
		if err != nil {
			return fail(err)
		}
		t.closers = append(t.closers, func() { _ = cl.Close() })
		t.clients[i] = cl
	}
	return t, nil
}

// lane is one closed-loop goroutine and everything it owns.
type lane struct {
	index int
	cl    *client.Client
	devs  []*device
	idle  []*device
	ids   []string
	obs   []governor.Observation
	out   []client.Decision
	body  []byte
	sb    *spanBuf // the lane's span buffer in a trace run, else nil

	streams  []*stream
	lifetime int

	cmds chan laneCmd
	done chan error

	// Counts and samples; read by the coordinator between rounds only.
	attempted, failed int64
	decides           int64
	mismatches        []string
	tracedRTTUS       []float64 // batches in traced sections
	createUS          []float64 // traced creates
	deleteUS          []float64 // traced deletes
	controlS          float64   // control time in traced timed sections
	scrapeUS          []float64
	scrapeBytes       []float64
}

type laneCmd struct {
	round   int
	roundID uint64
	traced  bool
}

func (l *lane) mismatch(format string, args ...any) {
	l.failed++
	if len(l.mismatches) < 10 {
		l.mismatches = append(l.mismatches, fmt.Sprintf(format, args...))
	}
}

// control runs one create or delete and counts it; a non-2xx status is a
// failed operation, a transport error aborts the run.
// sb is non-nil while the lane traces; inTimed marks calls inside the
// timed phase.
func (l *lane) control(op string, d *device, sb *spanBuf, parent, round uint64, inTimed bool) error {
	t0 := time.Now()
	var status int
	var body []byte
	var err error
	if op == "create" {
		l.body = d.s.createBody(l.body[:0], d.id)
		status, body, err = l.cl.CreateSession(l.body)
	} else {
		status, body, err = l.cl.DeleteSession(d.id)
	}
	t1 := time.Now()
	if err != nil {
		return fmt.Errorf("%s %s: %w", op, d.id, err)
	}
	l.attempted++
	if status/100 != 2 {
		l.mismatch("%s %s: status %d: %s", op, d.id, status, body)
	}
	if sb != nil {
		us := float64(t1.Sub(t0)) / 1e3
		if op == "create" {
			l.createUS = append(l.createUS, us)
		} else {
			l.deleteUS = append(l.deleteUS, us)
		}
		if inTimed {
			l.controlS += t1.Sub(t0).Seconds()
		}
		sb.add("client."+op, parent, round, sb.at(t0), sb.at(t1))
	}
	return nil
}

// scrape is lane 0's telemetry read between its batches: the flat
// server's Prometheus exposition over HTTP, or the router's fleet health
// over the lane's binary connection.
func (l *lane) scrape(t *topology, sb *spanBuf, parent, round uint64) error {
	t0 := time.Now()
	var n int
	var status int
	if t.router == nil {
		resp, err := t.httpc.Get(t.metrics)
		if err != nil {
			return fmt.Errorf("scrape: %w", err)
		}
		b, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return fmt.Errorf("scrape: %w", err)
		}
		n, status = len(b), resp.StatusCode
	} else {
		st, b, err := l.cl.Health()
		if err != nil {
			return fmt.Errorf("health: %w", err)
		}
		n, status = len(b), st
	}
	t1 := time.Now()
	l.attempted++
	if status != http.StatusOK {
		l.mismatch("scrape: status %d", status)
	}
	l.scrapeUS = append(l.scrapeUS, float64(t1.Sub(t0))/1e3)
	l.scrapeBytes = append(l.scrapeBytes, float64(n))
	sb.add("telemetry.scrape", parent, round, sb.at(t0), sb.at(t1))
	return nil
}

// round is one closed-loop step: re-create the sessions whose life is
// over, scrape when due (lane 0), then decide the next epoch of every
// device and check each decision against the twin's.
func (l *lane) round(t *topology, cmd laneCmd) error {
	r := uint64(cmd.round)
	var sb *spanBuf
	if cmd.traced {
		sb = l.sb
	}
	for _, d := range l.devs {
		if d.life > 0 && d.age == d.life {
			if err := l.control("delete", d, sb, cmd.roundID, r, true); err != nil {
				return err
			}
			l.advance(d)
			if err := l.control("create", d, sb, cmd.roundID, r, true); err != nil {
				return err
			}
		}
	}
	if l.index == 0 && cmd.round%scrapeEvery == scrapeEvery-1 {
		if err := l.scrape(t, sb, cmd.roundID, r); err != nil {
			return err
		}
	}
	for i, d := range l.devs {
		d.s.observation(d.age, &l.obs[i])
	}
	t0 := time.Now()
	err := l.cl.DecideBatch(l.ids, l.obs, l.out)
	t1 := time.Now()
	if err != nil {
		return fmt.Errorf("decide batch: %w", err)
	}
	if cmd.traced {
		l.tracedRTTUS = append(l.tracedRTTUS, float64(t1.Sub(t0))/1e3)
		sb.add("client.DecideBatch", cmd.roundID, r, sb.at(t0), sb.at(t1))
	}
	l.attempted += int64(len(l.devs))
	for i, d := range l.devs {
		o := l.out[i]
		switch {
		case o.Err != "":
			l.mismatch("decide %s epoch %d: %s", d.id, d.age, o.Err)
		case int32(o.OPPIdx) != d.s.opp[d.age]:
			l.mismatch("decide %s epoch %d: served OPP %d, twin chose %d", d.id, d.age, o.OPPIdx, d.s.opp[d.age])
		default:
			l.decides++
		}
		d.age++
	}
	return nil
}

// servingState is one workload's generator: recorded streams, devices
// and lanes. It stays reachable across both heap readings behind
// live_bytes_per_session.
type servingState struct {
	cfg     servingConfig
	streams []*stream
	devices []*device
	idle    []*device
	lanes   [numLanes]*lane
}

func newServingState(cfg servingConfig, streams []*stream) *servingState {
	st := &servingState{cfg: cfg, streams: streams}
	for l := range st.lanes {
		st.lanes[l] = &lane{index: l, streams: streams, lifetime: cfg.lifetime,
			cmds: make(chan laneCmd), done: make(chan error)}
	}
	prefix := "d"
	if cfg.routed {
		prefix = "c"
	}
	for i := 0; i < cfg.devices; i++ {
		d := &device{id: fmt.Sprintf("%s%d", prefix, i), index: i, s: streams[i%len(streams)]}
		if cfg.lifetime > 0 {
			// Stagger the first lifetimes over 1..lifetime so the same
			// share of devices re-create every round.
			d.life = 1 + i%cfg.lifetime
		}
		st.devices = append(st.devices, d)
		l := st.lanes[i%numLanes]
		l.devs = append(l.devs, d)
		l.ids = append(l.ids, d.id)
	}
	for i := 0; i < cfg.idle; i++ {
		d := &device{id: fmt.Sprintf("i%d", i), index: i, s: streams[i%len(streams)]}
		st.idle = append(st.idle, d)
		l := st.lanes[i%numLanes]
		l.idle = append(l.idle, d)
	}
	for _, l := range st.lanes {
		l.obs = make([]governor.Observation, len(l.devs))
		l.out = make([]client.Decision, len(l.devs))
	}
	return st
}

// rewind puts every device back on its first session, for a fresh
// set-up.
func (st *servingState) rewind() {
	for i, d := range st.devices {
		d.gen, d.age = 0, 0
		d.s = st.streams[i%len(st.streams)]
		if st.cfg.lifetime > 0 {
			d.life = 1 + i%st.cfg.lifetime
		}
	}
}

// advance moves a churning device to its next session: the next
// recorded stream, a full lifetime.
func (l *lane) advance(d *device) {
	d.gen++
	d.age = 0
	d.life = l.lifetime
	d.s = l.streams[(d.index+d.gen)%len(l.streams)]
}

// onLanes runs f once per lane on its own goroutine and returns the
// first error.
func (st *servingState) onLanes(f func(l *lane) error) error {
	errs := make([]error, numLanes)
	var wg sync.WaitGroup
	for i, l := range st.lanes {
		wg.Add(1)
		go func(i int, l *lane) {
			defer wg.Done()
			errs[i] = f(l)
		}(i, l)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// setup starts a topology and creates every session, both lanes in
// parallel. It returns the topology and the CPU seconds it took.
func (st *servingState) setup() (*topology, float64, error) {
	st.rewind()
	c0 := cpuSeconds()
	t, err := startTopology(st.cfg)
	if err != nil {
		return nil, 0, fmt.Errorf("starting servers: %w", err)
	}
	for i, l := range st.lanes {
		l.cl = t.clients[i]
	}
	err = st.onLanes(func(l *lane) error {
		for _, group := range [][]*device{l.devs, l.idle} {
			for _, d := range group {
				if err := l.control("create", d, l.sb, 0, 0, false); err != nil {
					return err
				}
			}
		}
		return nil
	})
	if err != nil {
		t.close()
		return nil, 0, err
	}
	return t, cpuSeconds() - c0, nil
}

// drain deletes every session, both lanes in parallel.
func (st *servingState) drain() error {
	return st.onLanes(func(l *lane) error {
		for _, group := range [][]*device{l.devs, l.idle} {
			for _, d := range group {
				if err := l.control("delete", d, l.sb, 0, 0, false); err != nil {
					return err
				}
			}
		}
		return nil
	})
}

// counters is a snapshot of what the layers expose publicly, taken at
// the edges of traced sections.
type counters struct {
	latCount int
	latSum   float64
	faults   int64
	hops     *stats.Histogram
	ms       runtime.MemStats
}

func readCounters(t *topology) counters {
	var c counters
	for _, s := range t.servers {
		if h := s.DecideLatency(); h != nil {
			c.latCount += h.Count()
			c.latSum += h.Sum()
		}
		_, _, f := s.QPoolStats()
		c.faults += f
	}
	if t.router != nil {
		c.hops = t.router.HopLatency()
	}
	runtime.ReadMemStats(&c.ms)
	return c
}

// tracedTotals sums counter differences over every traced section.
type tracedTotals struct {
	latCount         int
	latSumUS         float64
	faults           float64
	hopBins          []float64
	hopCount         float64
	allocB, gcN, gcS float64
}

func (tt *tracedTotals) add(a, b counters) {
	tt.latCount += b.latCount - a.latCount
	tt.latSumUS += b.latSum - a.latSum
	tt.faults += float64(b.faults - a.faults)
	tt.allocB += float64(b.ms.TotalAlloc - a.ms.TotalAlloc)
	tt.gcN += float64(b.ms.NumGC - a.ms.NumGC)
	tt.gcS += float64(b.ms.PauseTotalNs-a.ms.PauseTotalNs) / 1e9
	if b.hops == nil {
		return
	}
	bb := b.hops.Bins()
	if tt.hopBins == nil {
		tt.hopBins = make([]float64, len(bb))
	}
	var ab []int
	if a.hops != nil {
		ab = a.hops.Bins()
	}
	for i := range bb {
		d := bb[i]
		if ab != nil {
			d -= ab[i]
		}
		tt.hopBins[i] += float64(d)
	}
	tt.hopCount += float64(b.hops.Count())
	if a.hops != nil {
		tt.hopCount -= float64(a.hops.Count())
	}
}

// hopP50 interpolates the median relay hop inside its bin of the
// router's fixed-width hop histogram.
func (tt *tracedTotals) hopP50(h *stats.Histogram) float64 {
	var n float64
	for _, c := range tt.hopBins {
		n += c
	}
	if n == 0 || h == nil {
		return 0
	}
	target := n / 2
	var cum float64
	for i, c := range tt.hopBins {
		if c > 0 && cum+c >= target {
			lo, hi := h.LowerEdge(i), h.UpperEdge(i)
			return lo + (target-cum)/c*(hi-lo)
		}
		cum += c
	}
	return h.Hi()
}

func runServing(opt options, cfg servingConfig) (*run, error) {
	r := &run{vals: map[string]float64{}}
	var log *spanLog
	if opt.trace {
		log = newSpanLog()
		r.spans = log
	}

	// Recording comes first and is excluded from every measurement.
	rec, err := recordStreams(streamSpecs(opt.seed, cfg.streams, cfg.streamFrames), cfg.streamFrames, log)
	if err != nil {
		return nil, fmt.Errorf("recording streams: %w", err)
	}
	rec.metrics(r.vals, opt.trace)
	st := newServingState(cfg, rec.streams)
	for _, l := range st.lanes {
		if log != nil {
			l.sb = log.buf()
		}
	}
	var coord *spanBuf // the coordinator's round spans
	if log != nil {
		coord = log.buf()
	}
	sessions := float64(cfg.devices + cfg.idle)

	repeats := setupRepeats
	if opt.trace {
		repeats = 1
	}
	var setupS []float64
	var t *topology
	for i := 0; i < repeats; i++ {
		if t != nil {
			t.close()
		}
		// Each set-up starts from a collected heap, so no collection owed
		// to earlier work lands in its CPU time.
		runtime.GC()
		tp, s, err := st.setup()
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		t = tp
		setupS = append(setupS, s)
	}
	defer func() { t.close() }()
	runtime.GC()

	// Lane goroutines live for the timed phase only.
	var wg sync.WaitGroup
	for _, l := range st.lanes {
		wg.Add(1)
		go func(l *lane) {
			defer wg.Done()
			for cmd := range l.cmds {
				l.done <- l.round(t, cmd)
			}
		}(l)
	}
	stopLanes := func() {
		for _, l := range st.lanes {
			close(l.cmds)
		}
		wg.Wait()
	}

	var (
		heapLive   float64
		wall, cpu  [2]float64 // untraced, traced
		decidesBy  [2]int64
		tt         tracedTotals
		blockStart counters
		round      int
	)
	deadline := time.Now().Add(time.Duration(opt.seconds * float64(time.Second)))
	for ; ; round++ {
		// A run ends at the deadline once the live-bytes reading is done;
		// a trace run also completes its last untraced+traced pair.
		past := !time.Now().Before(deadline)
		if past && round >= cfg.liveRound && (!opt.trace || round%(2*traceBlockRounds) == 0) {
			break
		}
		if cfg.lifetime == 0 && round == cfg.streamFrames {
			break // a faster server has served every recorded epoch
		}
		traced := opt.trace && (round/traceBlockRounds)%2 == 1
		if traced && round%traceBlockRounds == 0 {
			blockStart = readCounters(t)
		}
		var before int64
		for _, l := range st.lanes {
			before += l.decides
		}
		var roundID uint64
		if traced {
			roundID = coord.id()
		}
		c0, t0 := cpuSeconds(), time.Now()
		cmd := laneCmd{round: round, roundID: roundID, traced: traced}
		for _, l := range st.lanes {
			l.cmds <- cmd
		}
		var errs []error
		for _, l := range st.lanes {
			errs = append(errs, <-l.done)
		}
		d, c := time.Since(t0), cpuSeconds()-c0
		if err := errors.Join(errs...); err != nil {
			stopLanes()
			return nil, err
		}
		var after int64
		for _, l := range st.lanes {
			after += l.decides
		}
		k := 0
		if traced {
			k = 1
			coord.put(roundID, 0, uint64(round), "round", coord.at(t0), coord.at(t0.Add(d)))
			if round%traceBlockRounds == traceBlockRounds-1 {
				tt.add(blockStart, readCounters(t))
			}
		}
		wall[k] += d.Seconds()
		cpu[k] += c
		decidesBy[k] += after - before
		if round == cfg.liveRound-1 {
			// Every session is live and the long-lived ones are exactly
			// liveRound epochs old. The reading is outside the timed
			// phase: the deadline moves back by its length.
			t0 := time.Now()
			heapLive = liveHeap()
			deadline = deadline.Add(time.Since(t0))
		}
	}
	stopLanes()
	if opt.trace && round%traceBlockRounds != 0 && (round/traceBlockRounds)%2 == 1 {
		tt.add(blockStart, readCounters(t))
	}
	if heapLive == 0 {
		return nil, fmt.Errorf("timed phase ended before round %d, where live bytes are read", cfg.liveRound)
	}

	poolPagesEnd := 0.0
	for _, s := range t.servers {
		p, _, _ := s.QPoolStats()
		poolPagesEnd += float64(p)
	}
	var hopHist *stats.Histogram
	if t.router != nil {
		hopHist = t.router.HopLatency()
	}

	// Drain, then the gates that must hold on an empty fleet.
	if err := st.drain(); err != nil {
		return nil, fmt.Errorf("drain: %w", err)
	}
	for i, s := range t.servers {
		if n := s.SessionCount(); n != 0 {
			r.fail("server %d holds %d sessions after the drain", i, n)
		}
		if p, _, _ := s.QPoolStats(); p != 0 {
			r.fail("server %d qpage pool holds %d pages after the drain", i, p)
		}
	}
	heapEmpty := liveHeap()
	runtime.KeepAlive(st)

	var tracedRTT, createUS, deleteUS, scrapeUS, scrapeBytes []float64
	var controlS float64
	for _, l := range st.lanes {
		r.attempted += l.attempted
		r.failed += l.failed
		for _, m := range l.mismatches {
			r.gates = append(r.gates, m)
		}
		tracedRTT = append(tracedRTT, l.tracedRTTUS...)
		createUS = append(createUS, l.createUS...)
		deleteUS = append(deleteUS, l.deleteUS...)
		scrapeUS = append(scrapeUS, l.scrapeUS...)
		scrapeBytes = append(scrapeBytes, l.scrapeBytes...)
		controlS += l.controlS
	}

	v := r.vals
	if !opt.trace {
		v["setup_s"] = quantile(setupS, 0.5)
		v["decides_per_cpu_s"] = float64(decidesBy[0]) / cpu[0]
		v["live_bytes_per_session"] = (heapLive - heapEmpty) / sessions
		return r, nil
	}

	var clientBusy float64
	for _, us := range tracedRTT {
		clientBusy += us / 1e6
	}
	serveBusy := tt.latSumUS / 1e6
	tracedDecides := float64(decidesBy[1])
	v["client.decides_per_s"] = float64(decidesBy[0]) / wall[0]
	v["client.decide_p50_us"] = quantile(tracedRTT, 0.5)
	v["client.decide_p90_us"] = quantile(tracedRTT, 0.9)
	v["client.decide_p99_us"] = quantile(tracedRTT, 0.99)
	v["client.decide_busy_s"] = clientBusy
	v["serve.decide_us_mean"] = ratio(tt.latSumUS, float64(tt.latCount))
	v["serve.decide_busy_s"] = serveBusy
	v["serve.decide_share"] = ratio(serveBusy, clientBusy)
	v["runtime.alloc_bytes_per_decide"] = ratio(tt.allocB, tracedDecides)
	v["runtime.gc_cycles"] = tt.gcN
	v["runtime.gc_pause_s"] = tt.gcS
	v["qpage.cow_faults_per_decide"] = ratio(tt.faults, tracedDecides)
	v["qpage.pool_pages_end"] = poolPagesEnd
	v["telemetry.scrape_p50_us"] = quantile(scrapeUS, 0.5)
	v["telemetry.scrape_bytes"] = mean(scrapeBytes)
	v["control.create_us_p50"] = quantile(createUS, 0.5)
	v["control.delete_us_p50"] = quantile(deleteUS, 0.5)
	v["control.busy_share"] = ratio(controlS, numLanes*wall[1])
	v["router.hop_us_p50"] = tt.hopP50(hopHist)
	v["router.hops_per_batch"] = ratio(tt.hopCount, float64(len(tracedRTT)))
	v["trace.overhead_pct"] = overheadPct(float64(decidesBy[0])/cpu[0], tracedDecides/cpu[1])

	epochs := round
	if cfg.lifetime > 0 {
		epochs = cfg.lifetime
	}
	if err := layerReplays(r, st.streams, epochs); err != nil {
		return nil, err
	}
	return r, nil
}
