package experiments

import (
	"fmt"
	"math"
	"net"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"qgov/internal/loadgen"
	"qgov/internal/serve"
	"qgov/internal/serve/client"
	"qgov/internal/stats"
)

// The soak experiment: drive a loadgen schedule — heterogeneous clients,
// lifecycle churn, delete storms — against a real serving topology in
// this process and measure what a million-session deployment cares
// about: decide tail latency under churn, memory per live session, how
// much of the churn peak the server gives back, and checkpoint write
// amplification.

// SoakConfig configures one soak run.
type SoakConfig struct {
	// Spec is the workload schedule.
	Spec loadgen.Spec
	// Topology is "flat" (one server), "routed" (router in front of
	// Replicas servers) or "direct" (ring-aware fleet client against the
	// same replicas). Empty means flat.
	Topology string
	// Replicas sizes the routed/direct fleet (default 3).
	Replicas int
	// Lanes and BatchMax tune the runner (loadgen.RunOptions).
	Lanes    int
	BatchMax int
	// LiveSampleEvery, when > 0, samples the LIVE heap at this cadence by
	// forcing a GC first: HeapAlloc right after a collection is reachable
	// memory, not reachable-plus-garbage, so the per-session figure it
	// yields is the one a capacity plan can use. The forced collections
	// cost throughput (concurrent mark competes with the run), so the
	// comparison benchmarks leave this off and only the memory-headline
	// runs pay for it.
	LiveSampleEvery time.Duration
	// CheckpointEvery enables the background checkpoint sweep; 0 runs
	// without checkpointing.
	CheckpointEvery time.Duration
	// CheckpointDir backs the sweep; empty with CheckpointEvery > 0 uses
	// a throwaway temp dir.
	CheckpointDir string
}

// SoakResult is one soak run's measurement.
type SoakResult struct {
	Topology string `json:"topology"`

	Events       int64   `json:"events"`
	Creates      int64   `json:"creates"`
	Deletes      int64   `json:"deletes"`
	Decides      int64   `json:"decides"`
	DecideErrors int64   `json:"decide_errors"`
	PeakLive     int64   `json:"peak_live"`
	Checksum     uint64  `json:"checksum"`
	WallS        float64 `json:"wall_s"`
	DecidesPerS  float64 `json:"decides_per_s"`

	// Batch round-trip quantiles in µs (client side, so they survive the
	// churn that truncates per-session server histograms). -1 marks a
	// quantile the histogram could not resolve (overflow).
	P50US  float64 `json:"p50_us"`
	P99US  float64 `json:"p99_us"`
	P999US float64 `json:"p999_us"`

	// Per-stage attribution of those round trips. ServeP*US is decide
	// time under the session lock, merged across every server in the
	// stack; the gap to the client RTT above is transport, batching and
	// (in routed topologies) the relay. RouteHopP*US, present only with
	// a router in the path, is the router→replica→router hop, so
	// RTT − hop ≈ client-side cost and hop − serve ≈ inter-tier
	// transport. -1 marks an unresolvable (overflowed) quantile.
	ServeDecides  int64   `json:"serve_decides,omitempty"`
	ServeP50US    float64 `json:"serve_p50_us,omitempty"`
	ServeP99US    float64 `json:"serve_p99_us,omitempty"`
	RouteHops     int64   `json:"route_hops,omitempty"`
	RouteHopP50US float64 `json:"route_hop_p50_us,omitempty"`
	RouteHopP99US float64 `json:"route_hop_p99_us,omitempty"`

	// Memory trajectory: Go heap (whole process — servers and clients
	// both live here) sampled through the run, and OS RSS where
	// /proc/self/statm exists. End values are after the drain and a
	// forced GC: what churn permanently cost.
	HeapStartB uint64 `json:"heap_start_b"`
	HeapPeakB  uint64 `json:"heap_peak_b"`
	HeapEndB   uint64 `json:"heap_end_b"`
	RSSPeakB   uint64 `json:"rss_peak_b,omitempty"`
	RSSEndB    uint64 `json:"rss_end_b,omitempty"`
	// BytesPerSession is heap growth at peak per peak live session. The
	// peak is an un-GCed HeapAlloc reading, so this counts float garbage
	// awaiting collection alongside reachable session state — it tracks
	// GC pressure, not footprint, and historically reads ~2x the live
	// figure below. Kept with these semantics for comparability across
	// BENCH_* generations.
	BytesPerSession float64 `json:"bytes_per_session"`
	// LiveHeapPeakB is the peak of the forced-GC samples (reachable
	// memory only) — 0 unless LiveSampleEvery was set.
	LiveHeapPeakB uint64 `json:"live_heap_peak_b,omitempty"`
	// LiveBytesPerSession is live-heap growth at peak per peak live
	// session: the honest per-session footprint, and what the CI
	// tripwire gates on.
	LiveBytesPerSession float64 `json:"live_bytes_per_session,omitempty"`
	// HeapRecoveredFrac is how much of the churn-peak heap growth
	// (peak−start) the drain gave back, clamped to [0,1]: GC timing can
	// land the end reading below the start (the drain returned memory
	// the baseline was still holding), which used to report as >100%
	// recovered — a number that made the metric look broken rather than
	// the drain thorough.
	HeapRecoveredFrac float64 `json:"heap_recovered_frac"`

	// The Q-table pool after the drain: pages/bytes still interned (>0
	// with every session deleted means a refcount leak) and cumulative
	// copy-on-write faults across the run. Fleet-wide sums.
	QTablePoolPagesEnd int64 `json:"qtable_pool_pages_end"`
	QTablePoolBytesEnd int64 `json:"qtable_pool_bytes_end"`
	QTableCowFaults    int64 `json:"qtable_cow_faults"`

	CheckpointWrites  int64 `json:"checkpoint_writes"`
	CheckpointSkipped int64 `json:"checkpoint_skipped"`
}

// readRSS reads resident set bytes from /proc/self/statm (0 where the
// proc filesystem is absent).
func readRSS() uint64 {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	fields := strings.Fields(string(b))
	if len(fields) < 2 {
		return 0
	}
	pages, err := strconv.ParseUint(fields[1], 10, 64)
	if err != nil {
		return 0
	}
	return pages * uint64(os.Getpagesize())
}

func heapAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// soakTopology builds the serving stack for the config and returns the
// runner target, every serve.Server in the stack (for counter reads),
// the router when one is in the stack (for hop attribution) and a
// teardown.
func soakTopology(cfg SoakConfig) (loadgen.Target, []*serve.Server, *serve.Router, func(), error) {
	opt := serve.Options{
		CheckpointDir:   cfg.CheckpointDir,
		CheckpointEvery: cfg.CheckpointEvery,
	}
	var cleanups []func()
	cleanup := func() {
		for i := len(cleanups) - 1; i >= 0; i-- {
			cleanups[i]()
		}
	}
	if cfg.CheckpointEvery > 0 && cfg.CheckpointDir == "" {
		dir, err := os.MkdirTemp("", "soak-ckpt-*")
		if err != nil {
			return nil, nil, nil, nil, err
		}
		opt.CheckpointDir = dir
		cleanups = append(cleanups, func() { _ = os.RemoveAll(dir) })
	}

	newReplica := func() (*serve.Server, string, error) {
		srv := serve.New(opt)
		lis, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			_ = srv.Close()
			return nil, "", err
		}
		tcp := serve.NewTCP(srv, lis)
		go func() { _ = tcp.Serve() }()
		cleanups = append(cleanups, func() {
			_ = tcp.Close()
			_ = srv.Close()
		})
		return srv, lis.Addr().String(), nil
	}

	topo := cfg.Topology
	if topo == "" {
		topo = "flat"
	}
	switch topo {
	case "flat":
		srv, addr, err := newReplica()
		if err != nil {
			cleanup()
			return nil, nil, nil, nil, err
		}
		cl, err := client.Dial(addr)
		if err != nil {
			cleanup()
			return nil, nil, nil, nil, err
		}
		cleanups = append(cleanups, func() { _ = cl.Close() })
		return cl, []*serve.Server{srv}, nil, cleanup, nil
	case "routed", "direct":
		n := cfg.Replicas
		if n <= 0 {
			n = 3
		}
		srvs := make([]*serve.Server, n)
		addrs := make([]string, n)
		for i := range srvs {
			srv, addr, err := newReplica()
			if err != nil {
				cleanup()
				return nil, nil, nil, nil, err
			}
			srvs[i], addrs[i] = srv, addr
		}
		rt, err := serve.NewRouter(addrs, serve.RouterOptions{ProbeEvery: -1})
		if err != nil {
			cleanup()
			return nil, nil, nil, nil, err
		}
		cleanups = append(cleanups, func() { _ = rt.Close() })
		rtLis, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			cleanup()
			return nil, nil, nil, nil, err
		}
		rtTCP := serve.NewRouterTCP(rt, rtLis)
		go func() { _ = rtTCP.Serve() }()
		cleanups = append(cleanups, func() { _ = rtTCP.Close() })
		if topo == "direct" {
			fl, err := client.DialFleet(rtLis.Addr().String())
			if err != nil {
				cleanup()
				return nil, nil, nil, nil, err
			}
			cleanups = append(cleanups, func() { _ = fl.Close() })
			return fl, srvs, rt, cleanup, nil
		}
		cl, err := client.Dial(rtLis.Addr().String())
		if err != nil {
			cleanup()
			return nil, nil, nil, nil, err
		}
		cleanups = append(cleanups, func() { _ = cl.Close() })
		return cl, srvs, rt, cleanup, nil
	default:
		cleanup()
		return nil, nil, nil, nil, fmt.Errorf("soak: unknown topology %q (flat, routed or direct)", cfg.Topology)
	}
}

// finiteQ reads one quantile from the latency histogram, mapping an
// unresolvable (overflowed) quantile to -1 rather than +Inf so results
// stay JSON-encodable.
func finiteQ(rep *loadgen.Report, q float64) float64 {
	v := rep.Latency.Quantile(q)
	if math.IsInf(v, 0) || math.IsNaN(v) {
		return -1
	}
	return v
}

// RunSoak executes one soak run and measures it, then checks the served
// decisions against the in-process oracle (loadgen.Local) replaying the
// same schedule: a checksum mismatch is returned as an error, with the
// measured result.
func RunSoak(cfg SoakConfig) (*SoakResult, error) {
	target, srvs, rt, cleanup, err := soakTopology(cfg)
	if err != nil {
		return nil, err
	}
	defer cleanup()

	g, err := loadgen.New(cfg.Spec)
	if err != nil {
		return nil, err
	}

	// Settle before the baseline heap reading.
	runtime.GC()
	heapStart := heapAlloc()

	// Sample the memory trajectory while the run executes.
	var heapPeak, rssPeak, livePeak atomic.Uint64
	stop := make(chan struct{})
	sampler := make(chan struct{})
	go func() {
		defer close(sampler)
		t := time.NewTicker(10 * time.Millisecond)
		defer t.Stop()
		var live *time.Ticker
		var liveC <-chan time.Time
		if cfg.LiveSampleEvery > 0 {
			live = time.NewTicker(cfg.LiveSampleEvery)
			liveC = live.C
			defer live.Stop()
		}
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				if h := heapAlloc(); h > heapPeak.Load() {
					heapPeak.Store(h)
				}
				if r := readRSS(); r > rssPeak.Load() {
					rssPeak.Store(r)
				}
			case <-liveC:
				// Collect, then read: HeapAlloc after a GC is reachable
				// memory — the footprint a capacity plan buys RAM for.
				runtime.GC()
				if h := heapAlloc(); h > livePeak.Load() {
					livePeak.Store(h)
				}
			}
		}
	}()

	rep, runErr := loadgen.Run(g, target, loadgen.RunOptions{Lanes: cfg.Lanes, BatchMax: cfg.BatchMax})
	close(stop)
	<-sampler
	if runErr != nil {
		return nil, runErr
	}

	// What did churn permanently cost? Two GCs so finalizer-held memory
	// clears too.
	runtime.GC()
	runtime.GC()
	heapEnd := heapAlloc()
	rssEnd := readRSS()
	if h := heapEnd; h > heapPeak.Load() {
		heapPeak.Store(h)
	}

	res := &SoakResult{
		Topology:     cfg.Topology,
		Events:       rep.Events,
		Creates:      rep.Creates,
		Deletes:      rep.Deletes,
		Decides:      rep.Decides,
		DecideErrors: rep.DecideErrors,
		PeakLive:     rep.PeakLive,
		Checksum:     rep.Checksum,
		WallS:        rep.WallS,
		P50US:        finiteQ(rep, 0.50),
		P99US:        finiteQ(rep, 0.99),
		P999US:       finiteQ(rep, 0.999),
		HeapStartB:   heapStart,
		HeapPeakB:    heapPeak.Load(),
		HeapEndB:     heapEnd,
		RSSPeakB:     rssPeak.Load(),
		RSSEndB:      rssEnd,
	}
	if res.Topology == "" {
		res.Topology = "flat"
	}
	if rep.WallS > 0 {
		res.DecidesPerS = float64(rep.Decides) / rep.WallS
	}
	if rep.PeakLive > 0 && res.HeapPeakB > heapStart {
		res.BytesPerSession = float64(res.HeapPeakB-heapStart) / float64(rep.PeakLive)
	}
	res.LiveHeapPeakB = livePeak.Load()
	if rep.PeakLive > 0 && res.LiveHeapPeakB > heapStart {
		res.LiveBytesPerSession = float64(res.LiveHeapPeakB-heapStart) / float64(rep.PeakLive)
	}
	if res.HeapPeakB > heapStart {
		res.HeapRecoveredFrac = float64(res.HeapPeakB-heapEnd) / float64(res.HeapPeakB-heapStart)
		if res.HeapRecoveredFrac > 1 {
			res.HeapRecoveredFrac = 1 // drain gave back pre-run memory too
		}
		if res.HeapRecoveredFrac < 0 {
			res.HeapRecoveredFrac = 0
		}
	}
	for _, srv := range srvs {
		w, sk := srv.CheckpointCounters()
		res.CheckpointWrites += w
		res.CheckpointSkipped += sk
		pages, bytes, faults := srv.QPoolStats()
		res.QTablePoolPagesEnd += pages
		res.QTablePoolBytesEnd += bytes
		res.QTableCowFaults += faults
	}

	// Per-stage attribution: decide time under the session lock (merged
	// across the stack's servers) and, with a router in the path, the
	// relayed hop.
	histQ := func(h interface {
		Quantile(float64) float64
	}, q float64) float64 {
		v := h.Quantile(q)
		if math.IsInf(v, 0) || math.IsNaN(v) {
			return -1
		}
		return v
	}
	var serveLat *stats.Histogram
	for _, srv := range srvs {
		h := srv.DecideLatency()
		if h == nil {
			continue
		}
		if serveLat == nil {
			serveLat = h
			continue
		}
		if err := serveLat.Merge(h); err != nil {
			return res, fmt.Errorf("soak: merging decide latency: %w", err)
		}
	}
	if serveLat != nil && serveLat.Count() > 0 {
		res.ServeDecides = int64(serveLat.Count())
		res.ServeP50US = histQ(serveLat, 0.50)
		res.ServeP99US = histQ(serveLat, 0.99)
	}
	if rt != nil {
		if hop := rt.HopLatency(); hop != nil && hop.Count() > 0 {
			res.RouteHops = int64(hop.Count())
			res.RouteHopP50US = histQ(hop, 0.50)
			res.RouteHopP99US = histQ(hop, 0.99)
		}
	}
	if rep.CreateErrors != 0 || rep.DeleteErrors != 0 {
		return res, fmt.Errorf("soak: control-plane errors: %d create, %d delete", rep.CreateErrors, rep.DeleteErrors)
	}

	// The served decisions must be the in-process oracle's: replay the
	// same generated schedule into loadgen.Local, after every timing and
	// memory reading above, and compare the order-independent checksums.
	og, err := loadgen.New(cfg.Spec)
	if err != nil {
		return res, err
	}
	oracle, err := loadgen.Run(og, loadgen.NewLocal(), loadgen.RunOptions{Lanes: cfg.Lanes, BatchMax: cfg.BatchMax})
	if err != nil {
		return res, fmt.Errorf("soak: oracle replay: %w", err)
	}
	if oracle.Checksum != rep.Checksum {
		return res, fmt.Errorf("soak: served decision checksum %016x differs from the oracle's %016x", rep.Checksum, oracle.Checksum)
	}
	return res, nil
}
