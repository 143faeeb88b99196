package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"runtime"
	"sort"
	"strconv"
	"sync"

	"qgov/internal/governor"
	"qgov/internal/stats"
	"qgov/internal/strhash"
	"qgov/internal/wire"
)

// Wire types. Floats round-trip exactly through encoding/json (shortest
// representation that parses back to the same float64), which is what
// lets a served governor reproduce a sim.Run decision for decision.

// createRequest creates one session.
type createRequest struct {
	// ID names the session; empty lets the server assign one. It must be
	// filename-safe (it names the checkpoint file).
	ID string `json:"id"`
	// Governor is the registered governor name ("rtm", "mldtm", ...).
	Governor string `json:"governor"`
	// Platform is the scenario platform variant; empty uses the server
	// default.
	Platform string `json:"platform,omitempty"`
	// PeriodS is the decision-epoch deadline Tref; 0 uses the server
	// default.
	PeriodS float64 `json:"period_s,omitempty"`
	// Seed feeds the governor's stochastic policy.
	Seed int64 `json:"seed,omitempty"`
	// CalibrationCC optionally pre-characterises an RTM's workload state
	// range (per-epoch critical-path cycle counts, the paper's design-
	// space exploration).
	CalibrationCC []float64 `json:"calibration_cc,omitempty"`
	// State optionally warm-starts the governor from an inline
	// checkpoint (the body written by /checkpoint or scenario.Freeze).
	// It takes precedence over warm_start and over a checkpoint on disk.
	State json.RawMessage `json:"state,omitempty"`
	// Workload optionally names the workload this session controls
	// (a workload-registry name). It is matching metadata: warm_start
	// "auto" prefers a manifest trained on the same workload before
	// falling back to any same-platform one.
	Workload string `json:"workload,omitempty"`
	// WarmStart resolves learnt state from the checkpoint registry:
	// "auto" picks the nearest manifest for this session's fingerprint,
	// anything else names a manifest id exactly. Inline State and the
	// session's own checkpoint (a re-created id resumes its exact learnt
	// policy) both take precedence; when neither exists the registry
	// resolves it, and the server having no registry is then an error.
	// Alongside inline State, a non-"auto" value is recorded as the
	// session's warm_manifest provenance (the router's hand-off path).
	WarmStart string `json:"warm_start,omitempty"`
	// ThermalCapMW, when positive, wraps the governor in a per-session
	// power cap (governor.ThermalCap in power-only form): sensed epoch
	// power above the budget steps the permissible OPP ceiling down, and
	// it recovers once power clears the cap's hysteresis.
	ThermalCapMW float64 `json:"thermal_cap_mw,omitempty"`
}

type sessionInfo struct {
	ID           string  `json:"id"`
	Governor     string  `json:"governor"`
	Platform     string  `json:"platform"`
	Workload     string  `json:"workload,omitempty"`
	PeriodS      float64 `json:"period_s"`
	Seed         int64   `json:"seed"`
	ThermalCapMW float64 `json:"thermal_cap_mw,omitempty"`
	WarmManifest string  `json:"warm_manifest,omitempty"` // registry manifest the session warm-started from
	Epochs       int64   `json:"epochs"`
	Explorations int     `json:"explorations"` // -1 for non-learners
	ConvergedAt  int     `json:"converged_at"` // -1 while learning
}

// sessionDetail is one session's full document: its info plus, for
// learners that expose it, the ExplorationStats trio — where the ε
// schedule sits, how much experience the tables hold, and how much of
// the greedy policy has settled. GET /v1/sessions/{id} serves it, and
// /v1/metrics?top=K lists it for the K busiest sessions.
type sessionDetail struct {
	sessionInfo
	Epsilon           *float64 `json:"epsilon,omitempty"`
	VisitTotal        *int     `json:"visit_total,omitempty"`
	ConvergedFraction *float64 `json:"converged_fraction,omitempty"`
}

type decideRequest struct {
	Requests []decideItem `json:"requests"`
}

type decideItem struct {
	Session string          `json:"session"`
	Obs     observationJSON `json:"obs"`
}

// observationJSON mirrors governor.Observation field for field.
type observationJSON struct {
	Epoch     int       `json:"epoch"`
	Cycles    []uint64  `json:"cycles,omitempty"`
	Util      []float64 `json:"util,omitempty"`
	ExecTimeS float64   `json:"exec_time_s"`
	PeriodS   float64   `json:"period_s"`
	WallTimeS float64   `json:"wall_time_s"`
	PowerW    float64   `json:"power_w"`
	TempC     float64   `json:"temp_c"`
	OPPIdx    int       `json:"opp_idx"`
}

func (o observationJSON) observation() governor.Observation {
	return governor.Observation{
		Epoch:     o.Epoch,
		Cycles:    o.Cycles,
		Util:      o.Util,
		ExecTimeS: o.ExecTimeS,
		PeriodS:   o.PeriodS,
		WallTimeS: o.WallTimeS,
		PowerW:    o.PowerW,
		TempC:     o.TempC,
		OPPIdx:    o.OPPIdx,
	}
}

type decideResponse struct {
	Decisions []decisionJSON `json:"decisions"`
}

type decisionJSON struct {
	Session string `json:"session"`
	OPPIdx  int    `json:"opp_idx"`
	FreqMHz int    `json:"freq_mhz,omitempty"`
	Error   string `json:"error,omitempty"`
}

// maxDecideBatch bounds one /v1/decide request; a controller batching
// more clusters than this per tick should split the batch.
const maxDecideBatch = 4096

// maxBodyBytes bounds any request body (calibration series and inline
// checkpoints are the big ones).
const maxBodyBytes = 32 << 20

// Handler returns the HTTP API.
func (s *Server) Handler() http.Handler { return newHTTPFront(s) }

// newHTTPFront builds the HTTP API both tiers serve: Server.Handler and
// Router.Handler both return it. Every route is a codec over the
// backend's two entry points. Session and fleet routes call control
// with the op, id and JSON body a binary control frame would carry, and
// JSON decide runs its batch through decideBatch, so each operation has
// one implementation per tier whichever transport carries it. The
// Prometheus scrape renders the same OpMetrics document the JSON form
// serves.
func newHTTPFront(b connBackend) http.Handler {
	mux := http.NewServeMux()
	route := func(pattern string, op byte) {
		mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
			status, body := b.control(op, r.PathValue("id"), nil)
			writeControlResult(w, status, body)
		})
	}
	route("GET /v1/sessions/{id}", wire.OpInfo)
	route("DELETE /v1/sessions/{id}", wire.OpDelete)
	route("POST /v1/sessions/{id}/checkpoint", wire.OpCheckpoint)
	route("GET /v1/members", wire.OpMembers)
	route("GET /healthz", wire.OpHealth)
	mux.HandleFunc("POST /v1/sessions", func(w http.ResponseWriter, r *http.Request) {
		body, err := readBody(w, r)
		if err != nil {
			writeControlResult(w, http.StatusBadRequest, errorBody(err))
			return
		}
		status, resp := b.control(wire.OpCreate, "", body)
		writeControlResult(w, status, resp)
	})
	mux.HandleFunc("GET /v1/trace", func(w http.ResponseWriter, r *http.Request) {
		q, err := traceQueryFromRequest(r)
		if err != nil {
			writeControlResult(w, http.StatusBadRequest, errorBody(err))
			return
		}
		status, body := b.control(wire.OpTrace, "", jsonBody(q))
		writeControlResult(w, status, body)
	})
	mux.HandleFunc("GET /v1/metrics", func(w http.ResponseWriter, r *http.Request) {
		status, body := b.control(wire.OpMetrics, "", metricsQueryFromRequest(r))
		if status != http.StatusOK || !wantsPrometheus(r) {
			writeControlResult(w, status, body)
			return
		}
		var m metricsJSON
		if err := json.Unmarshal(body, &m); err != nil {
			writeControlResult(w, http.StatusInternalServerError, errorBody(err))
			return
		}
		w.Header().Set("Content-Type", prometheusContentType)
		writePrometheus(w, m)
	})
	mux.HandleFunc("POST /v1/decide", func(w http.ResponseWriter, r *http.Request) {
		status, body := decideJSON(b, w, r)
		writeControlResult(w, status, body)
	})
	return mux
}

// readBody reads a request body of at most maxBodyBytes.
func readBody(w http.ResponseWriter, r *http.Request) ([]byte, error) {
	return io.ReadAll(http.MaxBytesReader(w, r.Body, maxBodyBytes))
}

// writeControlResult writes a control result as an HTTP response: the
// two planes share status codes and bodies by construction.
func writeControlResult(w http.ResponseWriter, status uint16, body []byte) {
	if len(body) == 0 {
		w.WriteHeader(int(status))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(int(status))
	_, _ = w.Write(body)
}

// decideJSON serves one JSON decide batch: one observation per entry,
// one operating-point decision back per entry, through the backend's
// decideBatch, the same path binary observes take. Entries fail
// independently: an unknown session or a rejected observation errors
// that entry, not the batch. A batch may carry several observations for
// one session; they decide in batch order.
func decideJSON(b connBackend, w http.ResponseWriter, r *http.Request) (uint16, []byte) {
	raw, err := readBody(w, r)
	if err != nil {
		return http.StatusBadRequest, errorBody(err)
	}
	var req decideRequest
	if err := json.Unmarshal(raw, &req); err != nil {
		return http.StatusBadRequest, errorBody(err)
	}
	n := len(req.Requests)
	if n == 0 {
		return http.StatusBadRequest, errorBody(errf("requests is empty"))
	}
	if n > maxDecideBatch {
		return http.StatusBadRequest, errorBody(errf("batch of %d exceeds the %d-decision limit", n, maxDecideBatch))
	}
	batch := make([]*observeReq, n)
	for i, item := range req.Requests {
		batch[i] = &observeReq{}
		batch[i].m.Session = []byte(item.Session)
		batch[i].m.Obs = item.Obs.observation()
	}
	b.decideBatch(batch)
	resp := decideResponse{Decisions: make([]decisionJSON, n)}
	for i, q := range batch {
		// Every failure path sets oppIdx -1 and freqMHz 0.
		resp.Decisions[i] = decisionJSON{
			Session: req.Requests[i].Session,
			OPPIdx:  int(q.oppIdx),
			FreqMHz: int(q.freqMHz),
			Error:   q.errMsg,
		}
	}
	return http.StatusOK, jsonBody(resp)
}

// info is the session's lean document: what a create answers and what
// OpList enumerates.
func (sess *session) info() sessionInfo {
	sess.mu.Lock()
	defer sess.mu.Unlock()
	return sess.infoLocked()
}

func (sess *session) infoLocked() sessionInfo {
	in := sessionInfo{
		ID:           sess.id,
		Governor:     sess.govName,
		Platform:     sess.platName,
		Workload:     sess.workload,
		PeriodS:      sess.periodS,
		Seed:         sess.seed,
		ThermalCapMW: sess.capMW,
		WarmManifest: sess.warmFrom,
		Epochs:       sess.epochs,
		Explorations: -1,
		ConvergedAt:  -1,
	}
	if ls, ok := sess.learner.(governor.LearningStats); ok {
		in.Explorations = ls.Explorations()
		in.ConvergedAt = ls.ConvergedAtEpoch()
	}
	return in
}

// detail is the session's full document (OpInfo and the top-K list).
func (sess *session) detail() sessionDetail {
	sess.mu.Lock()
	defer sess.mu.Unlock()
	d := sessionDetail{sessionInfo: sess.infoLocked()}
	if es, ok := sess.learner.(governor.ExplorationStats); ok {
		eps, visits, frac := es.Epsilon(), es.VisitTotal(), es.ConvergedFraction()
		d.Epsilon, d.VisitTotal, d.ConvergedFraction = &eps, &visits, &frac
	}
	return d
}

// freezeSession captures the session's learnt state now and persists it
// to the checkpoint store when one is configured; OpCheckpoint runs it
// for both planes. The returned status is an HTTP code on failure.
func (s *Server) freezeSession(sess *session) ([]byte, int, error) {
	cp, ok := sess.learner.(governor.Checkpointer)
	if !ok {
		return nil, http.StatusBadRequest, errf("governor %s keeps no learnt state", sess.govName)
	}
	var buf bytes.Buffer
	sess.mu.Lock()
	if sess.dead {
		// Deleted while this request was in flight: its learning state is
		// released, so there is nothing left to freeze.
		sess.mu.Unlock()
		return nil, http.StatusNotFound, errUnknownSession(sess.id)
	}
	epochs := sess.epochs
	err := cp.SaveState(&buf)
	sess.mu.Unlock()
	if err != nil {
		return nil, http.StatusConflict, err
	}
	if s.ckpt != nil {
		if err := s.ckpt.Save(sess.id, buf.Bytes()); err != nil {
			return nil, http.StatusInternalServerError, err
		}
		s.ckptWrites.Add(1)
		// An explicit checkpoint marks the session clean the same way the
		// periodic sweep does, so the next sweep does not re-write it.
		sess.mu.Lock()
		if epochs > sess.ckptEpochs {
			sess.ckptEpochs = epochs
		}
		sess.mu.Unlock()
		s.undoSaveIfDeleted(sess)
	}
	return buf.Bytes(), http.StatusOK, nil
}

// checkpointResponse is the body of a successful checkpoint: the frozen
// state inline, so a caller (the router's hand-off, a backup job) can
// carry it without touching the checkpoint store.
type checkpointResponse struct {
	Session string          `json:"session"`
	State   json.RawMessage `json:"state"`
}

// parallelDecideThreshold is the batch size past which fanning entries
// out across workers beats a serial loop (a single decision is a few
// microseconds of governor work).
const parallelDecideThreshold = 32

// ownerScratch holds one batch's worker assignment; pooled so the decide
// path's steady state allocates nothing for it.
var ownerScratch = sync.Pool{New: func() any { return new([]int) }}

// fanOut runs f on every request of the batch, in parallel across
// min(GOMAXPROCS, n) workers when the batch is big enough to amortise
// the goroutine hand-off. The batch is partitioned by session, not by
// index: each entry's session hashes to one worker, and every worker
// walks the batch in index order taking only the entries it owns. A
// session's decides within one batch therefore run in arrival order on
// one worker, while different sessions, which lock independently, run
// concurrently.
func fanOut(batch []*observeReq, f func(r *observeReq)) {
	n := len(batch)
	workers := runtime.GOMAXPROCS(0)
	if workers > n {
		workers = n
	}
	if n < parallelDecideThreshold || workers < 2 {
		for _, r := range batch {
			f(r)
		}
		return
	}
	scratch := ownerScratch.Get().(*[]int)
	owner := (*scratch)[:0]
	for _, r := range batch {
		owner = append(owner, int(strhash.Bytes(r.m.Session)%uint64(workers)))
	}
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			for i, o := range owner {
				if o == w {
					f(batch[i])
				}
			}
		}(w)
	}
	wg.Wait()
	*scratch = owner
	ownerScratch.Put(scratch)
}

// latencyJSON is one latency histogram: bins over [lo_us, hi_us] with
// out-of-range samples in underflow/overflow, so every decision is
// accounted for exactly once. Fixed-width bins carry bin_width_us;
// log-width bins (scale "log", what serve's decide histograms use) carry
// the per-bin upper edges instead. p99/p999 are estimated from the bins
// and omitted when the rank falls in the overflow bucket — a saturated
// tail must read as "unknown, beyond hi_us", never as a number.
type latencyJSON struct {
	Count      int       `json:"count"`
	SumUS      float64   `json:"sum_us"`
	LoUS       float64   `json:"lo_us"`
	HiUS       float64   `json:"hi_us"`
	BinWidthUS float64   `json:"bin_width_us,omitempty"`
	Scale      string    `json:"scale,omitempty"`
	EdgesUS    []float64 `json:"edges_us,omitempty"`
	Bins       []int     `json:"bins"`
	Underflow  int       `json:"underflow"`
	Overflow   int       `json:"overflow"`
	P99US      *float64  `json:"p99_us,omitempty"`
	P999US     *float64  `json:"p999_us,omitempty"`
}

// latencyFromHistogram renders one histogram in the latencyJSON shape.
func latencyFromHistogram(h *stats.Histogram) latencyJSON {
	lj := latencyJSON{
		Count:      h.Count(),
		SumUS:      h.Sum(),
		LoUS:       h.Lo(),
		HiUS:       h.Hi(),
		BinWidthUS: h.BinWidth(),
		Bins:       h.Bins(),
		Underflow:  h.Underflow(),
		Overflow:   h.Overflow(),
	}
	if h.LogScale() {
		lj.Scale = "log"
		lj.EdgesUS = h.Edges()
	}
	// json.Marshal rejects NaN/Inf, so the quantiles are pointers set
	// only when the estimate is a real number.
	if q := h.Quantile(0.99); !math.IsNaN(q) && !math.IsInf(q, 0) {
		lj.P99US = &q
	}
	if q := h.Quantile(0.999); !math.IsNaN(q) && !math.IsInf(q, 0) {
		lj.P999US = &q
	}
	return lj
}

type metricsJSON struct {
	Decisions int64 `json:"decisions"`
	// Sessions is the live session count; a router reports the fleet sum.
	Sessions int `json:"sessions"`
	// Top lists the documents of the K busiest sessions (most epochs
	// first, ties by id ascending) when the request asked for top=K. A
	// router's list is the top K of its replicas' top-K lists, which is
	// exactly the fleet-wide top K.
	Top []sessionDetail `json:"top,omitempty"`
	// DecideLatency is the server-wide decision latency histogram — the
	// striped aggregate every session's decides land in, O(1) in
	// session count. A router reports the fleet-wide bin-sum. Absent
	// until the first decision.
	DecideLatency *latencyJSON `json:"decide_latency,omitempty"`
	// Runtime is this process's Go runtime health snapshot (goroutines,
	// GC pause p99, live heap, scheduler latency p99). Per-process even
	// on a router: the fleet's replicas each report their own.
	Runtime *stats.RuntimeStats `json:"runtime,omitempty"`
	// DegradedReplicas, set only on a router's fleet aggregate, names the
	// members whose metrics could not be collected — the body then covers
	// the reachable majority rather than failing wholesale.
	DegradedReplicas []string `json:"degraded_replicas,omitempty"`
	// RouteHops, set only on a router, is the per-replica routed decide
	// round-trip latency (router→replica→router, microseconds).
	RouteHops map[string]latencyJSON `json:"route_hops,omitempty"`
	// RouteInflight, set only on a router, is the number of relayed
	// decide requests currently awaiting replica replies.
	RouteInflight *int64 `json:"route_inflight,omitempty"`
	// CheckpointWrites / CheckpointSkipped count the periodic sweep's
	// session-state writes and the writes it skipped because nothing had
	// decided since the last one (the dirty-flag fix for checkpoint write
	// amplification). A router reports the fleet-wide sums.
	CheckpointWrites  int64 `json:"checkpoint_writes"`
	CheckpointSkipped int64 `json:"checkpoint_skipped"`
	// The Q-table page pool's memory-floor gauges: distinct shared pages
	// and the bytes they hold right now, plus the cumulative count of
	// copy-on-write faults (first writes that privatised a shared page).
	// A router reports the fleet-wide sums.
	QTablePoolPages       int64 `json:"qtable_pool_pages"`
	QTablePoolSharedBytes int64 `json:"qtable_pool_shared_bytes"`
	QTableCowFaults       int64 `json:"qtable_cow_faults"`
}

// buildMetrics is the OpMetrics document: fixed-size counters, the
// aggregate latency histogram and runtime gauges, plus the top-K list
// when k > 0. Only that list visits sessions.
func (s *Server) buildMetrics(k int) metricsJSON {
	out := metricsJSON{
		Decisions:         s.decisions.Load(),
		Sessions:          s.sessions.Len(),
		CheckpointWrites:  s.ckptWrites.Load(),
		CheckpointSkipped: s.ckptSkipped.Load(),
	}
	out.QTablePoolPages, out.QTablePoolSharedBytes, out.QTableCowFaults = s.qpool.Stats()
	if agg := s.DecideLatency(); agg != nil {
		lj := latencyFromHistogram(agg)
		out.DecideLatency = &lj
	}
	rs := stats.ReadRuntime()
	out.Runtime = &rs
	if k > 0 {
		out.Top = s.busiest(k)
	}
	return out
}

// busiest returns the documents of the k sessions with the most epochs.
// Ranking runs over a snapshot, outside the store's shard locks, and
// keeps at most k candidates; only those k documents are built.
func (s *Server) busiest(k int) []sessionDetail {
	type cand struct {
		sess   *session
		epochs int64
	}
	top := make([]cand, 0, k)
	for _, sess := range s.snapshotSessions() {
		sess.mu.Lock()
		epochs, dead := sess.epochs, sess.dead
		sess.mu.Unlock()
		if !dead {
			top = insertRanked(top, cand{sess, epochs}, k, func(a, b cand) bool {
				return ranksBefore(a.epochs, a.sess.id, b.epochs, b.sess.id)
			})
		}
	}
	// Decides may have landed since the ranking pass: order by the epochs
	// the documents report.
	out := make([]sessionDetail, 0, len(top))
	for _, c := range top {
		out = insertRanked(out, c.sess.detail(), k, detailBefore)
	}
	return out
}

// ranksBefore is the top-K order: more epochs first, ties by id
// ascending. Replicas and the router rank alike, so the router's top K
// of the replicas' top Ks is the fleet-wide top K.
func ranksBefore(epochsA int64, idA string, epochsB int64, idB string) bool {
	if epochsA != epochsB {
		return epochsA > epochsB
	}
	return idA < idB
}

func detailBefore(a, b sessionDetail) bool { return ranksBefore(a.Epochs, a.ID, b.Epochs, b.ID) }

// insertRanked inserts x into top, which is sorted by before and holds at
// most k entries; x is dropped when all k rank before it.
func insertRanked[T any](top []T, x T, k int, before func(a, b T) bool) []T {
	i := sort.Search(len(top), func(i int) bool { return before(x, top[i]) })
	if i >= k {
		return top
	}
	if len(top) < k {
		top = append(top, x)
	}
	copy(top[i+1:], top[i:len(top)-1])
	top[i] = x
	return top
}

// maxTopSessions bounds top=K: per-session documents are opt-in detail,
// and even opted in, the metrics body must stay bounded whatever K the
// request carries.
const maxTopSessions = 64

// metricsQueryFromRequest reads /v1/metrics's ?top=K into an OpMetrics
// body, {"top":K}. A missing, malformed or non-positive K asks for no
// sessions (an empty body), which keeps the document O(1) in session
// count.
func metricsQueryFromRequest(r *http.Request) []byte {
	k, err := strconv.Atoi(r.URL.Query().Get("top"))
	if err != nil || k <= 0 {
		return nil
	}
	return fmt.Appendf(nil, `{"top":%d}`, k)
}

// parseMetricsQuery reads an OpMetrics body into K, clamped to
// maxTopSessions.
func parseMetricsQuery(body []byte) (int, error) {
	var q struct {
		Top int `json:"top"`
	}
	if len(body) > 0 {
		if err := json.Unmarshal(body, &q); err != nil {
			return 0, err
		}
	}
	return max(0, min(q.Top, maxTopSessions)), nil
}

// mergeLatencyJSON folds one rendered latency histogram into an
// accumulator (bin-wise sums; geometry is trusted equal because every
// server in a fleet runs the same build). The quantile estimates are
// recomputed from the merged bins — quantiles do not sum.
func mergeLatencyJSON(dst, src *latencyJSON) *latencyJSON {
	if src == nil {
		return dst
	}
	if dst == nil {
		cp := *src
		cp.Bins = append([]int(nil), src.Bins...)
		dst = &cp
	} else {
		if len(dst.Bins) != len(src.Bins) {
			return dst // geometry drift: keep what we have rather than corrupt it
		}
		dst.Count += src.Count
		dst.SumUS += src.SumUS
		dst.Underflow += src.Underflow
		dst.Overflow += src.Overflow
		for i, c := range src.Bins {
			dst.Bins[i] += c
		}
	}
	dst.P99US = latencyJSONQuantile(dst, 0.99)
	dst.P999US = latencyJSONQuantile(dst, 0.999)
	return dst
}

// latencyJSONQuantile estimates quantile q from rendered bins, reporting
// the upper edge of the bucket the rank lands in (pessimistic by up to
// one bucket). Nil when the histogram is empty or the rank falls in the
// overflow bucket — a saturated tail reads as "beyond hi_us", never a
// number.
func latencyJSONQuantile(lj *latencyJSON, q float64) *float64 {
	if lj.Count == 0 {
		return nil
	}
	rank := int(math.Ceil(q * float64(lj.Count)))
	if rank < 1 {
		rank = 1
	}
	cum := lj.Underflow
	if cum >= rank {
		v := lj.LoUS
		return &v
	}
	for i, c := range lj.Bins {
		cum += c
		if cum >= rank {
			var hi float64
			if len(lj.EdgesUS) == len(lj.Bins) {
				hi = lj.EdgesUS[i]
			} else {
				hi = lj.LoUS + float64(i+1)*lj.BinWidthUS
			}
			return &hi
		}
	}
	return nil
}

// listInfos snapshots every session's info, sorted by id — the body of
// the binary OpList (what a router enumerates when draining a replica).
func (s *Server) listInfos() []sessionInfo {
	all := s.snapshotSessions()
	infos := make([]sessionInfo, 0, len(all))
	for _, sess := range all {
		infos = append(infos, sess.info())
	}
	sort.Slice(infos, func(i, j int) bool { return infos[i].ID < infos[j].ID })
	return infos
}

// healthJSON is the /healthz body on both control planes: liveness plus
// O(1) counters. MemberEpoch is the replica's installed membership epoch
// — the router's prober compares it against the fleet epoch and
// re-pushes the table to a replica that restarted (and so came back with
// epoch 0).
type healthJSON struct {
	Status      string `json:"status"`
	Sessions    int    `json:"sessions"`
	Decisions   int64  `json:"decisions"`
	MemberEpoch uint32 `json:"member_epoch,omitempty"`
	Forwarded   int64  `json:"forwarded_decisions,omitempty"`
}

func (s *Server) health() healthJSON {
	return healthJSON{
		Status:      "ok",
		Sessions:    s.sessions.Len(),
		Decisions:   s.decisions.Load(),
		MemberEpoch: s.fleetEpoch.Load(),
		Forwarded:   s.forwarded.Load(),
	}
}

func errf(format string, args ...any) error { return fmt.Errorf(format, args...) }

func errUnknownSession(id string) error { return errf("unknown session %q", id) }
