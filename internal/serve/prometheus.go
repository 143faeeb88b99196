package serve

import (
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"

	"qgov/internal/stats"
)

// Prometheus text exposition of /v1/metrics. The JSON document is the
// canonical body (it is what the binary control plane and the router's
// fleet merge exchange); this renderer projects that same document into
// the text format a Prometheus scraper ingests, so the replica and the
// router expose it by re-rendering the OpMetrics body they would have
// served as JSON — one source of truth, two encodings.
//
// The exposition is O(1) in session count: the decision-latency histogram
// is the server-wide striped aggregate, one 70-bucket family however many
// sessions exist. Per-session learning gauges are opt-in via ?top=K,
// which lists the K busiest sessions in the document and renders them
// under the separate rtmd_session_* families — a 10k-session fleet at
// the default scrape renders the same byte count as an idle one, and an
// operator debugging a hot session turns the detail on per request
// without changing server state.

// wantsPrometheus reports whether a metrics request asked for the text
// exposition format: ?format=prometheus, or an Accept header preferring
// text/plain (what a Prometheus scrape sends) over JSON.
func wantsPrometheus(r *http.Request) bool {
	if r.URL.Query().Get("format") == "prometheus" {
		return true
	}
	accept := r.Header.Get("Accept")
	return strings.Contains(accept, "text/plain") && !strings.Contains(accept, "application/json")
}

// prometheusContentType is the text exposition format version scrapers
// expect.
const prometheusContentType = "text/plain; version=0.0.4; charset=utf-8"

// promFloat renders a float the exposition format accepts (Go's 'g'
// shortest form is valid Prometheus syntax, including +Inf/NaN spellings
// which never occur here).
func promFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// Label values render through %q, whose escaping (backslash, quote,
// newline) is exactly what the exposition format requires.

// writePrometheus renders the metrics document in text exposition
// format. The document's top-K list, when the request asked for one,
// adds per-session learning gauges; without it the scrape carries no
// per-session cardinality at all.
func writePrometheus(w io.Writer, m metricsJSON) {
	fmt.Fprintf(w, "# HELP rtmd_decisions_total Operating-point decisions served.\n")
	fmt.Fprintf(w, "# TYPE rtmd_decisions_total counter\n")
	fmt.Fprintf(w, "rtmd_decisions_total %d\n", m.Decisions)
	fmt.Fprintf(w, "# HELP rtmd_sessions Live sessions.\n")
	fmt.Fprintf(w, "# TYPE rtmd_sessions gauge\n")
	fmt.Fprintf(w, "rtmd_sessions %d\n", m.Sessions)
	fmt.Fprintf(w, "# HELP rtmd_replicas_degraded Fleet members the last aggregation could not reach (always 0 on a flat server).\n")
	fmt.Fprintf(w, "# TYPE rtmd_replicas_degraded gauge\n")
	fmt.Fprintf(w, "rtmd_replicas_degraded %d\n", len(m.DegradedReplicas))
	if len(m.DegradedReplicas) > 0 {
		fmt.Fprintf(w, "# HELP rtmd_replica_degraded Set to 1 for each member missing from the fleet aggregate.\n")
		fmt.Fprintf(w, "# TYPE rtmd_replica_degraded gauge\n")
		for _, r := range m.DegradedReplicas {
			fmt.Fprintf(w, "rtmd_replica_degraded{replica=%q} 1\n", r)
		}
	}

	if m.RouteInflight != nil {
		fmt.Fprintf(w, "# HELP rtmd_route_inflight_requests Relayed decide requests awaiting replica replies.\n")
		fmt.Fprintf(w, "# TYPE rtmd_route_inflight_requests gauge\n")
		fmt.Fprintf(w, "rtmd_route_inflight_requests %d\n", *m.RouteInflight)
	}
	if len(m.RouteHops) > 0 {
		replicas := make([]string, 0, len(m.RouteHops))
		for r := range m.RouteHops {
			replicas = append(replicas, r)
		}
		sort.Strings(replicas)
		fmt.Fprintf(w, "# HELP rtmd_route_hop_seconds Routed decide round-trip per replica (router to replica and back).\n")
		fmt.Fprintf(w, "# TYPE rtmd_route_hop_seconds histogram\n")
		for _, r := range replicas {
			writeLatencyHistogram(w, "rtmd_route_hop_seconds", "replica", r, m.RouteHops[r])
		}
	}

	// The server-wide aggregate: one histogram whatever the session count.
	var agg latencyJSON
	if m.DecideLatency != nil {
		agg = *m.DecideLatency
	} else { // the zero shape: no decisions yet
		agg = latencyFromHistogram(stats.NewLogHistogram(latHistLoUS, latHistHiUS, latHistBins))
	}
	fmt.Fprintf(w, "# HELP rtmd_decision_latency_seconds Decision latency under the session lock, aggregated server-wide.\n")
	fmt.Fprintf(w, "# TYPE rtmd_decision_latency_seconds histogram\n")
	writeLatencyHistogram(w, "rtmd_decision_latency_seconds", "", "", agg)
	// The +Inf-adjacent saturation signal: histogram_quantile() over the
	// le buckets silently clamps to the top edge when the tail escaped the
	// range, so the overflow count is exported explicitly — a non-zero
	// value here means the le-derived quantiles under-read.
	fmt.Fprintf(w, "# HELP rtmd_decision_latency_overflow_total Decisions beyond the histogram range; non-zero means le-bucket quantiles are saturated.\n")
	fmt.Fprintf(w, "# TYPE rtmd_decision_latency_overflow_total counter\n")
	fmt.Fprintf(w, "rtmd_decision_latency_overflow_total %d\n", agg.Overflow)

	fmt.Fprintf(w, "# HELP rtmd_qtable_pool_pages Distinct shared Q-table pages interned in the copy-on-write pool.\n")
	fmt.Fprintf(w, "# TYPE rtmd_qtable_pool_pages gauge\n")
	fmt.Fprintf(w, "rtmd_qtable_pool_pages %d\n", m.QTablePoolPages)
	fmt.Fprintf(w, "# HELP rtmd_qtable_pool_shared_bytes Bytes held by the shared Q-table pages (paid once, however many sessions reference them).\n")
	fmt.Fprintf(w, "# TYPE rtmd_qtable_pool_shared_bytes gauge\n")
	fmt.Fprintf(w, "rtmd_qtable_pool_shared_bytes %d\n", m.QTablePoolSharedBytes)
	fmt.Fprintf(w, "# HELP rtmd_qtable_cow_faults_total Copy-on-write faults: first writes that privatised a shared Q-table page.\n")
	fmt.Fprintf(w, "# TYPE rtmd_qtable_cow_faults_total counter\n")
	fmt.Fprintf(w, "rtmd_qtable_cow_faults_total %d\n", m.QTableCowFaults)

	fmt.Fprintf(w, "# HELP rtmd_checkpoint_writes_total Session states written by checkpoint sweeps and explicit checkpoints.\n")
	fmt.Fprintf(w, "# TYPE rtmd_checkpoint_writes_total counter\n")
	fmt.Fprintf(w, "rtmd_checkpoint_writes_total %d\n", m.CheckpointWrites)
	fmt.Fprintf(w, "# HELP rtmd_checkpoint_skipped_total Sweep writes skipped because the session was clean since its last checkpoint.\n")
	fmt.Fprintf(w, "# TYPE rtmd_checkpoint_skipped_total counter\n")
	fmt.Fprintf(w, "rtmd_checkpoint_skipped_total %d\n", m.CheckpointSkipped)

	if m.Runtime != nil {
		rs := m.Runtime
		fmt.Fprintf(w, "# HELP rtmd_go_goroutines Live goroutines in this process.\n")
		fmt.Fprintf(w, "# TYPE rtmd_go_goroutines gauge\n")
		fmt.Fprintf(w, "rtmd_go_goroutines %d\n", rs.Goroutines)
		fmt.Fprintf(w, "# HELP rtmd_go_gc_pause_p99_seconds 99th-percentile stop-the-world GC pause over the process lifetime.\n")
		fmt.Fprintf(w, "# TYPE rtmd_go_gc_pause_p99_seconds gauge\n")
		fmt.Fprintf(w, "rtmd_go_gc_pause_p99_seconds %s\n", promFloat(rs.GCPauseP99S))
		fmt.Fprintf(w, "# HELP rtmd_go_gc_cycles_total Completed GC cycles.\n")
		fmt.Fprintf(w, "# TYPE rtmd_go_gc_cycles_total counter\n")
		fmt.Fprintf(w, "rtmd_go_gc_cycles_total %d\n", rs.GCCycles)
		fmt.Fprintf(w, "# HELP rtmd_go_heap_live_bytes Heap bytes occupied by live objects plus unswept spans.\n")
		fmt.Fprintf(w, "# TYPE rtmd_go_heap_live_bytes gauge\n")
		fmt.Fprintf(w, "rtmd_go_heap_live_bytes %d\n", rs.HeapLiveBytes)
		fmt.Fprintf(w, "# HELP rtmd_go_sched_latency_p99_seconds 99th-percentile time goroutines spent runnable before running.\n")
		fmt.Fprintf(w, "# TYPE rtmd_go_sched_latency_p99_seconds gauge\n")
		fmt.Fprintf(w, "rtmd_go_sched_latency_p99_seconds %s\n", promFloat(rs.SchedLatencyP99S))
	}

	// Learning gauges render for learners only (explorations is -1 for
	// the rest); the ExplorationStats trio only where the learner has it.
	writeLearningGauge(w, m.Top, false, "rtmd_session_epochs", "Decision epochs the session has served.",
		func(d *sessionDetail) string { return strconv.FormatInt(d.Epochs, 10) })
	// Gauge, not counter: the count resets when a session is re-created
	// under its id, which a counter contract would forbid.
	writeLearningGauge(w, m.Top, false, "rtmd_session_explorations", "Exploratory (non-greedy) decisions taken.",
		func(d *sessionDetail) string { return strconv.Itoa(d.Explorations) })
	writeLearningGauge(w, m.Top, false, "rtmd_session_converged_at_epoch", "Epoch initial learning completed; -1 while learning.",
		func(d *sessionDetail) string { return strconv.Itoa(d.ConvergedAt) })
	writeLearningGauge(w, m.Top, true, "rtmd_session_epsilon", "Exploration probability (the ε schedule's position).",
		func(d *sessionDetail) string { return promFloat(*d.Epsilon) })
	// "visits", not "visit_total": like the explorations gauge above, the
	// value resets on session re-creation, so a counter-implying _total
	// suffix would mislead rate()-style queries.
	writeLearningGauge(w, m.Top, true, "rtmd_session_visits", "State-action visits across the learner's value tables.",
		func(d *sessionDetail) string { return strconv.Itoa(*d.VisitTotal) })
	writeLearningGauge(w, m.Top, true, "rtmd_session_converged_fraction", "Fraction of states whose greedy action has settled.",
		func(d *sessionDetail) string { return promFloat(*d.ConvergedFraction) })
}

// writeLatencyHistogram renders one latencyJSON as a Prometheus
// histogram series, with a single label (the replica) or — when
// label is empty — unlabeled. The microsecond bins convert to seconds;
// bucket edges come from the explicit edge list when the histogram is
// log-width and from the fixed bin width otherwise. Underflow folds into
// the first bucket (a sample below lo is certainly <= the first edge) so
// the buckets always sum to the count.
func writeLatencyHistogram(w io.Writer, name, label, value string, lj latencyJSON) {
	series := func(suffix, le string) string {
		switch {
		case label == "" && le == "":
			return name + suffix
		case label == "":
			return fmt.Sprintf("%s%s{le=%q}", name, suffix, le)
		case le == "":
			return fmt.Sprintf("%s%s{%s=%q}", name, suffix, label, value)
		default:
			return fmt.Sprintf("%s%s{%s=%q,le=%q}", name, suffix, label, value, le)
		}
	}
	cum := lj.Underflow
	for i, c := range lj.Bins {
		cum += c
		var le float64
		if len(lj.EdgesUS) == len(lj.Bins) {
			le = lj.EdgesUS[i] * 1e-6
		} else {
			le = (lj.LoUS + float64(i+1)*lj.BinWidthUS) * 1e-6
		}
		fmt.Fprintf(w, "%s %d\n", series("_bucket", promFloat(le)), cum)
	}
	fmt.Fprintf(w, "%s %d\n", series("_bucket", "+Inf"), lj.Count)
	fmt.Fprintf(w, "%s %s\n", series("_sum", ""), promFloat(lj.SumUS*1e-6))
	fmt.Fprintf(w, "%s %d\n", series("_count", ""), lj.Count)
}

// writeLearningGauge renders one per-session learning gauge family over
// the top-K documents, in their rank order, covering only learners —
// and, for a gauge from the ExplorationStats trio, only learners that
// expose the trio (detail sets all three or none).
func writeLearningGauge(w io.Writer, top []sessionDetail, trio bool, name, help string,
	value func(*sessionDetail) string) {
	wrote := false
	for i := range top {
		d := &top[i]
		if d.Explorations < 0 || (trio && d.Epsilon == nil) {
			continue
		}
		if !wrote {
			fmt.Fprintf(w, "# HELP %s %s\n", name, help)
			fmt.Fprintf(w, "# TYPE %s gauge\n", name)
			wrote = true
		}
		fmt.Fprintf(w, "%s{session=%q} %s\n", name, d.ID, value(d))
	}
}
