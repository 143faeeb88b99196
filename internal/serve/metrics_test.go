package serve_test

import (
	"encoding/json"
	"net/http"
	"reflect"
	"strings"
	"testing"

	"qgov/internal/serve"
)

// sessionDoc is a session's full document: GET /v1/sessions/{id} and
// each /v1/metrics?top=K entry.
type sessionDoc struct {
	ID                string   `json:"id"`
	Governor          string   `json:"governor"`
	Epochs            int64    `json:"epochs"`
	Explorations      int      `json:"explorations"`
	ConvergedAt       int      `json:"converged_at"`
	Epsilon           *float64 `json:"epsilon"`
	VisitTotal        *int     `json:"visit_total"`
	ConvergedFraction *float64 `json:"converged_fraction"`
}

type latencyMetrics struct {
	Count      int       `json:"count"`
	LoUS       float64   `json:"lo_us"`
	HiUS       float64   `json:"hi_us"`
	BinWidthUS float64   `json:"bin_width_us"`
	Scale      string    `json:"scale"`
	EdgesUS    []float64 `json:"edges_us"`
	Bins       []int     `json:"bins"`
	Underflow  int       `json:"underflow"`
	Overflow   int       `json:"overflow"`
	P99US      *float64  `json:"p99_us"`
	P999US     *float64  `json:"p999_us"`
}

type metricsResponse struct {
	Decisions     int64           `json:"decisions"`
	Sessions      int             `json:"sessions"`
	Top           []sessionDoc    `json:"top"`
	DecideLatency *latencyMetrics `json:"decide_latency"`
}

// After a known decision sequence, /v1/metrics must account for every
// decision exactly once in the server-wide latency histogram: the bin
// counts (plus overflow) sum to the number of decisions served, nothing
// lands below the range, and the histogram geometry is the advertised
// log-width grid over [0.1 µs, 1 s] with explicit bin edges. Each
// session's learning counters are in its own document.
func TestMetricsLatencyHistogram(t *testing.T) {
	const decisions = 37
	h := newTestServer(t, serve.Options{})
	if st := h.post("/v1/sessions", map[string]any{"id": "m0", "governor": "rtm", "seed": 3}, nil); st != http.StatusCreated {
		t.Fatalf("create returned %d", st)
	}
	// A second, never-decided session adds nothing to the histogram.
	if st := h.post("/v1/sessions", map[string]any{"id": "idle", "governor": "rtm"}, nil); st != http.StatusCreated {
		t.Fatalf("create returned %d", st)
	}

	obs := steadyObs()
	for i := 0; i < decisions; i++ {
		obs.Epoch = i
		var resp struct {
			Decisions []decision `json:"decisions"`
		}
		if st := h.post("/v1/decide", map[string]any{
			"requests": []decideItem{{Session: "m0", Obs: obsFromGov(obs)}},
		}, &resp); st != http.StatusOK {
			t.Fatalf("decide %d returned %d", i, st)
		}
		if resp.Decisions[0].Error != "" {
			t.Fatal(resp.Decisions[0].Error)
		}
	}

	var m metricsResponse
	if st := h.get("/v1/metrics", &m); st != http.StatusOK {
		t.Fatalf("metrics returned %d", st)
	}
	if m.Decisions != decisions {
		t.Errorf("server counted %d decisions, want %d", m.Decisions, decisions)
	}
	if m.Sessions != 2 {
		t.Errorf("metrics counts %d sessions, want 2", m.Sessions)
	}
	if m.Top != nil {
		t.Errorf("default metrics lists sessions: %+v", m.Top)
	}

	lat := m.DecideLatency
	if lat == nil {
		t.Fatal("metrics missing decide_latency after decisions")
	}
	if lat.LoUS != 0.1 || lat.HiUS != 1e6 || len(lat.Bins) != 70 {
		t.Errorf("histogram geometry %g..%g × %d bins, want 0.1..1e6 × 70",
			lat.LoUS, lat.HiUS, len(lat.Bins))
	}
	if lat.Scale != "log" {
		t.Errorf("histogram scale %q, want \"log\"", lat.Scale)
	}
	if lat.BinWidthUS != 0 {
		t.Errorf("log histogram advertises fixed bin width %g", lat.BinWidthUS)
	}
	if len(lat.EdgesUS) != len(lat.Bins) {
		t.Errorf("%d bin edges for %d bins", len(lat.EdgesUS), len(lat.Bins))
	} else {
		if got := lat.EdgesUS[len(lat.EdgesUS)-1]; got != lat.HiUS {
			t.Errorf("last edge %g, want hi_us %g", got, lat.HiUS)
		}
		for i := 1; i < len(lat.EdgesUS); i++ {
			if lat.EdgesUS[i] <= lat.EdgesUS[i-1] {
				t.Errorf("edges not increasing at %d: %g <= %g", i, lat.EdgesUS[i], lat.EdgesUS[i-1])
			}
		}
	}
	if lat.Count != decisions {
		t.Errorf("histogram holds %d samples, want %d", lat.Count, decisions)
	}
	// No real decision completes under 100 ns, and the p99 estimate must
	// be a real (finite, in-range) number unless the tail escaped.
	if lat.Underflow != 0 {
		t.Errorf("%d decisions below the 100 ns floor", lat.Underflow)
	}
	if lat.Overflow == 0 {
		if lat.P99US == nil || *lat.P99US <= 0 || *lat.P99US > lat.HiUS {
			t.Errorf("p99_us = %v, want finite within (0, hi]", lat.P99US)
		}
	}
	sum := lat.Underflow + lat.Overflow
	for _, c := range lat.Bins {
		sum += c
	}
	if sum != decisions {
		t.Errorf("bins account for %d decisions, want %d", sum, decisions)
	}

	// Exploration/convergence counters are in the session's document.
	// The RTM holds ε at ε₀ for its first 110 epochs, accumulates one
	// table visit per decision, and cannot have a converged policy 37
	// epochs in.
	var lrn sessionDoc
	if st := h.get("/v1/sessions/m0", &lrn); st != http.StatusOK {
		t.Fatalf("info returned %d", st)
	}
	if lrn.Epochs != decisions {
		t.Errorf("epochs = %d, want %d", lrn.Epochs, decisions)
	}
	if lrn.Epsilon == nil || *lrn.Epsilon <= 0 || *lrn.Epsilon > 1 {
		t.Errorf("epsilon = %v, want in (0, 1]", lrn.Epsilon)
	}
	if lrn.VisitTotal == nil || *lrn.VisitTotal != decisions {
		t.Errorf("visit_total = %v, want %d", lrn.VisitTotal, decisions)
	}
	if lrn.ConvergedFraction == nil || *lrn.ConvergedFraction < 0 || *lrn.ConvergedFraction > 1 {
		t.Errorf("converged_fraction = %v, want in [0, 1]", lrn.ConvergedFraction)
	}
	if lrn.ConvergedAt < -1 || lrn.ConvergedAt >= decisions {
		t.Errorf("converged_at = %d after %d epochs", lrn.ConvergedAt, decisions)
	}
	if lrn.Explorations < 0 {
		t.Errorf("explorations = %d", lrn.Explorations)
	}
	var idle sessionDoc
	if st := h.get("/v1/sessions/idle", &idle); st != http.StatusOK {
		t.Fatalf("info returned %d", st)
	}
	if idle.Epochs != 0 || idle.Epsilon == nil || idle.VisitTotal == nil || *idle.VisitTotal != 0 {
		t.Errorf("idle session document: %+v", idle)
	}

	// ?top=K lists the same documents, busiest first.
	if st := h.get("/v1/metrics?top=2", &m); st != http.StatusOK {
		t.Fatalf("metrics returned %d", st)
	}
	if want := []sessionDoc{lrn, idle}; !reflect.DeepEqual(m.Top, want) {
		t.Errorf("top=2 lists %+v, want %+v", m.Top, want)
	}
}

// A non-learning governor's document carries no learning fields, and
// the top-K exposition renders no learning gauges for it.
func TestMetricsOmitsLearningForNonLearners(t *testing.T) {
	h := newTestServer(t, serve.Options{})
	if st := h.post("/v1/sessions", map[string]any{"id": "od", "governor": "ondemand"}, nil); st != http.StatusCreated {
		t.Fatalf("create returned %d", st)
	}
	var doc map[string]json.RawMessage
	if st := h.get("/v1/sessions/od", &doc); st != http.StatusOK {
		t.Fatalf("info returned %d", st)
	}
	for _, key := range []string{"epsilon", "visit_total", "converged_fraction"} {
		if _, ok := doc[key]; ok {
			t.Errorf("ondemand session document carries %q: %v", key, doc)
		}
	}
	if string(doc["explorations"]) != "-1" {
		t.Errorf("ondemand explorations = %s, want -1", doc["explorations"])
	}
	var m struct {
		Top []map[string]json.RawMessage `json:"top"`
	}
	if st := h.get("/v1/metrics?top=1", &m); st != http.StatusOK {
		t.Fatalf("metrics returned %d", st)
	}
	if len(m.Top) != 1 || !reflect.DeepEqual(m.Top[0], doc) {
		t.Errorf("top=1 lists %v, want [%v]", m.Top, doc)
	}
	if body := promBody(t, h.ts.Client(), h.ts.URL, false, "top=1"); strings.Contains(body, `session="`) {
		t.Errorf("ondemand session renders learning gauges:\n%s", body)
	}
}
