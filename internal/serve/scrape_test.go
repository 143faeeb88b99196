package serve_test

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"qgov/internal/promlint"
	"qgov/internal/serve"
	"qgov/internal/serve/client"
)

// lintExposition runs the repo's own Prometheus linter over a live
// scrape and fails on any format violation.
func lintExposition(t *testing.T, body string) *promlint.Report {
	t.Helper()
	rep, err := promlint.Lint(strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range rep.Problems {
		t.Errorf("promlint: %s", p)
	}
	return rep
}

// The scale guarantee behind the cardinality fix: a default scrape of a
// server holding 10k sessions must stay within a fixed byte and series
// budget — the same O(1) exposition an idle server produces — because
// per-session series only exist behind ?top=K. The budgets have head
// room over the current exposition (~6 KB, ~100 series) but are far
// below what even 100 per-session histograms would cost, so a
// regression that reintroduces unbounded series trips this long before
// it troubles a real scraper.
func TestScrapeByteBudget10kSessions(t *testing.T) {
	const (
		sessions     = 10_000
		byteBudget   = 32 * 1024
		seriesBudget = 300
	)
	h := newTestServer(t, serve.Options{})
	ts := newTCPServer(t, h)
	cl, err := client.Dial(ts.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	// The 64 sessions that decide below learn, so ?top=K has learning
	// gauges to render for them; the bulk is ondemand.
	for i := 0; i < sessions; i++ {
		gov := "ondemand"
		if i < 64 {
			gov = "rtm"
		}
		body := fmt.Sprintf(`{"id":"scale-%d","governor":%q}`, i, gov)
		if st, resp, err := cl.CreateSession([]byte(body)); err != nil || st != http.StatusCreated {
			t.Fatalf("create %d: status %d err %v (%s)", i, st, err, resp)
		}
	}
	// A little traffic so the aggregate histogram is populated.
	for i := 0; i < 64; i++ {
		if d, err := cl.Decide(fmt.Sprintf("scale-%d", i), steadyObs()); err != nil || d.Err != "" {
			t.Fatalf("decide %d: %v / %q", i, err, d.Err)
		}
	}

	body := promBody(t, h.ts.Client(), h.ts.URL, false)
	rep := lintExposition(t, body)
	if len(body) > byteBudget {
		t.Errorf("default scrape of %d sessions is %d bytes, budget %d", sessions, len(body), byteBudget)
	}
	if rep.Series > seriesBudget {
		t.Errorf("default scrape of %d sessions has %d series, budget %d", sessions, rep.Series, seriesBudget)
	}
	mustContain(t, body,
		fmt.Sprintf("rtmd_sessions %d", sessions),
		"rtmd_decision_latency_seconds_count 64",
	)

	// ?top=K bounds the opt-in slice too: asking for 5 renders exactly 5
	// sessions' series, and the clamp keeps even top=10000 bounded.
	top5 := promBody(t, h.ts.Client(), h.ts.URL, false, "top=5")
	if n := strings.Count(top5, "rtmd_session_epochs{"); n != 5 {
		t.Errorf("top=5 rendered %d sessions, want 5", n)
	}
	lintExposition(t, top5)
	clamped := promBody(t, h.ts.Client(), h.ts.URL, false, fmt.Sprintf("top=%d", sessions))
	if n := strings.Count(clamped, "rtmd_session_epochs{"); n != 64 {
		t.Errorf("top=%d rendered %d sessions, clamp is 64", sessions, n)
	}
	lintExposition(t, clamped)

	// The top-K selection is by decision count: the busiest session must
	// be in the top slice.
	for i := 0; i < 8; i++ {
		if d, err := cl.Decide("scale-3", steadyObs()); err != nil || d.Err != "" {
			t.Fatalf("decide: %v / %q", err, d.Err)
		}
	}
	top1 := promBody(t, h.ts.Client(), h.ts.URL, false, "top=1")
	mustContain(t, top1, `rtmd_session_epochs{session="scale-3"} 9`)
}

// Both tiers' expositions must satisfy the linter in their default and
// opt-in forms — the in-process version of the CI scrape-and-lint gate.
func TestExpositionHygieneBothTiers(t *testing.T) {
	h := newTestServer(t, serve.Options{})
	for i := 0; i < 3; i++ {
		if st := h.post("/v1/sessions", map[string]any{"id": fmt.Sprintf("lint-%d", i), "governor": "rtm", "seed": i + 1}, nil); st != http.StatusCreated {
			t.Fatalf("create returned %d", st)
		}
	}
	var resp struct {
		Decisions []decision `json:"decisions"`
	}
	if st := h.post("/v1/decide", map[string]any{
		"requests": []decideItem{{Session: "lint-0", Obs: obsFromGov(steadyObs())}},
	}, &resp); st != http.StatusOK {
		t.Fatalf("decide returned %d", st)
	}
	lintExposition(t, promBody(t, h.ts.Client(), h.ts.URL, false))
	lintExposition(t, promBody(t, h.ts.Client(), h.ts.URL, false, "top=64"))

	_, addrs := newFleet(t, 2, serve.Options{})
	rt, err := serve.NewRouter(addrs, serve.RouterOptions{ProbeEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	rtHTTP := httptest.NewServer(rt.Handler())
	defer rtHTTP.Close()
	rcl, err := client.Dial(startRouterTCP(t, rt))
	if err != nil {
		t.Fatal(err)
	}
	defer rcl.Close()
	for i := 0; i < 3; i++ {
		id := fmt.Sprintf("rlint-%d", i)
		body := fmt.Sprintf(`{"id":%q,"governor":"rtm","seed":%d}`, id, i+1)
		if st, r, err := rcl.CreateSession([]byte(body)); err != nil || st != http.StatusCreated {
			t.Fatalf("create %s: status %d err %v (%s)", id, st, err, r)
		}
		if d, err := rcl.Decide(id, steadyObs()); err != nil || d.Err != "" {
			t.Fatalf("decide %s: %v / %q", id, err, d.Err)
		}
	}
	lintExposition(t, promBody(t, rtHTTP.Client(), rtHTTP.URL, false))
	lintExposition(t, promBody(t, rtHTTP.Client(), rtHTTP.URL, false, "top=64"))
}
