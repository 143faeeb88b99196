package serve_test

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"strings"
	"testing"

	"qgov/internal/promlint"
	"qgov/internal/serve"
	"qgov/internal/serve/client"
	"qgov/internal/wire"
)

// createSessions creates sessions prefix-from … prefix-(to-1) on one
// governor over a binary connection.
func createSessions(t *testing.T, cl *client.Client, prefix string, from, to int, gov string) {
	t.Helper()
	for i := from; i < to; i++ {
		body := fmt.Sprintf(`{"id":"%s-%d","governor":%q,"seed":%d}`, prefix, i, gov, i)
		if st, resp, err := cl.CreateSession([]byte(body)); err != nil || st != http.StatusCreated {
			t.Fatalf("create %s-%d: status %d err %v (%s)", prefix, i, st, err, resp)
		}
	}
}

// decideTimes serves n steady observations to one session.
func decideTimes(t *testing.T, cl *client.Client, id string, n int) {
	t.Helper()
	obs := steadyObs()
	for e := 0; e < n; e++ {
		obs.Epoch = e
		if d, err := cl.Decide(id, obs); err != nil || d.Err != "" {
			t.Fatalf("decide %s: %v / %q", id, err, d.Err)
		}
	}
}

// lintWithin lints an exposition and holds it to a series and byte
// budget.
func lintWithin(t *testing.T, what, body string, maxSeries, maxBytes int) {
	t.Helper()
	rep, err := promlint.Lint(strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range rep.Problems {
		t.Errorf("%s: promlint: %s", what, p)
	}
	if rep.Series > maxSeries || len(body) > maxBytes {
		t.Errorf("%s: %d series / %d bytes, budget %d / %d", what, rep.Series, len(body), maxSeries, maxBytes)
	}
}

// A router's /v1/metrics must answer at fleet scale. Each replica ships
// a fixed-size OpMetrics document — a session count, not a per-session
// map — so the body stays far below the 1 MiB frame however many
// sessions the replica holds, and the router's JSON and Prometheus
// views both return 200 within the scrape budgets.
func TestRoutedMetricsAtScale(t *testing.T) {
	const (
		perReplica      = 10_000
		learners        = 100
		defaultBudget   = 16 << 10
		topBudget       = 32 << 10
		defaultSeries   = 400
		topSeries       = 1500
		expositionBytes = 64 << 10
	)
	reps, addrs := newFleet(t, 2, serve.Options{})
	rt, err := serve.NewRouter(addrs, serve.RouterOptions{ProbeEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	rtHTTP := httptest.NewServer(rt.Handler())
	defer rtHTTP.Close()
	cl, err := client.Dial(startRouterTCP(t, rt))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	// Learners that decide fill every replica's top 64 with full
	// documents (the largest body), then the ondemand bulk until each
	// replica holds perReplica sessions.
	createSessions(t, cl, "lrn", 0, learners, "rtm")
	for i := 0; i < learners; i++ {
		decideTimes(t, cl, fmt.Sprintf("lrn-%d", i), 1+i%3)
	}
	total := learners
	for reps[0].srv.SessionCount() < perReplica || reps[1].srv.SessionCount() < perReplica {
		createSessions(t, cl, "bulk", total, total+1000, "ondemand")
		total += 1000
	}

	for i, r := range reps {
		rc, err := client.Dial(addrs[i])
		if err != nil {
			t.Fatal(err)
		}
		for _, q := range []struct {
			body   string
			budget int
			top    int
		}{{"", defaultBudget, 0}, {`{"top":64}`, topBudget, 64}} {
			st, body, err := rc.Control(wire.OpMetrics, "", []byte(q.body))
			if err != nil || st != http.StatusOK {
				t.Fatalf("replica %d OpMetrics %q: status %d err %v", i, q.body, st, err)
			}
			if len(body) > q.budget {
				t.Errorf("replica %d OpMetrics %q body is %d B at %d sessions, budget %d", i, q.body, len(body), r.srv.SessionCount(), q.budget)
			}
			var m metricsResponse
			if err := json.Unmarshal(body, &m); err != nil {
				t.Fatal(err)
			}
			if m.Sessions != r.srv.SessionCount() || len(m.Top) != q.top {
				t.Errorf("replica %d OpMetrics %q: %d sessions, %d listed; want %d, %d", i, q.body, m.Sessions, len(m.Top), r.srv.SessionCount(), q.top)
			}
		}
		rc.Close()
	}

	for _, query := range []string{"", "?top=64"} {
		var m metricsResponse
		if st := getJSON(t, rtHTTP.URL+"/v1/metrics"+query, &m); st != http.StatusOK {
			t.Fatalf("router metrics%s returned %d", query, st)
		}
		if m.Sessions != total {
			t.Errorf("router metrics%s counts %d sessions, want %d", query, m.Sessions, total)
		}
	}
	lintWithin(t, "default", promBody(t, rtHTTP.Client(), rtHTTP.URL, false), defaultSeries, expositionBytes)
	top := promBody(t, rtHTTP.Client(), rtHTTP.URL, false, "top=64")
	lintWithin(t, "top=64", top, topSeries, expositionBytes)
	if n := strings.Count(top, "rtmd_session_epochs{"); n != 64 {
		t.Errorf("top=64 renders %d sessions, want 64", n)
	}
}

// The work of a default scrape must not grow with the session count:
// allocations and bytes allocated per default Prometheus scrape and per
// OpMetrics are the same at 100 and at 10,000 sessions, up to a small
// constant (the digits of the session count, runtime noise).
func TestScrapeWorkIndependentOfSessions(t *testing.T) {
	const (
		rounds     = 20
		mallocSlop = 40
		byteSlop   = 8 << 10
	)
	h := newTestServer(t, serve.Options{})
	cl, err := client.Dial(newTCPServer(t, h).Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	handler := h.srv.Handler()
	scrape := func() {
		rec := httptest.NewRecorder()
		handler.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/metrics?format=prometheus", nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("scrape returned %d", rec.Code)
		}
	}
	opMetrics := func() {
		if st, _, err := cl.Metrics(); err != nil || st != http.StatusOK {
			t.Fatalf("OpMetrics: status %d err %v", st, err)
		}
	}
	// work reports mean mallocs and bytes allocated per call of f.
	work := func(f func()) (mallocs, bytes float64) {
		f()
		f()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < rounds; i++ {
			f()
		}
		runtime.ReadMemStats(&after)
		return float64(after.Mallocs-before.Mallocs) / rounds, float64(after.TotalAlloc-before.TotalAlloc) / rounds
	}

	// A few learners decide so the aggregate histogram is populated.
	createSessions(t, cl, "w", 0, 100, "rtm")
	for i := 0; i < 10; i++ {
		decideTimes(t, cl, fmt.Sprintf("w-%d", i), 3)
	}
	smallScrapeN, smallScrapeB := work(scrape)
	smallOpN, smallOpB := work(opMetrics)

	createSessions(t, cl, "w", 100, 10_000, "ondemand")
	if n := h.srv.SessionCount(); n != 10_000 {
		t.Fatalf("server holds %d sessions, want 10000", n)
	}
	bigScrapeN, bigScrapeB := work(scrape)
	bigOpN, bigOpB := work(opMetrics)

	for _, c := range []struct {
		what             string
		small, big, slop float64
	}{
		{"mallocs per scrape", smallScrapeN, bigScrapeN, mallocSlop},
		{"bytes per scrape", smallScrapeB, bigScrapeB, byteSlop},
		{"mallocs per OpMetrics", smallOpN, bigOpN, mallocSlop},
		{"bytes per OpMetrics", smallOpB, bigOpB, byteSlop},
	} {
		t.Logf("%s: %.0f at 100 sessions, %.0f at 10000", c.what, c.small, c.big)
		if d := c.big - c.small; d > c.slop || d < -c.slop {
			t.Errorf("%s: %.0f at 100 sessions vs %.0f at 10000 (allowed ±%.0f)", c.what, c.small, c.big, c.slop)
		}
	}
}

// topLines returns an exposition's per-session lines, in order.
func topLines(body string) []string {
	var out []string
	for _, line := range strings.Split(body, "\n") {
		if strings.Contains(line, `session="`) {
			out = append(out, line)
		}
	}
	return out
}

// A flat server and a 2-replica routed fleet holding the same sessions
// with the same decide counts must list the same top K — ranked by
// epochs, ties broken by id across replicas, clamped at 64 — with the
// same documents in JSON and the same learning gauges in Prometheus.
// top=0 lists nothing and renders no session label.
func TestTopKFlatMatchesRouted(t *testing.T) {
	const sessions = 90
	flat := newTestServer(t, serve.Options{})
	fcl, err := client.Dial(newTCPServer(t, flat).Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer fcl.Close()
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

	// Decide counts repeat every seven sessions, so every cut falls in a
	// tie that only the id order settles; every tenth session is a
	// non-learner, listed in JSON but without learning gauges.
	epochs := map[string]int64{}
	learner := map[string]bool{}
	for i := 0; i < sessions; i++ {
		id := fmt.Sprintf("tk-%02d", i)
		learner[id] = i%10 != 0
		gov := "ondemand"
		if learner[id] {
			gov = "rtm"
		}
		n := i % 7
		epochs[id] = int64(n)
		for _, cl := range []*client.Client{fcl, rcl} {
			body := fmt.Sprintf(`{"id":%q,"governor":%q,"seed":%d}`, id, gov, i)
			if st, resp, err := cl.CreateSession([]byte(body)); err != nil || st != http.StatusCreated {
				t.Fatalf("create %s: status %d err %v (%s)", id, st, err, resp)
			}
			decideTimes(t, cl, id, n)
		}
	}
	ranked := make([]string, 0, sessions)
	for id := range epochs {
		ranked = append(ranked, id)
	}
	sort.Slice(ranked, func(i, j int) bool {
		a, b := ranked[i], ranked[j]
		if epochs[a] != epochs[b] {
			return epochs[a] > epochs[b]
		}
		return a < b
	})

	for _, k := range []int{0, 1, 5, 64, 1000} {
		want := ranked[:min(k, 64)]
		var docs [2][]map[string]any
		for i, url := range []string{flat.ts.URL, rtHTTP.URL} {
			var m struct {
				Top []map[string]any `json:"top"`
			}
			if st := getJSON(t, fmt.Sprintf("%s/v1/metrics?top=%d", url, k), &m); st != http.StatusOK {
				t.Fatalf("top=%d: status %d", k, st)
			}
			docs[i] = m.Top
			var got []string
			for _, d := range m.Top {
				if id, _ := d["id"].(string); d["epochs"] != float64(epochs[id]) {
					t.Errorf("top=%d at %s: %s reports %v epochs, want %d", k, url, id, d["epochs"], epochs[id])
				}
				got = append(got, d["id"].(string))
			}
			if !slices.Equal(got, want) {
				t.Errorf("top=%d at %s lists %v, want %v", k, url, got, want)
			}
		}
		if !reflect.DeepEqual(docs[0], docs[1]) {
			t.Errorf("top=%d: flat and routed documents differ:\nflat   %v\nrouted %v", k, docs[0], docs[1])
		}

		flatLines := topLines(promBody(t, flat.ts.Client(), flat.ts.URL, false, fmt.Sprintf("top=%d", k)))
		routedLines := topLines(promBody(t, rtHTTP.Client(), rtHTTP.URL, false, fmt.Sprintf("top=%d", k)))
		if !reflect.DeepEqual(flatLines, routedLines) {
			t.Errorf("top=%d: flat and routed per-session series differ:\nflat   %v\nrouted %v", k, flatLines, routedLines)
		}
		var wantEpochs []string
		for _, id := range want {
			if learner[id] {
				wantEpochs = append(wantEpochs, fmt.Sprintf(`rtmd_session_epochs{session=%q} %d`, id, epochs[id]))
			}
		}
		var gotEpochs []string
		for _, line := range flatLines {
			if strings.HasPrefix(line, "rtmd_session_epochs{") {
				gotEpochs = append(gotEpochs, line)
			}
		}
		if !reflect.DeepEqual(gotEpochs, wantEpochs) {
			t.Errorf("top=%d renders epochs %v, want %v", k, gotEpochs, wantEpochs)
		}
		if k == 0 && len(flatLines)+len(routedLines) != 0 {
			t.Errorf("top=0 renders session labels: %v %v", flatLines, routedLines)
		}
	}
}

// Top-K scrapes run against live traffic: decides, deletes and
// re-creates on other goroutines while the ranking pass and the
// document builds take session locks. Every list must stay bounded and
// in rank order. Run under -race, this checks the scrape's locking.
func TestTopKUnderConcurrentDecides(t *testing.T) {
	const sessions, k = 16, 8
	h := newTestServer(t, serve.Options{})
	addr := newTCPServer(t, h).Addr().String()
	cl, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	createSessions(t, cl, "cc", 0, sessions, "rtm")

	stop := make(chan struct{})
	errs := make(chan error, 2)
	for w := 0; w < 2; w++ {
		go func(w int) {
			wc, err := client.Dial(addr)
			if err != nil {
				errs <- err
				return
			}
			defer wc.Close()
			obs := steadyObs()
			for n := 0; ; n++ {
				select {
				case <-stop:
					errs <- nil
					return
				default:
				}
				id := fmt.Sprintf("cc-%d", (n*2+w)%sessions)
				if n%50 == 49 { // churn: the scrape may meet a deleted session
					if _, _, err := wc.DeleteSession(id); err != nil {
						errs <- err
						return
					}
					if _, _, err := wc.CreateSession([]byte(fmt.Sprintf(`{"id":%q,"governor":"rtm"}`, id))); err != nil {
						errs <- err
						return
					}
					continue
				}
				obs.Epoch = n
				if _, err := wc.Decide(id, obs); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	for i := 0; i < 50; i++ {
		var m metricsResponse
		if st := h.get(fmt.Sprintf("/v1/metrics?top=%d", k), &m); st != http.StatusOK {
			t.Errorf("scrape %d: status %d", i, st)
			break
		}
		if len(m.Top) > k {
			t.Errorf("scrape %d lists %d sessions, want ≤ %d", i, len(m.Top), k)
		}
		for j := 1; j < len(m.Top); j++ {
			a, b := m.Top[j-1], m.Top[j]
			if a.Epochs < b.Epochs || (a.Epochs == b.Epochs && a.ID >= b.ID) {
				t.Errorf("scrape %d out of rank order at %d: %s/%d before %s/%d", i, j, a.ID, a.Epochs, b.ID, b.Epochs)
			}
		}
		promBody(t, h.ts.Client(), h.ts.URL, false, fmt.Sprintf("top=%d", k))
	}
	close(stop)
	for w := 0; w < 2; w++ {
		if err := <-errs; err != nil {
			t.Error(err)
		}
	}
}
