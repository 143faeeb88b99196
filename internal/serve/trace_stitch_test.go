package serve_test

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"qgov/internal/governor"
	"qgov/internal/serve"
	"qgov/internal/serve/client"
	"qgov/internal/trace"
)

// fetchSpans queries OpTrace through a client and decodes the answer.
func fetchSpans(t *testing.T, cl *client.Client, filter string) []trace.Span {
	t.Helper()
	var body []byte
	if filter != "" {
		body = []byte(filter)
	}
	st, resp, err := cl.TraceSpans(body)
	if err != nil || st != http.StatusOK {
		t.Fatalf("trace fetch: status %d err %v (%s)", st, err, resp)
	}
	var spans []trace.Span
	if err := json.Unmarshal(resp, &spans); err != nil {
		t.Fatalf("decoding spans: %v (%s)", err, resp)
	}
	return spans
}

// The tentpole acceptance test: a decide through the router, with head
// sampling at probability 1, must yield router and replica spans
// stitched under one trace id — the router's "route" (whole batch) and
// "relay" (replica hop) spans plus the replica's "decide" span — all
// visible from a single /v1/trace (OpTrace) query against the router.
// The replicas have no sampling of their own: their spans exist only
// because the id propagated across the wire.
func TestRoutedDecideTraceStitching(t *testing.T) {
	_, addrs := newFleet(t, 2, serve.Options{})
	rt, err := serve.NewRouter(addrs, serve.RouterOptions{
		ProbeEvery: -1,
		Tracer:     trace.New(trace.Options{SampleProb: 1}),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	cl, err := client.Dial(startRouterTCP(t, rt))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	const id = "stitch-0"
	body := fmt.Sprintf(`{"id":%q,"governor":"rtm","seed":1}`, id)
	if st, resp, err := cl.CreateSession([]byte(body)); err != nil || st != http.StatusCreated {
		t.Fatalf("create: status %d err %v (%s)", st, err, resp)
	}
	if d, err := cl.Decide(id, steadyObs()); err != nil || d.Err != "" {
		t.Fatalf("decide: %v / %q", err, d.Err)
	}

	// The route span lands after the relay's completion goroutine runs,
	// which can trail the client's reply; poll briefly.
	deadline := time.Now().Add(5 * time.Second)
	for {
		spans := fetchSpans(t, cl, fmt.Sprintf(`{"session":%q}`, id))
		var tid trace.TraceID
		for _, sp := range spans {
			if sp.Stage == "decide" {
				tid = sp.Trace
			}
		}
		if tid != 0 {
			got := map[string]int{}
			all := fetchSpans(t, cl, fmt.Sprintf(`{"trace":%q}`, tid.String()))
			for _, sp := range all {
				if sp.Trace != tid {
					t.Fatalf("trace filter leaked span %+v", sp)
				}
				got[sp.Stage]++
			}
			if got["route"] >= 1 && got["relay"] >= 1 && got["decide"] >= 1 {
				for _, sp := range all {
					if sp.Stage == "route" && sp.Origin != "router" {
						t.Errorf("route span origin %q, want router", sp.Origin)
					}
					if sp.Stage == "decide" && sp.Session != id {
						t.Errorf("decide span session %q, want %s", sp.Session, id)
					}
					if sp.Stage == "decide" && sp.Origin == "" {
						t.Error("replica decide span has no origin after aggregation")
					}
				}
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("stitched stages missing: %v (spans %+v)", got, all)
			}
		} else if time.Now().After(deadline) {
			t.Fatalf("no decide span for %s: %+v", id, spans)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// A misrouted decide — sent straight to the wrong replica — must stitch
// the same way whichever plane carried it: the wrong replica records a
// "forward" span naming the owner, the owner records the "decide" span
// marked Forwarded, and both surface under one id from the router's
// aggregated /v1/trace. A binary decide carries a client-chosen trace
// id; a JSON decide carries none and is head-sampled at the wrong
// replica.
func TestMisrouteForwardTraceStitching(t *testing.T) {
	// Two single-replica fleets: each replica samples into its own ring.
	var reps []*replica
	var addrs []string
	for i := 0; i < 2; i++ {
		r, a := newFleet(t, 1, serve.Options{Tracer: trace.New(trace.Options{SampleProb: 1})})
		reps, addrs = append(reps, r...), append(addrs, a...)
	}
	// NewRouter pushes the membership table to both replicas, which is
	// what arms replica-side forwarding.
	rt, err := serve.NewRouter(addrs, serve.RouterOptions{ProbeEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	rcl, err := client.Dial(startRouterTCP(t, rt))
	if err != nil {
		t.Fatal(err)
	}
	defer rcl.Close()

	const tid = trace.TraceID(0x1234567890abcdef)
	inputs := []struct {
		name string
		tid  trace.TraceID // the id the spans must carry; 0: minted at the wrong replica
		// decide sends one misrouted decide for id to the wrong replica.
		decide func(t *testing.T, wrong *replica, wrongAddr, id string)
	}{
		{"binary", tid, func(t *testing.T, _ *replica, wrongAddr, id string) {
			wcl, err := client.Dial(wrongAddr)
			if err != nil {
				t.Fatal(err)
			}
			defer wcl.Close()
			out := make([]client.Decision, 1)
			err = wcl.DecideBatchTraced([]string{id}, []governor.Observation{steadyObs()}, out, []uint64{uint64(tid)})
			if err != nil || out[0].Err != "" {
				t.Fatalf("misrouted decide: %v / %q", err, out[0].Err)
			}
		}},
		{"json", 0, func(t *testing.T, wrong *replica, _ string, id string) {
			hs := httptest.NewServer(wrong.srv.Handler())
			defer hs.Close()
			h := &testServer{t: t, srv: wrong.srv, ts: hs}
			var resp struct {
				Decisions []decision `json:"decisions"`
			}
			items := []decideItem{{Session: id, Obs: obsFromGov(steadyObs())}}
			if st := h.post("/v1/decide", map[string]any{"requests": items}, &resp); st != http.StatusOK ||
				len(resp.Decisions) != 1 || resp.Decisions[0].Error != "" {
				t.Fatalf("misrouted JSON decide: status %d %+v", st, resp.Decisions)
			}
		}},
	}
	for _, in := range inputs {
		t.Run(in.name, func(t *testing.T) {
			id := "fwd-" + in.name
			body := fmt.Sprintf(`{"id":%q,"governor":"rtm","seed":7}`, id)
			if st, resp, err := rcl.CreateSession([]byte(body)); err != nil || st != http.StatusCreated {
				t.Fatalf("create: status %d err %v (%s)", st, err, resp)
			}
			owner, ok := rt.Owner(id)
			if !ok {
				t.Fatal("ring places nothing")
			}
			wrong := 0
			if addrs[wrong] == owner {
				wrong = 1
			}
			in.decide(t, reps[wrong], addrs[wrong], id)

			spans := fetchSpans(t, rcl, fmt.Sprintf(`{"session":%q}`, id))
			var forward, forwardedDecide bool
			for _, sp := range spans {
				if sp.Trace != spans[0].Trace || (in.tid != 0 && sp.Trace != in.tid) {
					t.Fatalf("span under wrong trace: %+v (all %+v)", sp, spans)
				}
				switch sp.Stage {
				case "forward":
					forward = true
					if sp.Replica != owner {
						t.Errorf("forward span names replica %q, want owner %q", sp.Replica, owner)
					}
				case "decide":
					forwardedDecide = forwardedDecide || sp.Forwarded
				}
			}
			if !forward || !forwardedDecide {
				t.Fatalf("stitched misroute incomplete (forward=%v forwardedDecide=%v): %+v",
					forward, forwardedDecide, spans)
			}
		})
	}
}

// Tail capture: with head sampling off and a zero-ish slow threshold,
// every decide batch is slower than the threshold and must be captured
// as a Slow "decide.batch" span with a minted id — the flight-recorder
// path that catches outliers head sampling misses.
func TestTailCaptureSlowBatch(t *testing.T) {
	h := newTestServer(t, serve.Options{
		Tracer: trace.New(trace.Options{Slow: time.Nanosecond}),
	})
	ts := newTCPServer(t, h)
	if st := h.post("/v1/sessions", map[string]any{"id": "slow-0", "governor": "ondemand"}, nil); st != http.StatusCreated {
		t.Fatalf("create returned %d", st)
	}
	cl, err := client.Dial(ts.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if d, err := cl.Decide("slow-0", steadyObs()); err != nil || d.Err != "" {
		t.Fatalf("decide: %v / %q", err, d.Err)
	}
	spans := fetchSpans(t, cl, "")
	for _, sp := range spans {
		if sp.Stage == "decide.batch" && sp.Slow && sp.Trace != 0 {
			return
		}
	}
	t.Fatalf("no slow decide.batch span captured: %+v", spans)
}
