package serve_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"io/fs"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"qgov/internal/serve"
	"qgov/internal/serve/client"
	"qgov/internal/trace"
	"qgov/internal/wire"
)

// controlPlanes is one serving tier's two control planes: its HTTP
// front and a binary client on its wire listener.
type controlPlanes struct {
	url string
	cl  *client.Client
}

// flatPlanes serves a flat server over both planes.
func flatPlanes(t *testing.T, opt serve.Options) controlPlanes {
	h := newTestServer(t, opt)
	cl, err := client.Dial(newTCPServer(t, h).Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	return controlPlanes{url: h.ts.URL, cl: cl}
}

// routedPlanes serves a router over two replicas over both planes.
func routedPlanes(t *testing.T, opt serve.RouterOptions) controlPlanes {
	_, addrs := newFleet(t, 2, serve.Options{})
	opt.ProbeEvery = -1
	rt, err := serve.NewRouter(addrs, opt)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rt.Close() })
	hs := httptest.NewServer(rt.Handler())
	t.Cleanup(hs.Close)
	cl, err := client.Dial(startRouterTCP(t, rt))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	return controlPlanes{url: hs.URL, cl: cl}
}

// do issues one HTTP request against the front and returns its status
// and body.
func (p controlPlanes) do(t *testing.T, method, path string, body []byte) (int, []byte) {
	t.Helper()
	req, err := http.NewRequest(method, p.url+path, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, b
}

// decodeAny decodes a control body for comparison; an empty body is nil.
func decodeAny(t *testing.T, b []byte) any {
	t.Helper()
	if len(b) == 0 {
		return nil
	}
	var v any
	if err := json.Unmarshal(b, &v); err != nil {
		t.Fatalf("body %s: %v", b, err)
	}
	return v
}

// sameAnswer fails unless the HTTP and binary planes answered one op
// with the same status and the same decoded body.
func sameAnswer(t *testing.T, op string, hs int, hb []byte, bs int, bb []byte, err error) {
	t.Helper()
	if err != nil {
		t.Fatalf("%s over binary: %v", op, err)
	}
	if hs != bs || !reflect.DeepEqual(decodeAny(t, hb), decodeAny(t, bb)) {
		t.Fatalf("%s: HTTP %d %s, binary %d %s", op, hs, hb, bs, bb)
	}
}

// The binary control plane must mirror the HTTP one, at both tiers:
// create, duplicate create, info, checkpoint, delete, health, trace and
// members give the same status and body over either plane, over the
// same connection that carries decisions.
func TestTCPControlPlaneLifecycle(t *testing.T) {
	sampled := func() *trace.Tracer { return trace.New(trace.Options{SampleProb: 1}) }
	t.Run("flat", func(t *testing.T) {
		testControlPlaneLifecycle(t, flatPlanes(t, serve.Options{CheckpointDir: t.TempDir(), Tracer: sampled()}))
	})
	t.Run("routed", func(t *testing.T) {
		testControlPlaneLifecycle(t, routedPlanes(t, serve.RouterOptions{Tracer: sampled()}))
	})
}

func testControlPlaneLifecycle(t *testing.T, p controlPlanes) {
	cl := p.cl
	st, body, err := cl.CreateSession([]byte(`{"id":"bc0","governor":"rtm","seed":3}`))
	if err != nil || st != http.StatusCreated {
		t.Fatalf("create: status %d body %s err %v", st, body, err)
	}
	var info struct {
		ID       string `json:"id"`
		Governor string `json:"governor"`
		Epochs   int64  `json:"epochs"`
	}
	if err := json.Unmarshal(body, &info); err != nil || info.ID != "bc0" || info.Governor != "rtm" {
		t.Fatalf("create body %s (err %v)", body, err)
	}
	// The same create over HTTP answers the same body, up to the id.
	hs, hb := p.do(t, "POST", "/v1/sessions", []byte(`{"id":"hc0","governor":"rtm","seed":3}`))
	withoutID := func(b []byte) []byte {
		var m map[string]any
		if err := json.Unmarshal(b, &m); err != nil {
			t.Fatalf("create body %s: %v", b, err)
		}
		delete(m, "id")
		out, _ := json.Marshal(m)
		return out
	}
	sameAnswer(t, "create", hs, withoutID(hb), st, withoutID(body), nil)

	// Duplicate create conflicts on both planes.
	dup := []byte(`{"id":"bc0","governor":"rtm"}`)
	hs, hb = p.do(t, "POST", "/v1/sessions", dup)
	st, body, err = cl.CreateSession(dup)
	if st != http.StatusConflict {
		t.Fatalf("duplicate create: status %d err %v", st, err)
	}
	sameAnswer(t, "duplicate create", hs, hb, st, body, err)

	// Decide a few epochs so there is state to freeze.
	for i := 0; i < 5; i++ {
		obs := steadyObs()
		obs.Epoch = i
		if d, err := cl.Decide("bc0", obs); err != nil || d.Err != "" {
			t.Fatalf("decide %d: %+v err %v", i, d, err)
		}
	}

	st, body, err = cl.SessionInfo("bc0")
	if err != nil || st != http.StatusOK {
		t.Fatalf("info: status %d err %v", st, err)
	}
	if err := json.Unmarshal(body, &info); err != nil || info.Epochs != 5 {
		t.Fatalf("info body %s (err %v)", body, err)
	}
	hs, hb = p.do(t, "GET", "/v1/sessions/bc0", nil)
	sameAnswer(t, "info", hs, hb, st, body, err)

	st, body, err = cl.CheckpointSession("bc0")
	if err != nil || st != http.StatusOK {
		t.Fatalf("checkpoint: status %d err %v", st, err)
	}
	var ck struct {
		Session string          `json:"session"`
		State   json.RawMessage `json:"state"`
	}
	if err := json.Unmarshal(body, &ck); err != nil || ck.Session != "bc0" || len(ck.State) == 0 {
		t.Fatalf("checkpoint body %s (err %v)", body, err)
	}
	hs, hb = p.do(t, "POST", "/v1/sessions/bc0/checkpoint", nil)
	sameAnswer(t, "checkpoint", hs, hb, st, body, err)

	hs, hb = p.do(t, "GET", "/healthz", nil)
	st, body, err = cl.Health()
	sameAnswer(t, "health", hs, hb, st, body, err)

	hs, hb = p.do(t, "GET", "/v1/trace?limit=8", nil)
	st, body, err = cl.TraceSpans([]byte(`{"limit":8}`))
	if decodeAny(t, body) == nil || len(decodeAny(t, body).([]any)) == 0 {
		t.Fatalf("trace: no spans from sampled decides (%s)", body)
	}
	sameAnswer(t, "trace", hs, hb, st, body, err)

	hs, hb = p.do(t, "GET", "/v1/members", nil)
	st, body, err = cl.Members()
	sameAnswer(t, "members", hs, hb, st, body, err)

	// List includes both sessions; metrics counts them, and its top-K
	// list carries bc0's document.
	if st, body, err = cl.ListSessions(); err != nil || st != http.StatusOK {
		t.Fatalf("list: status %d err %v", st, err)
	}
	var infos []struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(body, &infos); err != nil || len(infos) != 2 || infos[0].ID != "bc0" || infos[1].ID != "hc0" {
		t.Fatalf("list body %s (err %v)", body, err)
	}
	if st, body, err = cl.Control(wire.OpMetrics, "", []byte(`{"top":1}`)); err != nil || st != http.StatusOK {
		t.Fatalf("metrics: status %d err %v", st, err)
	}
	var m struct {
		Sessions int `json:"sessions"`
		Top      []struct {
			ID     string `json:"id"`
			Epochs int64  `json:"epochs"`
		} `json:"top"`
	}
	if err := json.Unmarshal(body, &m); err != nil || m.Sessions != 2 || len(m.Top) != 1 || m.Top[0].ID != "bc0" || m.Top[0].Epochs != 5 {
		t.Fatalf("metrics body %s (err %v)", body, err)
	}

	// A create body past the 32 MiB bound is refused at the front.
	big := append([]byte(`{"id":"big","governor":"rtm","calibration_cc":[`), bytes.Repeat([]byte("1,"), 16<<20)...)
	big = append(big, "1]}"...)
	if hs, hb = p.do(t, "POST", "/v1/sessions", big); hs != http.StatusBadRequest || !bytes.Contains(hb, []byte("too large")) {
		t.Fatalf("oversized create: status %d (%s)", hs, hb)
	}

	hs, hb = p.do(t, "DELETE", "/v1/sessions/hc0", nil)
	st, body, err = cl.DeleteSession("bc0")
	if st != http.StatusNoContent {
		t.Fatalf("delete: status %d err %v", st, err)
	}
	sameAnswer(t, "delete", hs, hb, st, body, err)
	hs, hb = p.do(t, "DELETE", "/v1/sessions/bc0", nil)
	st, body, err = cl.DeleteSession("bc0")
	if st != http.StatusNotFound {
		t.Fatalf("delete after delete: status %d err %v", st, err)
	}
	sameAnswer(t, "delete after delete", hs, hb, st, body, err)
	if st, _, err = cl.SessionInfo("bc0"); err != nil || st != http.StatusNotFound {
		t.Fatalf("info after delete: status %d err %v", st, err)
	}
	if st, _, err = cl.Control(0x7f, "", nil); err != nil || st != http.StatusBadRequest {
		t.Fatalf("unknown op: status %d err %v", st, err)
	}
}

// Control frames are ordering barriers: a create written *before* an
// observe on the same connection — in the same kernel write, no round
// trip between them — must be applied before that observe decides.
func TestTCPControlBarrierOrdering(t *testing.T) {
	h := newTestServer(t, serve.Options{})
	ts := newTCPServer(t, h)

	conn, err := net.Dial("tcp", ts.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	var buf []byte
	buf, err = wire.AppendControl(buf, 1, wire.OpCreate, "", []byte(`{"id":"bar0","governor":"ondemand"}`))
	if err != nil {
		t.Fatal(err)
	}
	obs := steadyObs()
	buf, err = wire.AppendObserve(buf, 2, "bar0", &obs)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write(buf); err != nil {
		t.Fatal(err)
	}

	r := wire.NewReader(conn)
	sawCreate, sawDecide := false, false
	for i := 0; i < 2; i++ {
		typ, payload, err := r.Next()
		if err != nil {
			t.Fatal(err)
		}
		switch typ {
		case wire.MsgControlReply:
			var cr wire.ControlReply
			if err := cr.Decode(payload); err != nil {
				t.Fatal(err)
			}
			if cr.ID != 1 || cr.Status != 201 {
				t.Fatalf("create reply: %+v (%s)", cr, cr.Body)
			}
			sawCreate = true
		case wire.MsgDecide:
			var d wire.Decide
			if err := d.Decode(payload); err != nil {
				t.Fatal(err)
			}
			if d.ID != 2 || len(d.Err) != 0 || d.OPPIdx < 0 {
				t.Fatalf("decide after create in the same write failed: %+v (%s)", d, d.Err)
			}
			sawDecide = true
		default:
			t.Fatalf("unexpected frame type 0x%02x", typ)
		}
	}
	if !sawCreate || !sawDecide {
		t.Fatalf("saw create=%v decide=%v", sawCreate, sawDecide)
	}
}

// A session created over the binary plane on a checkpointing server must
// freeze on Close and warm-start on re-create — the restart contract,
// independent of which control plane created it.
func TestTCPControlCheckpointGC(t *testing.T) {
	dir := t.TempDir()
	h := newTestServer(t, serve.Options{CheckpointDir: dir})
	ts := newTCPServer(t, h)
	cl, err := client.Dial(ts.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	if st, _, err := cl.CreateSession([]byte(`{"id":"gc0","governor":"rtm","seed":1}`)); err != nil || st != http.StatusCreated {
		t.Fatalf("create: status %d err %v", st, err)
	}
	obs := steadyObs()
	if d, err := cl.Decide("gc0", obs); err != nil || d.Err != "" {
		t.Fatalf("decide: %+v err %v", d, err)
	}
	if st, _, err := cl.CheckpointSession("gc0"); err != nil || st != http.StatusOK {
		t.Fatalf("checkpoint: status %d err %v", st, err)
	}
	if _, err := os.Stat(filepath.Join(dir, "gc0.state")); err != nil {
		t.Fatalf("checkpoint file missing after explicit checkpoint: %v", err)
	}
	// Deleting the session garbage-collects the state file.
	if st, _, err := cl.DeleteSession("gc0"); err != nil || st != http.StatusNoContent {
		t.Fatalf("delete: status %d err %v", st, err)
	}
	if _, err := os.Stat(filepath.Join(dir, "gc0.state")); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("checkpoint file survived session delete: %v", err)
	}
}
