package serve_test

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"qgov/internal/governor"
	"qgov/internal/loadgen"
	"qgov/internal/serve"
	"qgov/internal/serve/client"
)

// churnSpec is the correctness workload: recycled session ids (finite
// lifetimes), burst arrivals, a partial storm and a total storm — every
// lifecycle transition the churn bugs lived in, compressed into a few
// seconds of schedule.
func churnSpec() loadgen.Spec {
	return loadgen.Spec{
		Seed:     1234,
		HorizonS: 8,
		IDPrefix: "churn",
		Clients: []loadgen.ClientClass{
			{
				Name:            "steady",
				Count:           6,
				Arrival:         loadgen.Arrival{Process: "poisson", RateHz: 40},
				LifetimeDecides: 30,
				StartWindowS:    0.5,
			},
			{
				Name:         "burst",
				Count:        4,
				Arrival:      loadgen.Arrival{Process: "gamma", RateHz: 25, Shape: 0.5},
				RateSkew:     &loadgen.Skew{Dist: "pareto", Param: 2},
				StartWindowS: 0.5,
			},
		},
		Storms: []loadgen.Storm{
			{AtS: 3, Fraction: 0.7, RestartDelayS: 0.1},
			{AtS: 6, Fraction: 1, RestartDelayS: 0.05},
		},
	}
}

// runChurn drives churnSpec against the target and asserts a clean run:
// transports healthy, every control op accepted, no decide landing
// anywhere unexpected, all sessions drained.
func runChurn(t *testing.T, target loadgen.Target) *loadgen.Report {
	t.Helper()
	g, err := loadgen.New(churnSpec())
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	rep, err := loadgen.Run(g, target, loadgen.RunOptions{Lanes: 4, BatchMax: 32})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if rep.CreateErrors != 0 || rep.DeleteErrors != 0 || rep.DecideErrors != 0 {
		t.Fatalf("churn run not clean: %+v", rep)
	}
	if rep.EndLive != 0 {
		t.Fatalf("%d sessions live after drain", rep.EndLive)
	}
	if rep.Decides == 0 || rep.Creates <= 10 {
		t.Fatalf("hollow run: %+v", rep)
	}
	return rep
}

// oracleReport runs the same schedule against the in-process oracle; the
// serving stacks must reproduce its checksum exactly.
func oracleReport(t *testing.T) *loadgen.Report {
	t.Helper()
	return runChurn(t, loadgen.NewLocal())
}

// TestChurnFlatMatchesOracle runs full lifecycle churn against a flat
// server over the binary transport and demands decision equivalence with
// the in-process oracle: same spec, same checksum. A decide ever landing
// on the wrong generation of a recycled id breaks the equality.
func TestChurnFlatMatchesOracle(t *testing.T) {
	want := oracleReport(t)

	h := newTestServer(t, serve.Options{})
	tcp := newTCPServer(t, h)
	cl, err := client.Dial(tcp.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	got := runChurn(t, cl)
	if got.Checksum != want.Checksum {
		t.Fatalf("flat server checksum %x != oracle %x", got.Checksum, want.Checksum)
	}
	if got.Creates != want.Creates || got.Deletes != want.Deletes || got.Decides != want.Decides {
		t.Fatalf("flat counts diverge: %+v vs oracle %+v", got, want)
	}
	// The drain deleted everything server-side too: a drained id must be
	// creatable again without conflict.
	st, resp, err := cl.CreateSession([]byte(`{"id":"churn-steady-0","governor":"rtm","seed":1}`))
	if err != nil || st != http.StatusCreated {
		t.Fatalf("re-creating a drained id: status %d err %v (%s)", st, err, resp)
	}
}

// TestChurnRouterMatchesOracle repeats the oracle equivalence through a
// 3-replica router: sharded ownership, hand-offs and all.
func TestChurnRouterMatchesOracle(t *testing.T) {
	want := oracleReport(t)

	_, addrs := newFleet(t, 3, serve.Options{})
	rt, err := serve.NewRouter(addrs, serve.RouterOptions{ProbeEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	cl, err := client.Dial(startRouterTCP(t, rt))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	got := runChurn(t, cl)
	if got.Checksum != want.Checksum {
		t.Fatalf("routed checksum %x != oracle %x", got.Checksum, want.Checksum)
	}
}

// TestChurnFleetMatchesOracle repeats the oracle equivalence through the
// ring-aware direct fleet client (per-replica connections, client-side
// ownership routing).
func TestChurnFleetMatchesOracle(t *testing.T) {
	want := oracleReport(t)

	_, addrs := newFleet(t, 3, serve.Options{})
	rt, err := serve.NewRouter(addrs, serve.RouterOptions{ProbeEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	fl, err := client.DialFleet(startRouterTCP(t, rt))
	if err != nil {
		t.Fatal(err)
	}
	defer fl.Close()

	got := runChurn(t, fl)
	if got.Checksum != want.Checksum {
		t.Fatalf("fleet checksum %x != oracle %x", got.Checksum, want.Checksum)
	}
}

// batchTarget is the slice of a serving target the order test drives:
// loadgen.Local (the serial oracle), a binary client, or the JSON front.
type batchTarget interface {
	CreateSession(body []byte) (int, []byte, error)
	DecideBatch(sessions []string, obs []governor.Observation, out []client.Decision) error
}

// jsonTarget drives a server's HTTP front: creates and decides as JSON.
type jsonTarget struct{ h *testServer }

func (j jsonTarget) CreateSession(body []byte) (int, []byte, error) {
	resp, err := j.h.ts.Client().Post(j.h.ts.URL+"/v1/sessions", "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

func (j jsonTarget) DecideBatch(sessions []string, obs []governor.Observation, out []client.Decision) error {
	items := make([]decideItem, len(sessions))
	for i, id := range sessions {
		items[i] = decideItem{Session: id, Obs: obsFromGov(obs[i])}
	}
	var resp struct {
		Decisions []decision `json:"decisions"`
	}
	if st := j.h.post("/v1/decide", map[string]any{"requests": items}, &resp); st != http.StatusOK {
		return fmt.Errorf("decide returned %d", st)
	}
	if len(resp.Decisions) != len(out) {
		return fmt.Errorf("%d decisions for %d requests", len(resp.Decisions), len(out))
	}
	for i, d := range resp.Decisions {
		out[i] = client.Decision{OPPIdx: d.OPPIdx, FreqMHz: d.FreqMHz, Err: d.Error}
	}
	return nil
}

// orderObs is the k-th observation of the order test: the workload
// swings every entry, so a session that saw its observations in another
// order would learn, and decide, differently.
func orderObs(k int) governor.Observation {
	o := steadyObs()
	f := 0.5 + float64(k%7)/6
	o.Epoch = k
	o.Cycles = []uint64{uint64(30e6 * f), uint64(31e6 * f), uint64(29e6 * f), uint64(30e6 * f)}
	o.ExecTimeS = 0.025 * f
	return o
}

// TestBatchPreservesPerSessionOrder sends decide batches that cycle over
// three sessions, so each session repeats 32 times within one batch. A
// session must see its observations in batch order, so every transport
// — flat binary, flat JSON and routed binary — must reproduce a serial
// in-process replay decision for decision. Batches this large fan out
// across workers whenever GOMAXPROCS >= 2.
func TestBatchPreservesPerSessionOrder(t *testing.T) {
	const (
		batchLen = 96
		rounds   = 20
	)
	ids := []string{"ord-0", "ord-1", "ord-2"}
	run := func(t *testing.T, tg batchTarget) [][]client.Decision {
		t.Helper()
		for i, id := range ids {
			body := fmt.Sprintf(`{"id":%q,"governor":"rtm","seed":%d}`, id, i+1)
			if st, resp, err := tg.CreateSession([]byte(body)); err != nil || st != http.StatusCreated {
				t.Fatalf("create %s: status %d err %v (%s)", id, st, err, resp)
			}
		}
		all := make([][]client.Decision, rounds)
		for r := range all {
			sessions := make([]string, batchLen)
			obs := make([]governor.Observation, batchLen)
			for k := range sessions {
				sessions[k] = ids[k%len(ids)]
				obs[k] = orderObs(r*batchLen + k)
			}
			all[r] = make([]client.Decision, batchLen)
			if err := tg.DecideBatch(sessions, obs, all[r]); err != nil {
				t.Fatalf("round %d: %v", r, err)
			}
		}
		return all
	}
	want := run(t, loadgen.NewLocal())
	check := func(t *testing.T, got [][]client.Decision) {
		t.Helper()
		for r := range want {
			for k, w := range want[r] {
				if w.Err != "" {
					t.Fatalf("oracle round %d entry %d failed: %s", r, k, w.Err)
				}
				if got[r][k] != w {
					t.Fatalf("round %d entry %d (%s): got %+v, serial replay %+v", r, k, ids[k%len(ids)], got[r][k], w)
				}
			}
		}
	}

	t.Run("flat-binary", func(t *testing.T) {
		h := newTestServer(t, serve.Options{})
		cl, err := client.Dial(newTCPServer(t, h).Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		defer cl.Close()
		check(t, run(t, cl))
	})
	t.Run("flat-json", func(t *testing.T) {
		check(t, run(t, jsonTarget{newTestServer(t, serve.Options{})}))
	})
	t.Run("routed-binary", func(t *testing.T) {
		_, addrs := newFleet(t, 2, serve.Options{})
		rt, err := serve.NewRouter(addrs, serve.RouterOptions{ProbeEvery: -1})
		if err != nil {
			t.Fatal(err)
		}
		defer rt.Close()
		cl, err := client.Dial(startRouterTCP(t, rt))
		if err != nil {
			t.Fatal(err)
		}
		defer cl.Close()
		check(t, run(t, cl))
	})
}

// TestChurnRecycledIDRace hammers one session id from a decider while a
// churner create/deletes it as fast as it can. Every decide must either
// succeed against whatever generation is live (real decision, real
// frequency) or fail per-decision with unknown-session — never a
// transport error, never a zero-value decision, and after the final
// delete, never a success.
func TestChurnRecycledIDRace(t *testing.T) {
	h := newTestServer(t, serve.Options{})
	tcp := newTCPServer(t, h)

	decider, err := client.Dial(tcp.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer decider.Close()
	churner, err := client.Dial(tcp.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer churner.Close()

	const id = "flip"
	obs := steadyObs()
	var wg sync.WaitGroup
	var landed, missed int
	wg.Add(1)
	go func() {
		defer wg.Done()
		out := make([]client.Decision, 1)
		for i := 0; i < 3000; i++ {
			o := obs
			o.Epoch = i
			if err := decider.DecideBatch([]string{id}, []governor.Observation{o}, out); err != nil {
				t.Errorf("decide %d: transport error: %v", i, err)
				return
			}
			if out[0].Err == "" {
				if out[0].OPPIdx < 0 || out[0].FreqMHz <= 0 {
					t.Errorf("decide %d: hollow success: %+v", i, out[0])
					return
				}
				landed++
			} else {
				missed++
			}
		}
	}()
	for i := 0; i < 400; i++ {
		body := fmt.Sprintf(`{"id":%q,"governor":"rtm","seed":%d}`, id, i)
		if st, resp, err := churner.CreateSession([]byte(body)); err != nil || st != http.StatusCreated {
			t.Fatalf("create gen %d: status %d err %v (%s)", i, st, err, resp)
		}
		if st, resp, err := churner.DeleteSession(id); err != nil || st != http.StatusNoContent {
			t.Fatalf("delete gen %d: status %d err %v (%s)", i, st, err, resp)
		}
	}
	wg.Wait()
	if landed == 0 {
		t.Log("no decide ever landed on a live generation (timing-dependent; not a failure)")
	}
	t.Logf("decides: %d landed, %d missed across 400 generations", landed, missed)

	// The id is deleted: a decide now must fail per-decision, not succeed
	// against some resurrected generation.
	out := make([]client.Decision, 1)
	if err := decider.DecideBatch([]string{id}, []governor.Observation{obs}, out); err != nil {
		t.Fatalf("post-delete decide: %v", err)
	}
	if out[0].Err == "" {
		t.Fatalf("decide succeeded on a deleted id: %+v", out[0])
	}
}

// TestCheckpointChurnNeverResurrects runs create/decide/delete churn with
// an aggressive background checkpoint sweep, then verifies DELETE meant
// gone: no checkpoint file survives for any deleted session — including
// sessions deleted while the sweep was serialising them (the undo-save
// race) — and a re-created id starts cold.
func TestCheckpointChurnNeverResurrects(t *testing.T) {
	dir := t.TempDir()
	h := newTestServer(t, serve.Options{
		CheckpointDir:   dir,
		CheckpointEvery: time.Millisecond,
	})
	tcp := newTCPServer(t, h)
	cl, err := client.Dial(tcp.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	obs := steadyObs()
	out := make([]client.Decision, 1)
	for round := 0; round < 20; round++ {
		for i := 0; i < 8; i++ {
			id := fmt.Sprintf("gc-%d", i)
			body := fmt.Sprintf(`{"id":%q,"governor":"rtm","seed":%d}`, id, round*8+i)
			if st, resp, err := cl.CreateSession([]byte(body)); err != nil || st != http.StatusCreated {
				t.Fatalf("round %d create %s: status %d err %v (%s)", round, id, st, err, resp)
			}
			for e := 0; e < 3; e++ {
				o := obs
				o.Epoch = e
				if err := cl.DecideBatch([]string{id}, []governor.Observation{o}, out); err != nil || out[0].Err != "" {
					t.Fatalf("round %d decide %s: err %v decision %+v", round, id, err, out[0])
				}
			}
		}
		// Let the sweep overlap the deletes below.
		time.Sleep(2 * time.Millisecond)
		for i := 0; i < 8; i++ {
			id := fmt.Sprintf("gc-%d", i)
			if st, resp, err := cl.DeleteSession(id); err != nil || st != http.StatusNoContent {
				t.Fatalf("round %d delete %s: status %d err %v (%s)", round, id, st, err, resp)
			}
		}
	}
	// One more sweep interval for any in-flight save to finish and be
	// undone.
	time.Sleep(10 * time.Millisecond)

	var leaked []string
	if err := filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() && strings.Contains(d.Name(), "gc-") {
			leaked = append(leaked, d.Name())
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(leaked) != 0 {
		t.Fatalf("deleted sessions left checkpoints behind: %v", leaked)
	}
}
