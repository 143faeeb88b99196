package qgov_test

// Allocation guardrails for the hot paths the benchmarks measure. The
// per-epoch paths (Q update, EPD sampling, EWMA, power model, cluster
// epoch, the RTM and ML-DTM decides) must be allocation-free in steady
// state, and a whole simulation
// run must cost only its setup — if a per-frame allocation sneaks back
// into the loop, a 1000-frame run blows straight through these bounds.

import (
	"runtime"
	"testing"

	"qgov/internal/core"
	"qgov/internal/governor"
	"qgov/internal/platform"
	"qgov/internal/predictor"
	"qgov/internal/sim"
	"qgov/internal/workload"
	"qgov/internal/xrand"
)

func assertAllocs(t *testing.T, name string, max float64, f func()) {
	t.Helper()
	if got := testing.AllocsPerRun(200, f); got > max {
		t.Errorf("%s: %.2f allocs/op, want <= %v", name, got, max)
	}
}

func TestQTableUpdateAllocFree(t *testing.T) {
	q := core.NewQTable(25, 19, -1)
	rng := xrand.New(1)
	assertAllocs(t, "QTable.Update", 0, func() {
		s, a, ns := rng.Intn(25), rng.Intn(19), rng.Intn(25)
		q.Update(s, a, -0.3, ns, 0.4, 0.9)
	})
}

func TestEPDSampleAllocFree(t *testing.T) {
	p := core.NewExponentialPolicy()
	rng := xrand.New(1)
	nf := platform.A15Table().NormFreqs()
	for _, slack := range []float64{-0.4, 0, 0.3} {
		assertAllocs(t, "ExponentialPolicy.Sample", 0, func() {
			p.Sample(rng, 19, slack, nf)
		})
	}
}

func TestEWMAObserveAllocFree(t *testing.T) {
	e := predictor.NewEWMA(0.6)
	i := 0
	assertAllocs(t, "EWMA.Observe", 0, func() {
		e.Observe(float64(30e6 + i%1000))
		i++
	})
}

func TestPowerModelAllocFree(t *testing.T) {
	m := platform.DefaultA15PowerModel()
	opp := platform.A15Table()[12]
	assertAllocs(t, "PowerModel.ClusterPowerW", 0, func() {
		_ = m.ClusterPowerW(opp, 4, 55)
	})
}

func TestClusterEpochAllocFree(t *testing.T) {
	c := platform.DefaultA15Cluster(1)
	c.SetOPP(10)
	cycles := []uint64{30e6, 31e6, 29e6, 30e6}
	assertAllocs(t, "Cluster.Execute", 0, func() {
		c.Execute(cycles, 120e-6, 0.040)
	})
}

// assertDecideAllocFree counts heap allocations over 10k steady-state
// decides after a 2k-epoch warm-up and requires none. It reads the
// runtime's malloc counter directly: testing.AllocsPerRun divides by the
// run count in integers, so an amortised append (one allocation every
// few hundred decides) would read as zero there.
func assertDecideAllocFree(t *testing.T, g governor.Governor) {
	t.Helper()
	l := newSteadyLoop(g, 2000)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < 10_000; i++ {
		l.step()
	}
	runtime.ReadMemStats(&after)
	if n := after.Mallocs - before.Mallocs; n != 0 {
		t.Errorf("%s.Decide: %d allocations over 10000 steady-state decides, want 0", g.Name(), n)
	}
}

func TestRTMDecideAllocFree(t *testing.T) {
	assertDecideAllocFree(t, core.New(core.DefaultConfig()))
}

func TestMLDTMDecideAllocFree(t *testing.T) {
	assertDecideAllocFree(t, governor.NewMLDTM())
}

// A full closed-loop run may allocate only per-run setup (governor,
// cluster, observation buffers), never per frame. The bounds are ~2× the
// measured setup cost; a single allocation inside the 1000-frame loop
// adds 1000 and fails loudly.
func TestSimRunAllocsAreSetupOnly(t *testing.T) {
	tr := workload.MPEG4At30(1, 1000)

	if got := testing.AllocsPerRun(3, func() {
		sim.Run(sim.Config{Trace: tr, Governor: governor.NewPerformance(), Seed: 1})
	}); got > 80 {
		t.Errorf("performance run: %.0f allocs for 1000 frames, want setup-only (<= 80)", got)
	}

	if got := testing.AllocsPerRun(3, func() {
		rtm := core.New(core.DefaultConfig())
		if err := rtm.Calibrate(tr.MaxPerFrame()); err != nil {
			t.Fatal(err)
		}
		sim.Run(sim.Config{Trace: tr, Governor: rtm, Seed: 1})
	}); got > 300 {
		t.Errorf("rtm run: %.0f allocs for 1000 frames, want setup-only (<= 300)", got)
	}
}
