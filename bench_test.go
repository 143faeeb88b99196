package qgov_test

// One benchmark per table and figure of the paper's evaluation — each
// regenerates its experiment and prints the rows the paper reports — plus
// micro-benchmarks for the hot paths (Q update, EPD sampling, EWMA, the
// power model, the RTM and ML-DTM decides, a full simulated epoch, the FFT
// kernel).
//
//	go test -bench=. -benchmem
//
// The experiment benchmarks run at a reduced-but-faithful scale (one seed)
// so a full -bench pass stays in minutes; cmd/experiments runs the
// paper-scale versions.

import (
	"fmt"
	"io"
	"os"
	"sync"
	"testing"

	"qgov/internal/core"
	"qgov/internal/experiments"
	"qgov/internal/fft"
	"qgov/internal/governor"
	"qgov/internal/platform"
	"qgov/internal/predictor"
	"qgov/internal/sim"
	"qgov/internal/workload"
	"qgov/internal/xrand"
)

// benchSeeds trades runtime for stability: single-seed learning results
// sit inside seed noise (convergence epochs especially), so the rendered
// tables use three seeds; cmd/experiments runs the full five.
var benchSeeds = experiments.DefaultSeeds[:3]

// renderOnce prints each experiment's table a single time per `go test`
// invocation, however many times the benchmark harness re-runs b.N loops.
var renderOnce sync.Map

func printOnce(key string, render func(w io.Writer) error) {
	if _, loaded := renderOnce.LoadOrStore(key, true); loaded {
		return
	}
	fmt.Println()
	if err := render(os.Stdout); err != nil {
		panic(err)
	}
	fmt.Println()
}

// BenchmarkTableI regenerates Table I: normalised energy and performance
// of ondemand, ML-DTM and the proposed RTM against the Oracle on the
// H.264 football decode.
func BenchmarkTableI(b *testing.B) {
	var res *experiments.TableIResult
	for i := 0; i < b.N; i++ {
		res = experiments.TableI(benchSeeds, 2000)
	}
	printOnce("table1", res.Render)
}

// BenchmarkTableII regenerates Table II: the number of explorations under
// uniform (ref [21]) versus exponential (proposed) action selection.
func BenchmarkTableII(b *testing.B) {
	var res *experiments.TableIIResult
	for i := 0; i < b.N; i++ {
		res = experiments.TableII(benchSeeds, 1000)
	}
	printOnce("table2", res.Render)
}

// BenchmarkTableIII regenerates Table III: learning overhead in decision
// epochs of the per-core ML-DTM versus the shared-table RTM.
func BenchmarkTableIII(b *testing.B) {
	var res *experiments.TableIIIResult
	for i := 0; i < b.N; i++ {
		res = experiments.TableIII(benchSeeds, 2500)
	}
	printOnce("table3", res.Render)
}

// BenchmarkFig3 regenerates Fig. 3: the predicted-vs-actual workload
// series and the average slack of the MPEG4 decode.
func BenchmarkFig3(b *testing.B) {
	var res *experiments.Fig3Result
	for i := 0; i < b.N; i++ {
		res = experiments.Fig3(benchSeeds[0], 240)
	}
	printOnce("fig3", res.Render)
}

// BenchmarkAblationEPD sweeps the EPD sharpness β (A1).
func BenchmarkAblationEPD(b *testing.B) {
	var pts []experiments.EPDBetaPoint
	for i := 0; i < b.N; i++ {
		pts = experiments.AblationEPD(benchSeeds, 700)
	}
	printOnce("a1", func(w io.Writer) error {
		fmt.Fprintln(w, "Ablation A1 — EPD sharpness β")
		for _, p := range pts {
			fmt.Fprintf(w, "  β=%-4.0f explorations=%-4.0f miss=%.1f%%\n",
				p.Beta, p.Explorations, p.MissRate*100)
		}
		return nil
	})
}

// BenchmarkAblationN sweeps the discretisation N (A2).
func BenchmarkAblationN(b *testing.B) {
	var pts []experiments.NLevelPoint
	for i := 0; i < b.N; i++ {
		pts = experiments.AblationN(benchSeeds, 900)
	}
	printOnce("a2", func(w io.Writer) error {
		fmt.Fprintln(w, "Ablation A2 — discretisation levels N")
		for _, p := range pts {
			fmt.Fprintf(w, "  N=%d energy=%.3f perf=%.3f miss=%.1f%%\n",
				p.Levels, p.NormEnergy, p.NormPerf, p.MissRate*100)
		}
		return nil
	})
}

// BenchmarkAblationGamma sweeps the EWMA smoothing factor (A3).
func BenchmarkAblationGamma(b *testing.B) {
	var pts []experiments.GammaPoint
	for i := 0; i < b.N; i++ {
		pts = experiments.AblationGamma(benchSeeds, 600)
	}
	printOnce("a3", func(w io.Writer) error {
		fmt.Fprintln(w, "Ablation A3 — EWMA smoothing factor γ")
		for _, p := range pts {
			fmt.Fprintf(w, "  γ=%.1f mispredict=%.2f%%\n", p.Gamma, p.Mispredict*100)
		}
		return nil
	})
}

// BenchmarkAblationShared compares the shared and per-core Q-table
// organisations (A4).
func BenchmarkAblationShared(b *testing.B) {
	var pts []experiments.SharedPoint
	for i := 0; i < b.N; i++ {
		pts = experiments.AblationShared(benchSeeds, 1800)
	}
	printOnce("a4", func(w io.Writer) error {
		fmt.Fprintln(w, "Ablation A4 — shared vs per-core Q-tables")
		for _, p := range pts {
			fmt.Fprintf(w, "  %-9s converged=%-5.0f qos=%-5.0f energy=%.3f miss=%.1f%%\n",
				p.Mode, p.ConvergedAt, p.TimeToQoS, p.NormEnergy, p.MissRate*100)
		}
		return nil
	})
}

// BenchmarkAblationUpdateRule compares Q-learning and SARSA (A6).
func BenchmarkAblationUpdateRule(b *testing.B) {
	var pts []experiments.UpdateRulePoint
	for i := 0; i < b.N; i++ {
		pts = experiments.AblationUpdateRule(benchSeeds, 1000)
	}
	printOnce("a6", func(w io.Writer) error {
		fmt.Fprintln(w, "Ablation A6 — temporal-difference update rule")
		for _, p := range pts {
			fmt.Fprintf(w, "  %-10s energy=%.3f perf=%.3f miss=%.1f%%\n",
				p.Rule, p.NormEnergy, p.NormPerf, p.MissRate*100)
		}
		return nil
	})
}

// BenchmarkAblationMemBound sweeps the memory-bound fraction (A7).
func BenchmarkAblationMemBound(b *testing.B) {
	var pts []experiments.MemBoundPoint
	for i := 0; i < b.N; i++ {
		pts = experiments.AblationMemBound(benchSeeds, 1200)
	}
	printOnce("a7", func(w io.Writer) error {
		fmt.Fprintln(w, "Ablation A7 — memory-bound fraction (DVFS leverage)")
		for _, p := range pts {
			fmt.Fprintf(w, "  m=%.1f saving=%.1f%% perf=%.2f\n",
				p.MemFrac, p.SavingVsOndemand*100, p.RTMPerf)
		}
		return nil
	})
}

// BenchmarkMultiApp runs the multi-application extension (E1).
func BenchmarkMultiApp(b *testing.B) {
	var res *experiments.MultiAppResult
	for i := 0; i < b.N; i++ {
		res = experiments.MultiApp(benchSeeds, 800)
	}
	printOnce("e1", res.Render)
}

// --- micro-benchmarks -----------------------------------------------------

// BenchmarkQTableUpdate measures one Bellman update on the paper-sized
// table (25 states x 19 actions).
func BenchmarkQTableUpdate(b *testing.B) {
	q := core.NewQTable(25, 19, -1)
	rng := xrand.New(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, a, ns := rng.Intn(25), rng.Intn(19), rng.Intn(25)
		q.Update(s, a, -0.3, ns, 0.4, 0.9)
	}
}

// BenchmarkEPDSample measures one Eq. 2 draw over the 19-point ladder.
func BenchmarkEPDSample(b *testing.B) {
	p := core.NewExponentialPolicy()
	rng := xrand.New(1)
	nf := platform.A15Table().NormFreqs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Sample(rng, 19, 0.2, nf)
	}
}

// BenchmarkEWMA measures one Eq. 1 observation.
func BenchmarkEWMA(b *testing.B) {
	e := predictor.NewEWMA(0.6)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Observe(float64(30e6 + i%1000))
	}
}

// BenchmarkPowerModel measures one cluster power evaluation.
func BenchmarkPowerModel(b *testing.B) {
	m := platform.DefaultA15PowerModel()
	opp := platform.A15Table()[12]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = m.ClusterPowerW(opp, 4, 55)
	}
}

// BenchmarkClusterEpoch measures one full platform epoch: execution,
// energy integration, thermal step, sensor sampling, PMU accounting.
func BenchmarkClusterEpoch(b *testing.B) {
	c := platform.DefaultA15Cluster(1)
	c.SetOPP(10)
	cycles := []uint64{30e6, 31e6, 29e6, 30e6}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Execute(cycles, 120e-6, 0.040)
	}
}

// BenchmarkSimEpoch measures the full closed loop per decision epoch:
// governor decision, DVFS, execution, observation assembly.
func BenchmarkSimEpoch(b *testing.B) {
	trace := workload.MPEG4At30(1, 2000)
	b.ResetTimer()
	frames := 0
	for i := 0; i < b.N; i += trace.Len() {
		rtm := core.New(core.DefaultConfig())
		if err := rtm.Calibrate(trace.MaxPerFrame()); err != nil {
			b.Fatal(err)
		}
		res := sim.Run(sim.Config{Trace: trace, Governor: rtm, Seed: 1})
		frames += res.Frames
	}
	b.ReportMetric(float64(frames)/float64(b.N), "frames/op")
}

// steadyLoop drives a learning governor closed-loop on the A15 table
// against a noisy demand of 24–31 Mcycles per core per 40 ms frame,
// reusing one observation, so a step costs the decide and a few
// arithmetic operations. Tables are private (no page pool): the loop
// measures the learner, not copy-on-write faults.
type steadyLoop struct {
	g     governor.Governor
	table platform.OPPTable
	rng   *xrand.Rand
	obs   governor.Observation
	idx   int
}

// newSteadyLoop resets g and runs warmup decides.
func newSteadyLoop(g governor.Governor, warmup int) *steadyLoop {
	table := platform.A15Table()
	g.Reset(governor.Context{Table: table, NumCores: 4, NormFreq: table.NormFreqs(), PeriodS: 0.040, Seed: 1})
	l := &steadyLoop{
		g: g, table: table, rng: xrand.New(1),
		obs: governor.Observation{Cycles: make([]uint64, 4), Util: make([]float64, 4), PeriodS: 0.040, PowerW: 2, TempC: 50},
	}
	l.idx = g.Decide(governor.Observation{Epoch: -1})
	for i := 0; i < warmup; i++ {
		l.step()
	}
	return l
}

// step feeds the epoch that ran at the last chosen point and decides the
// next.
func (l *steadyLoop) step() {
	demand := 24e6 * (1 + 0.3*l.rng.Float64())
	exec := demand / l.table[l.idx].FreqHz()
	for c := range l.obs.Cycles {
		l.obs.Cycles[c] = uint64(demand)
		l.obs.Util[c] = min(exec/l.obs.PeriodS, 1)
	}
	l.obs.ExecTimeS = exec
	l.obs.WallTimeS = max(exec, l.obs.PeriodS)
	l.obs.OPPIdx = l.idx
	l.idx = l.g.Decide(l.obs)
	l.obs.Epoch++
}

// benchDecide measures one steady-state decide after a 2k-epoch warm-up.
func benchDecide(b *testing.B, g governor.Governor) {
	l := newSteadyLoop(g, 2000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.step()
	}
}

// BenchmarkRTMDecide measures the RTM.Decide layer of the serving decide
// path: pay-off, Q update, convergence tracking and action choice.
func BenchmarkRTMDecide(b *testing.B) { benchDecide(b, core.New(core.DefaultConfig())) }

// BenchmarkMLDTMDecide measures the ML-DTM baseline's decide: four
// per-core Q updates, convergence tracking and the per-core votes.
func BenchmarkMLDTMDecide(b *testing.B) { benchDecide(b, governor.NewMLDTM()) }

// BenchmarkOndemandDecision measures the baseline governor's decision.
func BenchmarkOndemandDecision(b *testing.B) {
	g := governor.NewOndemand()
	g.Reset(governor.Context{Table: platform.A15Table(), NumCores: 4, PeriodS: 0.040, Seed: 1})
	obs := governor.Observation{
		Epoch: 1, Util: []float64{0.6, 0.5, 0.7, 0.6},
		Cycles: []uint64{20e6, 18e6, 22e6, 20e6}, ExecTimeS: 0.025,
		PeriodS: 0.040, WallTimeS: 0.040, PowerW: 2, TempC: 50, OPPIdx: 10,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		obs.Epoch = i
		g.Decide(obs)
	}
}

// BenchmarkFFT64K measures the kernel that grounds the FFT application's
// cycle model.
func BenchmarkFFT64K(b *testing.B) {
	x := make([]complex128, 1<<16)
	rng := xrand.New(1)
	for i := range x {
		x[i] = complex(rng.NormFloat64(), 0)
	}
	buf := make([]complex128, len(x))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(buf, x)
		if _, err := fft.Transform(buf); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStreamSweep measures the streaming sweep engine end to end:
// jobs flowing through the worker pool into the online aggregator, the
// shape of every large design-space exploration.
func BenchmarkStreamSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		jobs := make(chan sim.Job)
		go func() {
			defer close(jobs)
			for j := 0; j < 32; j++ {
				jobs <- sim.Job{Name: "bench", Build: func() sim.Config {
					return sim.Config{
						Trace:    workload.Constant("bench", 25, 50, 4, 30e6),
						Governor: governor.NewOndemand(),
						Seed:     1,
					}
				}}
			}
		}()
		var agg sim.Aggregator
		for ir := range sim.Stream(jobs, 0) {
			agg.Add(ir.Result)
		}
		if agg.Count() != 32 {
			b.Fatal("lost runs")
		}
	}
}

// BenchmarkTraceGeneration measures building the 3000-frame football trace.
func BenchmarkTraceGeneration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tr := workload.FootballH264(int64(i))
		if tr.Len() != 3000 {
			b.Fatal("bad trace")
		}
	}
}
