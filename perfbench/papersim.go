package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"qgov/internal/governor"
	"qgov/internal/scenario"
	"qgov/internal/sim"
	"qgov/internal/workload"
)

// The paper-sim workload: Table I's four methods over every registered
// workload on the paper's a15 platform and three seeds, one job at a
// time on one goroutine, through scenario.Scenario.Config and sim.Run.
// It drives no serving layer.
const (
	paperFrames = 3000
	paperSeeds  = 3
)

var paperMethods = []string{"oracle", "ondemand", "mldtm", "rtm"}

type paperJob struct {
	sc   scenario.Scenario
	seed int64
}

func paperJobs(seed int64) []paperJob {
	var jobs []paperJob
	for _, w := range workload.Names() {
		for k := int64(0); k < paperSeeds; k++ {
			for _, m := range paperMethods {
				jobs = append(jobs, paperJob{
					sc:   scenario.Scenario{Governor: m, Workload: w, Platform: "a15"},
					seed: seed*10 + k,
				})
			}
		}
	}
	return jobs
}

func (j paperJob) config() (sim.Config, error) {
	cfg, err := j.sc.Config(j.seed, paperFrames)
	if err != nil {
		return sim.Config{}, fmt.Errorf("building %s@%d: %w", j.sc.Name(), j.seed, err)
	}
	return cfg, nil
}

// sameResult compares every aggregate of two runs bit for bit.
func sameResult(a, b *sim.Result) bool {
	fa := []float64{a.EnergyJ, a.SensorEnergyJ, a.MeanPowerW, a.SimTimeS, a.NormPerf, a.MissRate, a.FinalTempC}
	fb := []float64{b.EnergyJ, b.SensorEnergyJ, b.MeanPowerW, b.SimTimeS, b.NormPerf, b.MissRate, b.FinalTempC}
	for i := range fa {
		if math.Float64bits(fa[i]) != math.Float64bits(fb[i]) {
			return false
		}
	}
	return a.Frames == b.Frames && a.Misses == b.Misses && a.Transitions == b.Transitions &&
		a.Explorations == b.Explorations && a.ExplorationsToConv == b.ExplorationsToConv &&
		a.ConvergedAt == b.ConvergedAt
}

// simAcc accumulates the traced sim pass: time and calls per layer.
type simAcc struct {
	stepNS, steps float64
	decideNS      map[string]float64 // by method
	decides       map[string]float64
}

func newSimAcc() *simAcc {
	return &simAcc{decideNS: map[string]float64{}, decides: map[string]float64{}}
}

func (a *simAcc) meanDecideNS(method string) float64 {
	return ratio(a.decideNS[method], a.decides[method])
}

// driveTraced runs a session to completion the way sim.Run does, timing
// every Decide and Step into acc and recording them as spans under
// parent. rec, when non-nil, sees each observation and the decision made
// on it.
func driveTraced(s *sim.Session, method string, acc *simAcc, sb *spanBuf, parent, round uint64,
	rec func(obs governor.Observation, opp int)) {
	decideName := method + ".Decide"
	t0 := sb.now()
	for !s.Done() {
		obs := s.Observe()
		idx := s.Decide()
		t1 := sb.now()
		if rec != nil {
			rec(obs, idx) // before Step, which reuses obs's slices
		}
		t2 := sb.now()
		s.Step(idx)
		t3 := sb.now()
		acc.decideNS[method] += float64(t1 - t0)
		acc.decides[method]++
		acc.stepNS += float64(t3 - t2)
		acc.steps++
		sb.add(decideName, parent, round, t0, t1)
		sb.add("sim.Step", parent, round, t2, t3)
		t0 = sb.now()
	}
}

// driveUntraced is driveTraced without the clock.
func driveUntraced(s *sim.Session, rec func(obs governor.Observation, opp int)) {
	for !s.Done() {
		obs := s.Observe()
		idx := s.Decide()
		if rec != nil {
			rec(obs, idx)
		}
		s.Step(idx)
	}
}

func runPaperSim(opt options) (*run, error) {
	jobs := paperJobs(opt.seed)
	n := len(jobs)
	r := &run{vals: map[string]float64{}}
	ref := make([]*sim.Result, n)
	check := func(i int, res *sim.Result, how string) {
		if ref[i] == nil {
			ref[i] = res
			return
		}
		if !sameResult(ref[i], res) {
			r.fail("%s %s@%d: result differs from the first sim.Run", how, jobs[i].sc.Name(), jobs[i].seed)
		}
	}

	var (
		roundConfig []float64  // Scenario.Config CPU seconds per round
		roundWall   []float64  // and wall seconds
		frames      [2]float64 // untraced, traced
		runCPU      [2]float64
		ms0, ms1    runtime.MemStats
		allocB      float64
		gcN, gcS    float64
	)
	acc := newSimAcc()
	var sb *spanBuf
	if opt.trace {
		r.spans = newSpanLog()
		sb = r.spans.buf()
	}

	deadline := time.Now().Add(time.Duration(opt.seconds * float64(time.Second)))
	// Trace mode alternates untraced and traced rounds; it needs at least
	// one of each. Either mode finishes the round in progress at the
	// deadline, so every round measures the same job mix.
	minRounds := 1
	if opt.trace {
		minRounds = 2
	}
	for round := 0; round < minRounds || time.Now().Before(deadline); round++ {
		traced := opt.trace && round%2 == 1
		var rsb *spanBuf
		if traced {
			rsb = sb
		}
		var cfgCPU, cfgWall float64
		roundID, roundStart := rsb.id(), rsb.now()
		for i, j := range jobs {
			jobID, jobStart := rsb.id(), rsb.now()
			c0, w0 := cpuSeconds(), time.Now()
			cfg, err := j.config()
			if err != nil {
				return nil, err
			}
			c1 := cpuSeconds()
			cfgCPU += c1 - c0
			cfgWall += time.Since(w0).Seconds()
			var res *sim.Result
			if !traced {
				res = sim.Run(cfg)
				runCPU[0] += cpuSeconds() - c1
				frames[0] += float64(res.Frames)
			} else {
				rsb.add("scenario.Config", jobID, uint64(round), jobStart, rsb.now())
				runtime.ReadMemStats(&ms0)
				c2 := cpuSeconds()
				s := sim.NewSession(cfg)
				driveTraced(s, j.sc.Governor, acc, rsb, jobID, uint64(round), nil)
				res = s.Result()
				runCPU[1] += cpuSeconds() - c2
				runtime.ReadMemStats(&ms1)
				frames[1] += float64(res.Frames)
				allocB += float64(ms1.TotalAlloc - ms0.TotalAlloc)
				gcN += float64(ms1.NumGC - ms0.NumGC)
				gcS += float64(ms1.PauseTotalNs-ms0.PauseTotalNs) / 1e9
				rsb.put(jobID, roundID, uint64(round), "paper.job", jobStart, rsb.now())
			}
			r.attempted++
			if traced {
				check(i, res, "step-driven traced run")
			} else {
				check(i, res, "sim.Run")
			}
		}
		roundConfig = append(roundConfig, cfgCPU)
		roundWall = append(roundWall, cfgWall)
		rsb.put(roundID, 0, uint64(round), "paper.round", roundStart, rsb.now())
	}

	if !opt.trace {
		// The step-driven gate runs every time: drive each job through
		// sim.Session outside the timed phase and compare with sim.Run.
		for i, j := range jobs {
			cfg, err := j.config()
			if err != nil {
				return nil, err
			}
			s := sim.NewSession(cfg)
			driveUntraced(s, nil)
			r.attempted++
			check(i, s.Result(), "step-driven run")
		}
	}

	var energy, miss, rtmN, rtmFrames, expl, conv, convN float64
	for i, j := range jobs {
		if j.sc.Governor != "rtm" {
			continue
		}
		oracle := ref[i-3] // jobs are ordered oracle, ondemand, mldtm, rtm
		energy += ref[i].EnergyJ / oracle.EnergyJ
		miss += ref[i].MissRate
		rtmN++
		rtmFrames += float64(ref[i].Frames)
		expl += float64(ref[i].Explorations)
		if ref[i].ConvergedAt >= 0 {
			conv += float64(ref[i].ConvergedAt)
			convN++
		}
	}

	v := r.vals
	if !opt.trace {
		live, err := paperLiveBytes(jobs)
		if err != nil {
			return nil, err
		}
		v["setup_s"] = quantile(roundConfig, 0.5)
		v["decides_per_cpu_s"] = frames[0] / runCPU[0]
		v["rtm_norm_energy"] = energy / rtmN
		v["rtm_miss_pct"] = 100 * miss / rtmN
		v["live_bytes_per_session"] = live
		return r, nil
	}
	v["sim.step_ns"] = ratio(acc.stepNS, acc.steps)
	v["core.rtm_decide_ns"] = acc.meanDecideNS("rtm")
	v["governor.mldtm_decide_ns"] = acc.meanDecideNS("mldtm")
	v["governor.ondemand_decide_ns"] = acc.meanDecideNS("ondemand")
	v["governor.oracle_decide_ns"] = acc.meanDecideNS("oracle")
	v["scenario.config_s"] = quantile(roundWall, 0.5)
	v["core.explorations_per_kepoch"] = 1000 * expl / rtmFrames
	v["core.converged_epoch_mean"] = ratio(conv, convN)
	v["runtime.alloc_bytes_per_decide"] = ratio(allocB, frames[1])
	v["runtime.gc_cycles"] = gcN
	v["runtime.gc_pause_s"] = gcS
	v["trace.overhead_pct"] = overheadPct(frames[0]/runCPU[0], frames[1]/runCPU[1])
	return r, nil
}

// paperLiveBytes materialises every job as a sim.Session at once and
// reports the live heap each one holds: the forced-GC heap with all of
// them reachable, minus the heap after dropping them, per session.
func paperLiveBytes(jobs []paperJob) (float64, error) {
	sessions := make([]*sim.Session, len(jobs))
	for i, j := range jobs {
		cfg, err := j.config()
		if err != nil {
			return 0, err
		}
		sessions[i] = sim.NewSession(cfg)
	}
	full := liveHeap()
	for i := range sessions {
		sessions[i] = nil
	}
	empty := liveHeap()
	runtime.KeepAlive(sessions)
	return (full - empty) / float64(len(jobs)), nil
}

// liveHeap is the heap still reachable after two forced collections (the
// second clears what sync.Pool victim caches kept through the first).
func liveHeap() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc)
}
