package main

import (
	"fmt"
	"math"
	"strconv"
	"sync"
	"time"

	"qgov/internal/governor"
	"qgov/internal/scenario"
	"qgov/internal/sim"
)

// stream is one device's recorded observation stream: what an
// in-process twin — an rtm governor built and calibrated the same way
// as a served session — observed and decided at every epoch of a
// sim.Session. Replaying the observations to a served session must
// reproduce the twin's decision at every epoch. The arrays are
// pointer-free, so the garbage collector never scans them.
type stream struct {
	seed    int64
	periodS float64
	ccMin   float64
	ccMax   float64
	n       int // epochs
	cores   int
	scal    []obsScalars
	cycles  []uint64 // cores entries per epoch, of which scal[t].lanes are used
	util    []float64
	opp     []int32

	// The twin's and the Oracle's run over the whole stream.
	energyJ, oracleEnergyJ, missRate float64
	explorations, convergedAt        int
}

type obsScalars struct {
	epoch                                int64
	execS, periodS, wallS, powerW, tempC float64
	oppIdx                               int64
	lanes                                int32
}

// observation points o at epoch t's recorded observation; the slices
// alias the stream, which only the encoder reads.
func (s *stream) observation(t int, o *governor.Observation) {
	sc := &s.scal[t]
	base := t * s.cores
	o.Epoch = int(sc.epoch)
	o.Cycles = s.cycles[base : base+int(sc.lanes) : base+int(sc.lanes)]
	o.Util = s.util[base : base+int(sc.lanes) : base+int(sc.lanes)]
	o.ExecTimeS, o.PeriodS, o.WallTimeS = sc.execS, sc.periodS, sc.wallS
	o.PowerW, o.TempC, o.OPPIdx = sc.powerW, sc.tempC, int(sc.oppIdx)
}

// createBody is the session create request for this stream, under id:
// the same governor, platform, period, seed and calibration range the
// twin was built with.
func (s *stream) createBody(dst []byte, id string) []byte {
	dst = append(dst, `{"id":`...)
	dst = strconv.AppendQuote(dst, id)
	dst = append(dst, `,"governor":"rtm","platform":"a15","period_s":`...)
	dst = strconv.AppendFloat(dst, s.periodS, 'g', -1, 64)
	dst = append(dst, `,"seed":`...)
	dst = strconv.AppendInt(dst, s.seed, 10)
	dst = append(dst, `,"calibration_cc":[`...)
	dst = strconv.AppendFloat(dst, s.ccMin, 'g', -1, 64)
	dst = append(dst, ',')
	dst = strconv.AppendFloat(dst, s.ccMax, 'g', -1, 64)
	return append(dst, "]}"...)
}

type streamSpec struct {
	workload string
	seed     int64
}

// recording is the outcome of recordStreams, with the traced
// measurements of the twins when a span buffer was supplied.
type recording struct {
	streams []*stream
	acc     *simAcc
	configS float64
}

// recordStreams records one stream of the given length per spec, on two
// goroutines. With traced set, every twin and Oracle epoch is timed.
func recordStreams(specs []streamSpec, frames int, log *spanLog) (*recording, error) {
	const workers = 2
	out := make([]*stream, len(specs))
	accs := make([]*simAcc, workers)
	cfgS := make([]float64, workers)
	errs := make([]error, workers)
	bufs := make([]*spanBuf, workers)
	if log != nil {
		for w := range bufs {
			bufs[w] = log.buf()
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		accs[w] = newSimAcc()
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(specs); i += workers {
				s, d, err := recordOne(specs[i], frames, accs[w], bufs[w], uint64(i))
				if err != nil {
					errs[w] = err
					return
				}
				out[i] = s
				cfgS[w] += d
			}
		}(w)
	}
	wg.Wait()
	rec := &recording{streams: out, acc: newSimAcc()}
	for w := 0; w < workers; w++ {
		if errs[w] != nil {
			return nil, errs[w]
		}
		rec.configS += cfgS[w]
		a := accs[w]
		rec.acc.stepNS += a.stepNS
		rec.acc.steps += a.steps
		for k, v := range a.decideNS {
			rec.acc.decideNS[k] += v
			rec.acc.decides[k] += a.decides[k]
		}
	}
	return rec, nil
}

// recordOne runs the twin and the Oracle over one spec's trace and
// returns the stream and the seconds spent in Scenario.Config.
func recordOne(sp streamSpec, frames int, acc *simAcc, sb *spanBuf, round uint64) (*stream, float64, error) {
	t0 := time.Now()
	cfg, err := scenario.Scenario{Governor: "rtm", Workload: sp.workload, Platform: "a15"}.Config(sp.seed, frames)
	if err != nil {
		return nil, 0, err
	}
	ocfg, err := scenario.Scenario{Governor: "oracle", Workload: sp.workload, Platform: "a15"}.Config(sp.seed, frames)
	if err != nil {
		return nil, 0, err
	}
	configS := time.Since(t0).Seconds()
	if cfg.Trace.Len() != frames {
		return nil, 0, fmt.Errorf("workload %s yields %d frames, the stream needs %d", sp.workload, cfg.Trace.Len(), frames)
	}
	cc := cfg.Trace.MaxPerFrame()
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, c := range cc {
		lo, hi = math.Min(lo, c), math.Max(hi, c)
	}
	cores := cfg.Cluster.NumCores()
	s := &stream{
		seed:    sp.seed,
		periodS: cfg.Trace.RefTimeS,
		ccMin:   lo,
		ccMax:   hi,
		n:       frames,
		cores:   cores,
		scal:    make([]obsScalars, frames),
		cycles:  make([]uint64, frames*cores),
		util:    make([]float64, frames*cores),
		opp:     make([]int32, frames),
	}
	t := 0
	rec := func(obs governor.Observation, opp int) {
		if len(obs.Cycles) > cores || len(obs.Util) != len(obs.Cycles) {
			panic(fmt.Sprintf("perfbench: observation of %d cycles and %d utils on %d cores", len(obs.Cycles), len(obs.Util), cores))
		}
		s.scal[t] = obsScalars{
			epoch: int64(obs.Epoch), execS: obs.ExecTimeS, periodS: obs.PeriodS, wallS: obs.WallTimeS,
			powerW: obs.PowerW, tempC: obs.TempC, oppIdx: int64(obs.OPPIdx), lanes: int32(len(obs.Cycles)),
		}
		copy(s.cycles[t*cores:], obs.Cycles)
		copy(s.util[t*cores:], obs.Util)
		s.opp[t] = int32(opp)
		t++
	}
	twin, oracle := sim.NewSession(cfg), sim.NewSession(ocfg)
	if sb != nil {
		id := sb.id()
		start := sb.now()
		driveTraced(twin, "rtm", acc, sb, id, round, rec)
		driveTraced(oracle, "oracle", acc, sb, id, round, nil)
		sb.put(id, 0, round, "record.stream", start, sb.now())
	} else {
		driveUntraced(twin, rec)
		driveUntraced(oracle, nil)
	}
	tr, or := twin.Result(), oracle.Result()
	s.energyJ, s.oracleEnergyJ, s.missRate = tr.EnergyJ, or.EnergyJ, tr.MissRate
	s.explorations, s.convergedAt = tr.Explorations, tr.ConvergedAt
	return s, configS, nil
}

// recordingMetrics fills the metrics the recording determines: the
// quality of the decisions the served fleet is checked to reproduce, and
// in trace mode the twins' per-layer timings.
func (rec *recording) metrics(v map[string]float64, traced bool) {
	var energy, miss, expl, frames, conv, convN float64
	for _, s := range rec.streams {
		energy += s.energyJ / s.oracleEnergyJ
		miss += s.missRate
		expl += float64(s.explorations)
		frames += float64(s.n)
		if s.convergedAt >= 0 {
			conv += float64(s.convergedAt)
			convN++
		}
	}
	n := float64(len(rec.streams))
	if !traced {
		v["rtm_norm_energy"] = energy / n
		v["rtm_miss_pct"] = 100 * miss / n
		return
	}
	v["sim.step_ns"] = ratio(rec.acc.stepNS, rec.acc.steps)
	v["core.rtm_decide_ns"] = rec.acc.meanDecideNS("rtm")
	v["governor.oracle_decide_ns"] = rec.acc.meanDecideNS("oracle")
	v["scenario.config_s"] = rec.configS
	v["core.explorations_per_kepoch"] = 1000 * expl / frames
	v["core.converged_epoch_mean"] = ratio(conv, convN)
}
