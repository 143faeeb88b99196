package main

import (
	"math"
	"time"

	"qgov/internal/core"
	"qgov/internal/governor"
	"qgov/internal/qpage"
	"qgov/internal/scenario"
	"qgov/internal/wire"
)

// layerReplays replays the recorded streams, outside the timed phase,
// through two layers of the decide path on their own: in-process rtm
// governors built the way a server builds a session (core.rtm_replay_ns)
// and the wire codec (wire.observe_codec_ns, wire.decide_codec_ns).
// Each replayed decision and decoded frame is checked too.
func layerReplays(r *run, streams []*stream, epochs int) error {
	plat, err := scenario.PlatformByName("a15")
	if err != nil {
		return err
	}
	cluster := plat.NewCluster(0)
	table := cluster.Table()
	norm := table.NormFreqs()
	pool := qpage.NewPool()
	var o governor.Observation
	got := make([]int32, epochs)

	var replayNS, replays float64
	for i, s := range streams {
		n := min(epochs, s.n)
		g, err := governor.ByName("rtm")
		if err != nil {
			return err
		}
		rtm := g.(*core.RTM)
		if err := rtm.Calibrate([]float64{s.ccMin, s.ccMax}); err != nil {
			return err
		}
		rtm.Reset(governor.Context{Table: table, NumCores: cluster.NumCores(), NormFreq: norm,
			PeriodS: s.periodS, Seed: s.seed, QPool: pool})
		t0 := time.Now()
		for t := 0; t < n; t++ {
			s.observation(t, &o)
			got[t] = int32(rtm.Decide(o))
		}
		replayNS += float64(time.Since(t0))
		replays += float64(n)
		rtm.ReleaseState()
		r.attempted += int64(n)
		for t := 0; t < n; t++ {
			if got[t] != s.opp[t] {
				r.fail("rtm replay of stream %d epoch %d chose %d, twin chose %d", i, t, got[t], s.opp[t])
				break
			}
		}
	}
	r.vals["core.rtm_replay_ns"] = ratio(replayNS, replays)

	const session = "device-000000"
	var (
		buf      []byte
		m        wire.Observe
		dm       wire.Decide
		obsNS    float64
		decideNS float64
		frames   float64
	)
	// Timed passes first, then the same frames again with every field
	// checked, so the checks stay out of the timing.
	for pass := 0; pass < 2; pass++ {
		check := pass == 1
		for _, s := range streams {
			n := min(epochs, s.n)
			t0 := time.Now()
			for t := 0; t < n; t++ {
				s.observation(t, &o)
				if buf, err = wire.AppendObserve(buf[:0], uint32(t), session, &o); err != nil {
					return err
				}
				_, payload, _, err := wire.DecodeFrame(buf)
				if err != nil {
					return err
				}
				if err := m.Decode(payload); err != nil {
					return err
				}
				if check {
					r.attempted++
					if string(m.Session) != session || m.ID != uint32(t) || !sameObservation(&m.Obs, &o) {
						r.fail("observe frame of epoch %d does not decode to what was encoded", t)
					}
				}
			}
			t1 := time.Now()
			for t := 0; t < n; t++ {
				opp := s.opp[t]
				if buf, err = wire.AppendDecide(buf[:0], uint32(t), 0, opp, int32(table[opp].FreqMHz), ""); err != nil {
					return err
				}
				_, payload, _, err := wire.DecodeFrame(buf)
				if err != nil {
					return err
				}
				if err := dm.Decode(payload); err != nil {
					return err
				}
				if check {
					r.attempted++
					if dm.ID != uint32(t) || dm.OPPIdx != opp || len(dm.Err) != 0 {
						r.fail("decide frame of epoch %d does not decode to what was encoded", t)
					}
				}
			}
			if !check {
				obsNS += float64(t1.Sub(t0))
				decideNS += float64(time.Since(t1))
				frames += float64(n)
			}
		}
	}
	r.vals["wire.observe_codec_ns"] = ratio(obsNS, frames)
	r.vals["wire.decide_codec_ns"] = ratio(decideNS, frames)
	if p, _, _ := pool.Stats(); p != 0 {
		r.fail("replay pool holds %d pages after every replay released its state", p)
	}
	return nil
}

func sameObservation(a, b *governor.Observation) bool {
	if a.Epoch != b.Epoch || a.OPPIdx != b.OPPIdx || len(a.Cycles) != len(b.Cycles) || len(a.Util) != len(b.Util) {
		return false
	}
	fa := [...]float64{a.ExecTimeS, a.PeriodS, a.WallTimeS, a.PowerW, a.TempC}
	fb := [...]float64{b.ExecTimeS, b.PeriodS, b.WallTimeS, b.PowerW, b.TempC}
	for i := range fa {
		if math.Float64bits(fa[i]) != math.Float64bits(fb[i]) {
			return false
		}
	}
	for i := range a.Cycles {
		if a.Cycles[i] != b.Cycles[i] || math.Float64bits(a.Util[i]) != math.Float64bits(b.Util[i]) {
			return false
		}
	}
	return true
}
