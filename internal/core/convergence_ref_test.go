package core

import (
	"bytes"
	"fmt"
	"math"
	"testing"

	"qgov/internal/governor"
	"qgov/internal/sim"
	"qgov/internal/stats"
	"qgov/internal/workload"
	"qgov/internal/xrand"
)

// refTracker is the full-fingerprint convergence tracker that
// governor.ConvergenceTracker's Flip/EndEpoch entry point replaced: every
// epoch it takes the whole policy, diffs it against a copy of the previous
// one and keeps the copy. It also keeps the per-epoch cumulative
// exploration history the RTM used to hold, so the latched
// ExplorationsAtConvergence can be checked against the full record. It is
// the reference the equivalence tests replay every epoch into.
type refTracker struct {
	stable, maxFlips int

	prev      []int
	lastFlip  []int
	ring      []int
	ringIdx   int
	windowSum int
	seen      int
	converged int
	epoch     int
	explHist  []int
}

func newRefTracker(stable, maxFlips int) *refTracker {
	return &refTracker{stable: stable, maxFlips: maxFlips, ring: make([]int, stable), converged: -1}
}

func (c *refTracker) observe(policy []int) {
	flips := 0
	if c.prev == nil {
		flips = max(len(policy), 1)
		c.lastFlip = make([]int, len(policy))
		for i := range c.lastFlip {
			c.lastFlip[i] = c.epoch
		}
	} else {
		for i := range policy {
			if policy[i] != c.prev[i] {
				flips++
				c.lastFlip[i] = c.epoch
			}
		}
	}
	c.prev = append(c.prev[:0], policy...)
	c.windowSum += flips - c.ring[c.ringIdx]
	c.ring[c.ringIdx] = flips
	c.ringIdx = (c.ringIdx + 1) % c.stable
	if c.seen < c.stable {
		c.seen++
	}
	if c.seen == c.stable {
		if c.windowSum <= c.maxFlips {
			if c.converged < 0 {
				c.converged = c.epoch - c.stable + 1
			}
		} else {
			c.converged = -1
		}
	}
	c.epoch++
}

func (c *refTracker) quiet() bool { return c.seen == c.stable && c.windowSum <= c.maxFlips }

func (c *refTracker) stableFraction() float64 {
	if c.seen < c.stable || len(c.lastFlip) == 0 {
		return 0
	}
	n := 0
	for _, lf := range c.lastFlip {
		if c.epoch-lf >= c.stable {
			n++
		}
	}
	return float64(n) / float64(len(c.lastFlip))
}

// diffTracker reports the first observable on which the incremental
// tracker and the reference disagree, or "" when they agree.
func diffTracker(got *governor.ConvergenceTracker, ref *refTracker) string {
	switch {
	case got.ConvergedAt() != ref.converged:
		return fmt.Sprintf("ConvergedAt %d, reference %d", got.ConvergedAt(), ref.converged)
	case got.Quiet() != ref.quiet():
		return fmt.Sprintf("Quiet %v, reference %v", got.Quiet(), ref.quiet())
	case got.WindowFlips() != ref.windowSum:
		return fmt.Sprintf("WindowFlips %d, reference %d", got.WindowFlips(), ref.windowSum)
	case got.StableFraction() != ref.stableFraction():
		return fmt.Sprintf("StableFraction %v, reference %v", got.StableFraction(), ref.stableFraction())
	}
	return ""
}

// rtmPolicy is the fingerprint the RTM used to rebuild every epoch: the
// sticky greedy policies of all tables, masked below MinRowVisits.
func rtmPolicy(r *RTM) []int {
	var out []int
	for ti, g := range r.greedy {
		for s, a := range g {
			out = append(out, governor.TrackedAction(r.tables[ti].RowVisits(s), a))
		}
	}
	return out
}

// convergenceEvents counts the tracker transitions a replay exercised.
type convergenceEvents struct {
	converged, reopened, reconverged int
	was, everConverged               bool
}

func (e *convergenceEvents) see(converged bool) {
	switch {
	case converged && !e.was:
		e.converged++
		if e.everConverged {
			e.reconverged++
		}
		e.everConverged = true
	case !converged && e.was:
		e.reopened++
	}
	e.was = converged
}

// Every RTM variant marks only the entry its epoch's update changed, and
// latches the exploration count when its tracker converges. Replayed
// epoch by epoch against the full-fingerprint reference — over several
// workloads and seeds, cold and from a restored checkpoint — the tracker
// must agree on every observable, and ExplorationsAtConvergence must be
// the full history's count at the convergence epoch, through
// convergences, reopenings and re-convergences.
func TestRTMTrackerMatchesFullFingerprint(t *testing.T) {
	variants := map[string]func() Config{
		"rtm": DefaultConfig,
		"rtm-percore": func() Config {
			cfg := DefaultConfig()
			cfg.Mode = PerCoreTables
			return cfg
		},
		"rtm-sarsa": func() Config {
			cfg := DefaultConfig()
			cfg.OnPolicy = true
			return cfg
		},
		"updrl": func() Config {
			cfg := DefaultConfig()
			cfg.Policy = UniformPolicy{}
			return cfg
		},
	}
	var ev convergenceEvents
	for variant, config := range variants {
		for _, name := range []string{"mpeg4-30fps", "fft-32fps", "h264-football"} {
			gen, err := workload.ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			for seed := int64(1); seed <= 3; seed++ {
				tr := gen(seed, 1500)
				r := New(config())
				if seed != 3 { // seed 3 auto-ranges online
					if err := r.Calibrate(tr.MaxPerFrame()); err != nil {
						t.Fatal(err)
					}
				}
				replay := func(phase string, tr workload.Trace) {
					s := sim.NewSession(sim.Config{Trace: tr, Governor: r, Seed: seed})
					ref := newRefTracker(r.tracker.StableEpochs, r.tracker.MaxFlips)
					ev.was = false
					for !s.Done() {
						a := s.Decide()
						if s.Epoch() > 0 { // the first decide observes nothing
							ref.observe(rtmPolicy(r))
							ref.explHist = append(ref.explHist, r.explorations)
							where := fmt.Sprintf("%s %s seed %d %s epoch %d", variant, name, seed, phase, ref.epoch-1)
							if d := diffTracker(r.tracker, ref); d != "" {
								t.Fatalf("%s: %s", where, d)
							}
							if c := ref.converged; c >= 0 {
								if got, want := r.ExplorationsAtConvergence(), ref.explHist[c]; got != want {
									t.Fatalf("%s: ExplorationsAtConvergence %d, history says %d at epoch %d", where, got, want, c)
								}
							}
							ev.see(ref.converged >= 0)
						}
						s.Step(a)
					}
				}
				replay("cold", tr.Slice(0, 1000))
				var buf bytes.Buffer
				if err := r.SaveState(&buf); err != nil {
					t.Fatal(err)
				}
				r = New(config())
				if err := r.LoadState(&buf); err != nil {
					t.Fatal(err)
				}
				replay("restored", tr.Slice(1000, tr.Len()))
			}
		}
	}
	if ev.converged == 0 || ev.reopened == 0 || ev.reconverged == 0 {
		t.Fatalf("replays did not exercise converge (%d), reopen (%d) and re-converge (%d)",
			ev.converged, ev.reopened, ev.reconverged)
	}
}

// MultiRTM tracks the unmasked argmax policy of its one table; only the
// updated state's row can change it.
func TestMultiRTMTrackerMatchesFullFingerprint(t *testing.T) {
	var ev convergenceEvents
	for seed := int64(1); seed <= 3; seed++ {
		m := NewMultiRTM(DefaultConfig(), 2)
		ctx := rtmCtx(seed)
		m.Reset(ctx)
		ref := newRefTracker(m.tracker.StableEpochs, m.tracker.MaxFlips)
		rng := xrand.New(seed)
		idx := m.DecideMulti(MultiObservation{Epoch: -1})
		for i := 0; i < 3000; i++ {
			f := ctx.Table[idx].FreqHz()
			ovh := m.DecisionOverheadS()
			cyA := uint64(20e6 * (1 + 0.2*rng.Float64()))
			cyB := uint64(12e6 * (1 + 0.4*rng.Float64()))
			idx = m.DecideMulti(MultiObservation{Epoch: i, Apps: []AppObservation{
				{ExecTimeS: float64(cyA)/f + ovh, PeriodS: 0.040, CriticalCycles: cyA},
				{ExecTimeS: float64(cyB)/f + ovh, PeriodS: 0.033, CriticalCycles: cyB},
			}})
			ref.observe(m.table.GreedyPolicy())
			if d := diffTracker(m.tracker, ref); d != "" {
				t.Fatalf("seed %d epoch %d: %s", seed, i, d)
			}
			ev.see(ref.converged >= 0)
		}
	}
	if ev.converged == 0 {
		t.Fatal("multi-app replays never converged")
	}
}

// The windowed slack tracker keeps a fixed buffer instead of re-slicing a
// growing one; its L must equal stats.Mean over the re-sliced window bit
// for bit, through a Reset too.
func TestSlackTrackerWindowMatchesResliced(t *testing.T) {
	rng := xrand.New(7)
	for _, window := range []int{1, 2, 15, 40} {
		tr := NewSlackTracker(window)
		var hist []float64
		for i := 0; i < 500; i++ {
			if i == 300 {
				tr.Reset()
				hist = nil
			}
			exec := 0.040 * (0.5 + rng.Float64()) // misses included
			got := tr.Observe(exec, 0.040)
			hist = append(hist, (0.040-exec)/0.040)
			if len(hist) > window {
				hist = hist[1:]
			}
			if want := stats.Mean(hist); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("window %d epoch %d: L = %v, re-sliced mean %v", window, i, got, want)
			}
		}
		if cap(tr.ratios) != window {
			t.Fatalf("window %d: buffer grew to cap %d", window, cap(tr.ratios))
		}
	}
}
