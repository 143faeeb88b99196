package governor

import (
	"bytes"
	"fmt"
	"testing"

	"qgov/internal/workload"
)

// refTracker is the full-fingerprint convergence tracker that
// ConvergenceTracker's Flip/EndEpoch entry point replaced: every epoch it
// takes the whole policy, diffs it against a copy of the previous one and
// keeps the copy. It is the reference the equivalence tests replay every
// epoch into.
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
func diffTracker(got *ConvergenceTracker, ref *refTracker) string {
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

// mldtmPolicy is the fingerprint ML-DTM used to rebuild every epoch: each
// core's sticky greedy actions, masked below MinRowVisits row updates.
func mldtmPolicy(g *MLDTM) []int {
	out := make([]int, 0, len(g.greedy)*g.UtilBands)
	for c, per := range g.greedy {
		for s, a := range per {
			visits := 0
			for _, v := range g.tab.VRow(g.row(c, s)) {
				visits += int(v)
			}
			out = append(out, TrackedAction(visits, a))
		}
	}
	return out
}

// driveTrace runs g closed-loop over a workload trace on the A15 table:
// each core's utilisation is its frame demand over the chosen frequency's
// capacity. After every decide, check sees the epoch index.
func driveTrace(g Governor, tr workload.Trace, check func(epoch int)) {
	table := testCtx(0).Table
	idx := g.Decide(Observation{Epoch: -1})
	cycles := make([]uint64, 4)
	util := make([]float64, 4)
	for i, fr := range tr.Frames {
		capacity := table[idx].FreqHz() * tr.RefTimeS
		for c := range cycles {
			cycles[c] = 0
			if c < len(fr.Cycles) {
				cycles[c] = fr.Cycles[c]
			}
			util[c] = min(float64(cycles[c])/capacity, 1)
		}
		exec := float64(fr.MaxCycles()) / table[idx].FreqHz()
		idx = g.Decide(Observation{
			Epoch: i, Cycles: cycles, Util: util,
			ExecTimeS: exec, PeriodS: tr.RefTimeS, WallTimeS: max(exec, tr.RefTimeS),
			PowerW: 0.5 + 0.3*float64(idx), TempC: 50, OPPIdx: idx,
		})
		check(i)
	}
}

// The ML-DTM marks only the entries its per-core updates changed; the
// full-fingerprint reference must agree on every observable at every
// epoch, over several workloads and seeds and after a warm start from a
// checkpoint (whose restored visit counts put rows above the mask from
// the first epoch).
func TestMLDTMTrackerMatchesFullFingerprint(t *testing.T) {
	converged, reopened := 0, 0
	for _, name := range []string{"mpeg4-30fps", "fft-32fps", "h264-football"} {
		gen, err := workload.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for seed := int64(1); seed <= 3; seed++ {
			tr := gen(seed, 1500)
			g := NewMLDTM()
			var ref *refTracker
			wasConverged := false
			run := func(phase string, tr workload.Trace) {
				g.Reset(testCtx(seed))
				ref = newRefTracker(g.StableEpochs, g.tracker.MaxFlips)
				driveTrace(g, tr, func(epoch int) {
					ref.observe(mldtmPolicy(g))
					if d := diffTracker(g.tracker, ref); d != "" {
						t.Fatalf("%s seed %d %s epoch %d: %s", name, seed, phase, epoch, d)
					}
					now := ref.converged >= 0
					if now && !wasConverged {
						converged++
					}
					if !now && wasConverged {
						reopened++
					}
					wasConverged = now
				})
			}
			run("cold", tr.Slice(0, 1000))
			var buf bytes.Buffer
			if err := g.SaveState(&buf); err != nil {
				t.Fatal(err)
			}
			g = NewMLDTM()
			if err := g.LoadState(&buf); err != nil {
				t.Fatal(err)
			}
			wasConverged = false
			run("restored", tr.Slice(1000, tr.Len()))
		}
	}
	if converged == 0 || reopened == 0 {
		t.Fatalf("runs never exercised convergence (%d) and reopening (%d)", converged, reopened)
	}
}
