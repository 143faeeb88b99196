package governor

import (
	"testing"
)

func TestMLDTMStateMapping(t *testing.T) {
	g := NewMLDTM()
	g.Reset(testCtx(1))
	cases := []struct {
		util float64
		want int
	}{
		{-0.5, 0}, {0, 0}, {0.19, 0}, {0.2, 1}, {0.55, 2}, {0.99, 4}, {1.0, 4}, {1.5, 4},
	}
	for _, c := range cases {
		if got := g.stateOf(c.util); got != c.want {
			t.Errorf("stateOf(%v) = %d, want %d", c.util, got, c.want)
		}
	}
}

func TestMLDTMRewardShape(t *testing.T) {
	g := NewMLDTM()
	// Reward is maximal at the target utilisation and lower both below and
	// above it; higher power always hurts.
	atTarget := g.reward(g.TargetUtil, 2)
	below := g.reward(0.3, 2)
	above := g.reward(1.0, 2)
	if !(atTarget > below) || !(atTarget > above) {
		t.Fatalf("reward not peaked at target: %v vs %v / %v", atTarget, below, above)
	}
	if !(g.reward(0.9, 1) > g.reward(0.9, 6)) {
		t.Fatal("reward must penalise power")
	}
}

func TestMLDTMLearnsAndConverges(t *testing.T) {
	g := NewMLDTM()
	ctx := testCtx(7)
	g.Reset(ctx)
	idx := g.Decide(Observation{Epoch: -1})
	const fReq = 700e6
	converged := -1
	for i := 0; i < 3000; i++ {
		f := ctx.Table[idx].FreqHz()
		util := fReq / f
		if util > 1 {
			util = 1
		}
		idx = g.Decide(obsAt(i, idx, util, 0.04))
		if g.ConvergedAtEpoch() >= 0 {
			converged = g.ConvergedAtEpoch()
			break
		}
	}
	if converged < 0 {
		t.Fatal("mldtm did not converge in 3000 epochs")
	}
	if g.Explorations() == 0 {
		t.Fatal("mldtm reported zero explorations")
	}
	// After convergence, utilisation-targeting must hold frequency near or
	// above the requirement (TargetUtil 0.9 -> f ≈ fReq/0.9 ≈ 780 MHz);
	// run a few more epochs and check the choice is not pinned at the
	// extremes.
	for i := 0; i < 20; i++ {
		f := ctx.Table[idx].FreqHz()
		util := fReq / f
		if util > 1 {
			util = 1
		}
		idx = g.Decide(obsAt(converged+i, idx, util, 0.04))
	}
	if mhz := ctx.Table[idx].FreqMHz; mhz < 600 || mhz > 1600 {
		t.Fatalf("post-convergence choice %d MHz implausible for 700 MHz demand", mhz)
	}
}

func TestMLDTMDeterministicBySeed(t *testing.T) {
	run := func(seed int64) []int {
		g := NewMLDTM()
		ctx := testCtx(seed)
		g.Reset(ctx)
		idx := g.Decide(Observation{Epoch: -1})
		var picks []int
		for i := 0; i < 200; i++ {
			idx = g.Decide(obsAt(i, idx, 0.6, 0.04))
			picks = append(picks, idx)
		}
		return picks
	}
	a, b := run(5), run(5)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at %d", i)
		}
	}
}

func TestMLDTMOverheadPositive(t *testing.T) {
	g := NewMLDTM()
	if g.DecisionOverheadS() <= 0 {
		t.Fatal("learning governor must model a positive decision overhead")
	}
}

func TestConvergenceTracker(t *testing.T) {
	// Window 3, tolerance 1 flip, three entries. The very first epoch
	// counts as a full change (3 flips) whatever is marked, so the window
	// must drain before any convergence is possible.
	tr := NewConvergenceTracker(3, 3)
	tr.Flip(0)                                  // ignored: the first epoch already counts every entry
	tr.EndEpoch()                               // epoch 0: 3 flips (first sight)
	tr.EndEpoch()                               // epoch 1: 0 flips
	if tr.EndEpoch() || tr.ConvergedAt() >= 0 { // epoch 2: window holds 3 flips
		t.Fatal("converged while the first-sight flips were still in window")
	}
	if !tr.EndEpoch() { // epoch 3: window {0,0,0} -> converged at window start
		t.Fatal("EndEpoch did not report the convergence")
	}
	if tr.ConvergedAt() != 1 {
		t.Fatalf("ConvergedAt = %d, want 1", tr.ConvergedAt())
	}
	// A single flip is within tolerance: stays converged. Marking the
	// same entry twice in one epoch is one change.
	tr.Flip(2)
	tr.Flip(2)
	if tr.EndEpoch() { // epoch 4: 1 flip
		t.Fatal("EndEpoch reported a convergence that was already standing")
	}
	if tr.ConvergedAt() != 1 || tr.WindowFlips() != 1 {
		t.Fatalf("single tolerated flip: ConvergedAt %d, WindowFlips %d", tr.ConvergedAt(), tr.WindowFlips())
	}
	// Two flips inside one window reopen learning.
	tr.Flip(2)
	tr.EndEpoch() // epoch 5: 1 flip -> window {0,1,1} = 2 > tolerance
	if tr.ConvergedAt() != -1 {
		t.Fatalf("two flips did not reopen: %d", tr.ConvergedAt())
	}
	// A fresh qualifying window re-converges at its start: epochs {5,6,7}
	// hold {1,0,0} flips, back inside tolerance, so epoch 5 — where the
	// tolerated final adjustment happened — is the reported stabilisation.
	tr.EndEpoch()       // epoch 6: 0 flips
	if !tr.EndEpoch() { // epoch 7: window {1,0,0}
		t.Fatal("EndEpoch did not report the re-convergence")
	}
	if tr.ConvergedAt() != 5 {
		t.Fatalf("ConvergedAt = %d, want 5", tr.ConvergedAt())
	}
	tr.EndEpoch() // epoch 8: window {0,0,0} keeps the earlier start
	if tr.ConvergedAt() != 5 {
		t.Fatalf("ConvergedAt moved to %d after more quiet epochs", tr.ConvergedAt())
	}
	if !tr.Quiet() {
		t.Fatal("Quiet() false on a quiet window")
	}
}

func TestConvergenceTrackerReset(t *testing.T) {
	tr := NewConvergenceTracker(1, 1)
	tr.MaxFlips = 99 // any change tolerated
	tr.EndEpoch()
	if tr.ConvergedAt() != 0 {
		t.Fatal("setup failed")
	}
	tr.Reset()
	if tr.ConvergedAt() != -1 {
		t.Fatal("Reset did not clear convergence")
	}
	// After Reset the next epoch is a first sight again: a full change.
	tr.MaxFlips = 0
	tr.EndEpoch()
	if tr.WindowFlips() != 1 || tr.ConvergedAt() != -1 {
		t.Fatalf("epoch after Reset: WindowFlips %d, ConvergedAt %d", tr.WindowFlips(), tr.ConvergedAt())
	}
}
