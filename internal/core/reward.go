package core

import (
	"fmt"

	"qgov/internal/stats"
)

// SlackTracker maintains the average slack ratio L of Eq. 5:
//
//	L_i = 1/(D·Tref) · Σ (Tref − T_i − T_OVH)
//
// where T_i + T_OVH is the epoch's completion time including the learning
// and DVFS overheads, and D is the number of epochs averaged. The paper
// averages from the application start; a windowed D (the default, 15
// epochs) keeps L responsive after the early epochs — with a cumulative
// average, one early deadline miss would bias L for the rest of a
// 3000-frame run. Window == 0 selects the cumulative behaviour.
type SlackTracker struct {
	Window int // number of epochs in D; 0 = since start

	// ratios holds the last Window per-epoch slack ratios, oldest first
	// (windowed mode). Its backing array is allocated once, at the first
	// Observe, and a full window shifts down by one in place: the window
	// stays contiguous in arrival order, so L is the same ordered Kahan
	// mean (stats.Mean) over the same values, bit for bit, without a
	// reallocation per epoch.
	ratios []float64
	sum    float64
	count  int
	l      float64
	prevL  float64
	last   float64
}

// NewSlackTracker returns a tracker with the given window.
func NewSlackTracker(window int) *SlackTracker {
	if window < 0 {
		panic(fmt.Sprintf("core: negative slack window %d", window))
	}
	return &SlackTracker{Window: window}
}

// Observe folds in one epoch: completion time (T_i + T_OVH) against the
// deadline Tref. It returns the updated L.
func (t *SlackTracker) Observe(completionS, refS float64) float64 {
	if refS <= 0 {
		panic("core: slack tracker needs a positive Tref")
	}
	ratio := (refS - completionS) / refS
	t.last = ratio
	t.prevL = t.l
	if t.Window == 0 {
		t.sum += ratio
		t.count++
		t.l = t.sum / float64(t.count)
		return t.l
	}
	if t.ratios == nil {
		t.ratios = make([]float64, 0, t.Window)
	}
	if len(t.ratios) < t.Window {
		t.ratios = append(t.ratios, ratio)
	} else {
		copy(t.ratios, t.ratios[1:])
		t.ratios[len(t.ratios)-1] = ratio
	}
	t.l = stats.Mean(t.ratios)
	return t.l
}

// L returns the current average slack ratio.
func (t *SlackTracker) L() float64 { return t.l }

// DeltaL returns L_i − L_{i−1}, the ΔL term of the reward (Eq. 4).
func (t *SlackTracker) DeltaL() float64 { return t.l - t.prevL }

// LastRatio returns the most recent epoch's own slack ratio (negative on a
// deadline miss), the input to the reward's instantaneous miss term.
func (t *SlackTracker) LastRatio() float64 { return t.last }

// Reset clears the tracker.
func (t *SlackTracker) Reset() {
	t.ratios = t.ratios[:0]
	t.sum, t.l, t.prevL, t.last = 0, 0, 0, 0
	t.count = 0
}

// Reward is the pay-off function of Eq. 4, R = a·r(L) + b·ΔL, with one
// shaping refinement taken from the journal version of this work (Shafik
// et al., TCAD'16, ref [12]): the slack term r(L) peaks at a small positive
// target slack rather than growing with L.
//
// Read literally, R = a·L + b·ΔL is maximised by running every frame at
// f_max — the exact opposite of energy minimisation. What the authors
// describe ("predetermined constants to ensure actions improving L are
// rewarded") only minimises energy if "improving" means *toward the
// deadline*, not "more slack"; the journal paper makes that explicit. So:
//
//	r(L) = −|L − Target|
//
// which rewards finishing just before the deadline (Target ≈ 0.05), the
// lowest-energy point that still meets the performance requirement.
//
// A third term punishes the epoch's *instantaneous* deadline overrun. It
// exists because the averaged L alone is gameable: after a stretch of
// generous slack, one deeply missed frame pulls the window average toward
// the target and would otherwise score as an improvement — yet that missed
// frame is exactly the dropped-frame glitch Section III-B says degrades
// user experience. Charging the overrun per epoch makes misses
// unprofitable regardless of the window state.
type Reward struct {
	A           float64 // weight of the slack term (the paper's a)
	B           float64 // weight of the ΔL term (the paper's b)
	Target      float64 // desired slack ratio
	MissPenalty float64 // weight of the instantaneous overrun term
}

// NewReward returns the constants used in the experiments.
func NewReward() *Reward {
	return &Reward{A: 1.0, B: 0.5, Target: 0.08, MissPenalty: 6.0}
}

// Score computes R for the epoch from the averaged slack ratio L, its
// change ΔL, and the epoch's own slack ratio (negative on a miss).
func (r *Reward) Score(l, deltaL, lastRatio float64) float64 {
	// Tracking term: distance of the averaged slack from the target.
	err := l - r.Target
	if err < 0 {
		err = -err
	}
	// ΔL term with the paper's b: movement toward the target is an
	// improvement — above the target that means shrinking slack, below it
	// growing slack.
	improve := deltaL
	if l > r.Target {
		improve = -deltaL
	}
	// Instantaneous miss term: the fraction of the deadline overrun.
	miss := 0.0
	if lastRatio < 0 {
		miss = -lastRatio
	}
	return -r.A*err + r.B*improve - r.MissPenalty*miss
}
