package stats

import (
	"fmt"
	"math"
	"strings"
)

// Histogram is a binned histogram over a closed interval. Bins are either
// fixed-width (NewHistogram) or log-width (NewLogHistogram: geometrically
// spaced edges, constant resolution per decade). Samples outside the
// interval are counted in dedicated underflow/overflow buckets so that no
// observation is silently dropped — the workload pre-characterisation pass
// ("design space exploration" in the paper) uses the histogram to pick the
// N discretisation levels and must see outliers, and the serving tier's
// latency quantiles must know when the tail escaped the range.
type Histogram struct {
	lo, hi   float64
	width    float64 // fixed-bin width; 0 in log mode
	logScale bool
	invLogK  float64 // bins / ln(hi/lo); only set in log mode
	// counts are uint32 to halve the bin array; a bin wraps after 4B
	// samples. total stays int, so Count and quantile ranks are
	// unaffected.
	counts    []uint32
	underflow int
	overflow  int
	total     int
	sum       float64
}

// NewHistogram creates a fixed-width histogram over [lo, hi] with the given
// number of bins. It panics if bins < 1 or lo >= hi: both indicate caller
// bugs, not runtime conditions.
func NewHistogram(lo, hi float64, bins int) *Histogram {
	if bins < 1 {
		panic("stats: NewHistogram needs at least one bin")
	}
	if !(lo < hi) {
		panic("stats: NewHistogram needs lo < hi")
	}
	return &Histogram{
		lo:     lo,
		hi:     hi,
		width:  (hi - lo) / float64(bins),
		counts: make([]uint32, bins),
	}
}

// NewLogHistogram creates a histogram over [lo, hi] whose bin edges are
// geometrically spaced: bin i spans [lo·r^i, lo·r^(i+1)) with
// r = (hi/lo)^(1/bins). Relative resolution is constant across the range,
// so a single instance can resolve both a 2µs fast path and a 100ms stall
// — which is what decide latency under churn needs. It panics unless
// 0 < lo < hi and bins >= 1.
func NewLogHistogram(lo, hi float64, bins int) *Histogram {
	if bins < 1 {
		panic("stats: NewLogHistogram needs at least one bin")
	}
	if !(0 < lo && lo < hi) {
		panic("stats: NewLogHistogram needs 0 < lo < hi")
	}
	return &Histogram{
		lo:       lo,
		hi:       hi,
		logScale: true,
		invLogK:  float64(bins) / math.Log(hi/lo),
		counts:   make([]uint32, bins),
	}
}

// binIndex maps an in-range sample (lo <= x < hi) to its bin, clamping the
// floating-point edge cases into the valid range.
func (h *Histogram) binIndex(x float64) int {
	var i int
	if h.logScale {
		i = int(math.Log(x/h.lo) * h.invLogK)
	} else {
		i = int((x - h.lo) / h.width)
	}
	if i >= len(h.counts) {
		i = len(h.counts) - 1
	}
	if i < 0 {
		i = 0
	}
	return i
}

// Add records one sample.
func (h *Histogram) Add(x float64) {
	h.total++
	if !math.IsNaN(x) {
		// Out-of-range samples still contribute — Sum is the total of
		// everything observed, as a Prometheus histogram's _sum is.
		h.sum += x
	}
	switch {
	case math.IsNaN(x):
		// NaNs land in overflow: they must not vanish, and they have no
		// ordering that would justify underflow instead.
		h.overflow++
	case x < h.lo:
		h.underflow++
	case x >= h.hi:
		// The top edge itself belongs to the last bin.
		if x == h.hi {
			h.counts[len(h.counts)-1]++
		} else {
			h.overflow++
		}
	default:
		h.counts[h.binIndex(x)]++
	}
}

// Lo returns the lower edge of the histogram range.
func (h *Histogram) Lo() float64 { return h.lo }

// Hi returns the upper (inclusive) edge of the histogram range.
func (h *Histogram) Hi() float64 { return h.hi }

// LogScale reports whether the bins are log-width (NewLogHistogram).
func (h *Histogram) LogScale() bool { return h.logScale }

// BinWidth returns the fixed width of each bin, or 0 for log-width bins
// (whose widths vary per bin — use Edges).
func (h *Histogram) BinWidth() float64 { return h.width }

// LowerEdge returns the inclusive lower edge of bin i.
func (h *Histogram) LowerEdge(i int) float64 {
	if i <= 0 {
		return h.lo
	}
	return h.UpperEdge(i - 1)
}

// UpperEdge returns the exclusive upper edge of bin i (the last bin's upper
// edge, Hi, is inclusive).
func (h *Histogram) UpperEdge(i int) float64 {
	if i >= len(h.counts)-1 {
		// Pin the top edge exactly: exp/log round-tripping may otherwise
		// land a hair off hi, and exposition formats compare edges.
		return h.hi
	}
	if h.logScale {
		return h.lo * math.Exp(float64(i+1)/h.invLogK)
	}
	return h.lo + float64(i+1)*h.width
}

// Edges returns the upper edge of every bin, in order. The final entry is
// exactly Hi.
func (h *Histogram) Edges() []float64 {
	out := make([]float64, len(h.counts))
	for i := range out {
		out[i] = h.UpperEdge(i)
	}
	return out
}

// Bins returns a copy of the per-bin counts.
func (h *Histogram) Bins() []int {
	out := make([]int, len(h.counts))
	for i, c := range h.counts {
		out[i] = int(c)
	}
	return out
}

// Count returns the number of samples recorded, including out-of-range ones.
func (h *Histogram) Count() int { return h.total }

// Sum returns the total of every sample recorded (NaNs excluded,
// out-of-range samples included).
func (h *Histogram) Sum() float64 { return h.sum }

// Underflow returns the number of samples below the histogram range.
func (h *Histogram) Underflow() int { return h.underflow }

// Overflow returns the number of samples at or above the histogram range
// (excluding the inclusive top edge) plus any NaNs.
func (h *Histogram) Overflow() int { return h.overflow }

// Quantile estimates the q-quantile (0 <= q <= 1) from the binned counts by
// interpolating within the covering bin — linearly for fixed-width bins,
// geometrically for log-width bins. Ranks that fall in the underflow bucket
// report Lo (the histogram cannot resolve below its range); ranks in the
// overflow bucket report +Inf, making a saturated tail impossible to
// mistake for a real measurement. It returns NaN when the histogram is
// empty or q is out of range.
func (h *Histogram) Quantile(q float64) float64 {
	if h.total == 0 || math.IsNaN(q) || q < 0 || q > 1 {
		return math.NaN()
	}
	// Rank of the target sample, 1-based; q=0 maps to the first sample.
	rank := int(math.Ceil(q * float64(h.total)))
	if rank < 1 {
		rank = 1
	}
	if rank <= h.underflow {
		return h.lo
	}
	cum := h.underflow
	for i, c32 := range h.counts {
		c := int(c32)
		if rank <= cum+c {
			loEdge, hiEdge := h.LowerEdge(i), h.UpperEdge(i)
			frac := (float64(rank-cum) - 0.5) / float64(c)
			if h.logScale {
				return loEdge * math.Pow(hiEdge/loEdge, frac)
			}
			return loEdge + frac*(hiEdge-loEdge)
		}
		cum += c
	}
	return math.Inf(1)
}

// Merge adds every count from o into h. The two histograms must have
// identical geometry (range, bin count, scale); Merge returns an error
// otherwise rather than silently mixing incompatible bins.
func (h *Histogram) Merge(o *Histogram) error {
	if o == nil {
		return nil
	}
	if h.lo != o.lo || h.hi != o.hi || len(h.counts) != len(o.counts) || h.logScale != o.logScale {
		return fmt.Errorf("stats: Merge geometry mismatch: [%g,%g)x%d log=%v vs [%g,%g)x%d log=%v",
			h.lo, h.hi, len(h.counts), h.logScale, o.lo, o.hi, len(o.counts), o.logScale)
	}
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.underflow += o.underflow
	h.overflow += o.overflow
	h.total += o.total
	h.sum += o.sum
	return nil
}

// BinOf returns the bin index x would fall into, or -1 when out of range.
func (h *Histogram) BinOf(x float64) int {
	if math.IsNaN(x) || x < h.lo || x > h.hi {
		return -1
	}
	if x == h.hi {
		return len(h.counts) - 1
	}
	return h.binIndex(x)
}

// Mode returns the centre of the most populated bin — arithmetic centre for
// fixed-width bins, geometric centre for log-width bins. Ties resolve to
// the lowest bin. It returns NaN when no in-range samples were added.
func (h *Histogram) Mode() float64 {
	best, bestCount := -1, uint32(0)
	for i, c := range h.counts {
		if c > bestCount {
			best, bestCount = i, c
		}
	}
	if best < 0 {
		return math.NaN()
	}
	if h.logScale {
		return math.Sqrt(h.LowerEdge(best) * h.UpperEdge(best))
	}
	return h.lo + (float64(best)+0.5)*h.width
}

// String renders a compact ASCII summary, one line per bin.
func (h *Histogram) String() string {
	var b strings.Builder
	for i, c := range h.counts {
		fmt.Fprintf(&b, "[%10.4g, %10.4g) %6d\n", h.LowerEdge(i), h.UpperEdge(i), c)
	}
	if h.underflow > 0 {
		fmt.Fprintf(&b, "underflow %d\n", h.underflow)
	}
	if h.overflow > 0 {
		fmt.Fprintf(&b, "overflow %d\n", h.overflow)
	}
	return b.String()
}
