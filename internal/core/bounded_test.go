package core

import (
	"runtime"
	"testing"

	"qgov/internal/governor"
	"qgov/internal/platform"
	"qgov/internal/qpage"
	"qgov/internal/xrand"
)

// liveHeap returns the reachable heap after a collection.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// A served session's learning state must stay bounded however long the
// session lives: N RTMs built the way the server builds a session (by
// registry name, reset against a shared page pool and the platform's
// precomputed frequency axis) are driven 10² and then 10⁴ decides, and
// the live heap per RTM may grow only by the Q-table pages still to fault
// private plus a small constant. Anything that keeps per-epoch history
// grows by its element size times ~10⁴ and trips this.
func TestRTMStateBoundedOverLifetime(t *testing.T) {
	const n = 64
	table := platform.A15Table()
	pool := qpage.NewPool()
	norm := table.NormFreqs()
	rtms := make([]*RTM, n)
	idx := make([]int, n)
	rng := xrand.New(1)
	for i := range rtms {
		g, err := governor.ByName("rtm")
		if err != nil {
			t.Fatal(err)
		}
		rtms[i] = g.(*RTM)
		rtms[i].Reset(governor.Context{Table: table, NumCores: 4, NormFreq: norm, PeriodS: 0.040, Seed: int64(i), QPool: pool})
		idx[i] = rtms[i].Decide(governor.Observation{Epoch: -1})
	}
	cycles := make([]uint64, 4)
	util := make([]float64, 4)
	epoch := 0
	drive := func(until int) {
		for ; epoch < until; epoch++ {
			for i, r := range rtms {
				f := table[idx[i]].FreqHz()
				demand := 24e6 * (1 + 0.3*rng.Float64())
				exec := demand / f
				for c := range cycles {
					cycles[c] = uint64(demand)
					util[c] = min(exec/0.040, 1)
				}
				idx[i] = r.Decide(governor.Observation{
					Epoch: epoch, Cycles: cycles, Util: util,
					ExecTimeS: exec + r.DecisionOverheadS(), PeriodS: 0.040, WallTimeS: max(exec, 0.040),
					PowerW: 2, TempC: 50, OPPIdx: idx[i],
				})
			}
		}
	}
	// privatePages counts the Q-table pages the RTMs have faulted out of
	// the pool: bounded by the table size, and allowed to grow.
	privatePages := func() int {
		n := 0
		for _, r := range rtms {
			for _, tab := range r.tables {
				n += tab.States() - tab.tab.SharedPages()
			}
		}
		return n
	}
	drive(100)
	early, earlyPages := liveHeap(), privatePages()
	drive(10_000)
	late, latePages := liveHeap(), privatePages()
	runtime.KeepAlive(rtms)

	// One faulted page holds a row of values and visits plus its header;
	// 400 B bounds it with size-class rounding.
	const pageBytes, slack = 400, 256
	growth := (float64(late) - float64(early)) / n
	faulted := float64(latePages-earlyPages) / n
	t.Logf("live heap per RTM: %.0f B growth from 10² to 10⁴ decides, %.1f pages faulted private", growth, faulted)
	if limit := faulted*pageBytes + slack; growth > limit {
		t.Fatalf("live heap per RTM grew %.0f B between 10² and 10⁴ decides, want <= %.0f (%.1f faulted pages + %d B): per-session state is not bounded",
			growth, limit, faulted, slack)
	}
}
