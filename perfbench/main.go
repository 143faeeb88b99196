// Command perfbench is the repository's end-to-end and per-layer
// benchmark. It drives qgov through its public packages on one of three
// workloads and prints, as the last line of standard output, one JSON
// object with the run's correctness, the operations it attempted and
// failed, and its metrics:
//
//	perfbench --workload paper-sim --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the metrics are the end-to-end ones, measured untraced.
// With --trace 1 the timed phase alternates untraced and traced sections
// and the metrics are the per-layer ones, read from the traced sections
// (see README.md for every definition).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"syscall"
	"time"
)

// metric is one reported figure with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object the benchmark prints last.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// endToEnd and perLayer name every metric with its unit, in report
// order. Every workload reports every metric of the mode it runs in; a
// layer a workload does not drive reports 0 (README.md lists which).
// Rates are per second of process CPU time and set-up time is in
// process CPU seconds: on a shared 2-vCPU host the hypervisor steals
// 10-25% of wall time, varying from run to run, and wall-clock figures
// swing with it (README.md).
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"decides_per_cpu_s", "1/cpu-s"},
	{"rtm_norm_energy", "ratio"},
	{"rtm_miss_pct", "%"},
	{"live_bytes_per_session", "B"},
}

var perLayer = []struct{ name, unit string }{
	{"sim.step_ns", "ns"},
	{"core.rtm_decide_ns", "ns"},
	{"governor.mldtm_decide_ns", "ns"},
	{"governor.ondemand_decide_ns", "ns"},
	{"governor.oracle_decide_ns", "ns"},
	{"scenario.config_s", "s"},
	{"core.explorations_per_kepoch", "count"},
	{"core.converged_epoch_mean", "epoch"},
	{"client.decides_per_s", "1/s"},
	{"client.decide_p50_us", "us"},
	{"client.decide_p90_us", "us"},
	{"client.decide_p99_us", "us"},
	{"client.decide_busy_s", "s"},
	{"serve.decide_us_mean", "us"},
	{"serve.decide_busy_s", "s"},
	{"serve.decide_share", "ratio"},
	{"core.rtm_replay_ns", "ns"},
	{"wire.observe_codec_ns", "ns"},
	{"wire.decide_codec_ns", "ns"},
	{"runtime.alloc_bytes_per_decide", "B"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_pause_s", "s"},
	{"qpage.cow_faults_per_decide", "count"},
	{"qpage.pool_pages_end", "count"},
	{"telemetry.scrape_p50_us", "us"},
	{"telemetry.scrape_bytes", "B"},
	{"control.create_us_p50", "us"},
	{"control.delete_us_p50", "us"},
	{"control.busy_share", "ratio"},
	{"router.hop_us_p50", "us"},
	{"router.hops_per_batch", "count"},
	{"trace.overhead_pct", "%"},
}

// run is what one workload hands back: operation counts, exactness
// gate failures (each counts as one failed operation) and raw metric
// values by name. Names absent from vals report 0.
type run struct {
	attempted int64
	failed    int64
	gates     []string
	vals      map[string]float64
	spans     *spanLog
}

func (r *run) fail(format string, args ...any) {
	r.failed++
	r.gates = append(r.gates, fmt.Sprintf(format, args...))
}

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
}

var workloads = map[string]func(options) (*run, error){
	"paper-sim":         runPaperSim,
	"longlived-flat":    runLonglivedFlat,
	"shortlived-routed": runShortlivedRouted,
}

func main() {
	var opt options
	var traceFlag int
	var seconds int
	flag.StringVar(&opt.workload, "workload", "", "workload to run: paper-sim, longlived-flat or shortlived-routed")
	flag.Int64Var(&opt.seed, "seed", 1, "seed every input is generated from")
	flag.IntVar(&seconds, "seconds", 10, "length of the timed phase in seconds")
	flag.IntVar(&traceFlag, "trace", 0, "1 reports per-layer metrics from a traced run, 0 end-to-end metrics")
	flag.Parse()
	opt.seconds = float64(seconds)
	opt.trace = traceFlag != 0

	f, ok := workloads[opt.workload]
	if !ok || seconds < 1 {
		names := make([]string, 0, len(workloads))
		for n := range workloads {
			names = append(names, n)
		}
		sort.Strings(names)
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (one of %v) and --seconds >= 1\n", names)
		os.Exit(2)
	}
	start := time.Now()
	r, err := f(opt)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s aborted: %v\n", opt.workload, err)
		os.Exit(1)
	}
	for _, g := range r.gates {
		fmt.Fprintf(os.Stderr, "perfbench: exactness gate failed: %s\n", g)
	}
	if r.spans != nil {
		path, n, err := r.spans.writeFile(opt.workload)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: writing spans: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("spans: %d written to %s (%d dropped past the buffer)\n", n, path, r.spans.dropped)
	}

	list := endToEnd
	if opt.trace {
		list = perLayer
	}
	res := result{
		Correct:   r.failed == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   make(map[string]metric, len(list)),
	}
	fmt.Printf("%s seed=%d trace=%v wall=%.1fs attempted=%d failed=%d\n",
		opt.workload, opt.seed, opt.trace, time.Since(start).Seconds(), r.attempted, r.failed)
	for _, m := range list {
		v := r.vals[m.name]
		res.Metrics[m.name] = metric{Value: v, Unit: m.unit}
		fmt.Printf("  %-32s %16.6g %s\n", m.name, v, m.unit)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: encoding result: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

// cpuSeconds is the process's CPU time so far, user and system, across
// every thread: the clock the rate metrics divide by.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(fmt.Sprintf("perfbench: getrusage: %v", err))
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}
