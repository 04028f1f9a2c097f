// Command benchmark is the repository's end-to-end and per-layer
// benchmark: one process drives one workload through the public entry
// points of core, shard, serve and dataset, checks that the outputs are
// correct, and prints one JSON result line.
//
//	go run . --workload train-explicit --seed 1 --seconds 10 --trace 0
//
// With --trace 0 it reports the end-to-end metrics, measured with the
// program's instrumentation off; with --trace 1 a separate run reports
// the per-layer metrics from that instrumentation. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"sync"
	"time"
)

// metricDef is one reported metric: name, unit and direction, as listed in
// BENCHMARK.json.
type metricDef struct{ name, unit, better string }

var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"train_s", "s", "lower"},
	{"time_to_target_s", "s", "lower"},
	{"heldout_rmse", "rmse", "lower"},
	{"p50_ms", "ms", "lower"},
	{"tail_ms", "ms", "lower"},
	{"throughput_per_s", "1/s", "higher"},
	{"peak_heap_mb", "MB", "lower"},
}

var perLayer = []metricDef{
	{"host.s12_s", "s", "lower"},
	{"host.s2_s", "s", "lower"},
	{"host.s3_s", "s", "lower"},
	{"host.rows_per_s", "1/s", "higher"},
	{"host.worker_busy_share", "share", "higher"},
	{"linalg.s12_bytes", "bytes", "lower"},
	{"linalg.s12_bw_frac", "share", "higher"},
	{"core.driver_s", "s", "lower"},
	{"checkpoint.save_s", "s", "lower"},
	{"checkpoint.fsync_s", "s", "lower"},
	{"checkpoint.bytes", "bytes", "lower"},
	{"checkpoint.encode_mbps", "MB/s", "higher"},
	{"checkpoint.decode_mbps", "MB/s", "higher"},
	{"shard.exchange_bytes", "bytes", "lower"},
	{"shard.worker_compute_s", "s", "lower"},
	{"shard.gather_wait_s", "s", "lower"},
	{"shard.broadcast_s", "s", "lower"},
	{"shard.straggler_s", "s", "lower"},
	{"shard.first_half_s", "s", "lower"},
	{"serve.cache_hit_ratio", "share", "higher"},
	{"serve.cache_lookup_s", "s", "lower"},
	{"serve.swap_s", "s", "lower"},
	{"serve.foldin_solve_s", "s", "lower"},
	{"serve.handler_self_s", "s", "lower"},
	{"serve.scan_s", "s", "lower"},
	{"serve.scan_ns_per_item", "ns", "lower"},
	{"serve.scan_bw_frac", "share", "higher"},
	{"frontend.hop_s", "s", "lower"},
	{"frontend.hop_spread_s", "s", "lower"},
	{"frontend.merge_s", "s", "lower"},
	{"frontend.foldin_s", "s", "lower"},
	{"frontend.retries", "count", "lower"},
	{"frontend.partials", "count", "lower"},
	{"http.transport_s", "s", "lower"},
	{"loadgen.lateness_ms", "ms", "lower"},
	{"rtrace.overhead_share", "share", "lower"},
	{"runtime.gc_pause_s", "s", "lower"},
	{"runtime.alloc_bytes_per_op", "bytes", "lower"},
	{"probe.stream_l3_gbps", "GB/s", "higher"},
	{"probe.stream_dram_gbps", "GB/s", "higher"},
}

// workloads maps each workload name to its driver.
var workloads = map[string]func(*runCtx) (*outcome, error){
	"train-explicit": func(rc *runCtx) (*outcome, error) { return runTraining(rc, specExplicit) },
	"train-implicit": func(rc *runCtx) (*outcome, error) { return runTraining(rc, specImplicit) },
	"train-dist":     func(rc *runCtx) (*outcome, error) { return runTraining(rc, specDist) },
	"serve-zipf":     func(rc *runCtx) (*outcome, error) { return runServing(rc, specZipf) },
	"fleet-i8":       func(rc *runCtx) (*outcome, error) { return runServing(rc, specFleet) },
}

const (
	// setupReps and setupMin: an untraced run sets up at least setupReps
	// times and for at least setupMin in all, so a set-up that takes a
	// fraction of a second still has its median read off enough samples;
	// setup_s is that median.
	setupReps = 3
	setupMin  = 1500 * time.Millisecond
	// minTrainings is the fewest trainings a run times, however short the
	// window.
	minTrainings = 3
)

// runCtx is one invocation's settings and shared state.
type runCtx struct {
	seed    int64
	seconds int
	trace   bool
	mach    machine

	once     sync.Once
	ceilings ceilings
}

func (rc *runCtx) window() time.Duration { return time.Duration(rc.seconds) * time.Second }

// moreSetups reports whether the run sets up again after n set-ups begun
// spent ago. A traced run sets up once.
func (rc *runCtx) moreSetups(n int, spent time.Duration) bool {
	if rc.trace {
		return n < 1
	}
	return n < setupReps || spent < setupMin
}

// ceil measures the bandwidth ceilings on first use.
func (rc *runCtx) ceil() ceilings {
	rc.once.Do(func() { rc.ceilings = probeCeilings(rc.mach.LLCBytes) })
	return rc.ceilings
}

// outcome is what a workload driver hands back.
type outcome struct {
	correct           bool
	attempted, failed int
	e2e, layer        map[string]float64
	// info holds reported-only figures (not gated): recall@10 and the
	// error rate on every workload, the cache hit ratio on serving ones.
	info     map[string]float64
	notes    []string
	problems []string
	errs     []string
}

func newOutcome() *outcome {
	return &outcome{correct: true, e2e: map[string]float64{}, layer: map[string]float64{},
		info: map[string]float64{}}
}

func (o *outcome) notef(format string, args ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

// check records a correctness check; a failed one fails the run.
func (o *outcome) check(ok bool, format string, args ...any) {
	if !ok {
		o.correct = false
		o.problems = append(o.problems, fmt.Sprintf(format, args...))
	}
}

// noteErr keeps the first few operation errors for the report.
func (o *outcome) noteErr(msg string) {
	if len(o.errs) < 5 {
		o.errs = append(o.errs, msg)
	}
}

func (o *outcome) errorRate() float64 {
	if o.attempted == 0 {
		return 0
	}
	return float64(o.failed) / float64(o.attempted)
}

// memWatch samples the Go heap while a measurement runs and tracks GC
// pauses and allocation volume.
type memWatch struct {
	stopc chan struct{}
	done  chan struct{}
	peak  uint64
	start runtimeSample
}

type runtimeSample struct {
	gcPause time.Duration
	alloc   uint64
}

func (s *runtimeSample) read() {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s.gcPause, s.alloc = time.Duration(ms.PauseTotalNs), ms.TotalAlloc
}

type memResult struct {
	peakMB     float64
	gcPause    time.Duration
	allocBytes uint64
}

const heapObjects = "/memory/classes/heap/objects:bytes"

func startMemWatch() *memWatch {
	runtime.GC()
	w := &memWatch{stopc: make(chan struct{}), done: make(chan struct{})}
	w.start.read()
	go func() {
		defer close(w.done)
		sample := []metrics.Sample{{Name: heapObjects}}
		t := time.NewTicker(2 * time.Millisecond)
		defer t.Stop()
		for {
			metrics.Read(sample)
			if v := sample[0].Value.Uint64(); v > w.peak {
				w.peak = v
			}
			select {
			case <-w.stopc:
				return
			case <-t.C:
			}
		}
	}()
	return w
}

func (w *memWatch) stop() memResult {
	close(w.stopc)
	<-w.done
	var end runtimeSample
	end.read()
	return memResult{
		peakMB:     float64(w.peak) / (1 << 20),
		gcPause:    end.gcPause - w.start.gcPause,
		allocBytes: end.alloc - w.start.alloc,
	}
}

// result is the contract's final output line.
type result struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]metricJSON `json:"metrics"`
}

type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	workload := flag.String("workload", "", "workload name: "+strings.Join(workloadNames(), ", "))
	seed := flag.Int64("seed", 1, "input seed: the same seed gives the same datasets and request streams")
	seconds := flag.Int("seconds", 16, "measurement window in seconds")
	trace := flag.Int("trace", 0, "1 reports per-layer metrics from a traced run, 0 end-to-end metrics")
	flag.Parse()
	run, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "usage: benchmark --workload {%s} --seed N --seconds S --trace {0|1}\n",
			strings.Join(workloadNames(), "|"))
		os.Exit(2)
	}
	rc := &runCtx{seed: *seed, seconds: *seconds, trace: *trace == 1, mach: readMachine()}
	os.Exit(report(*workload, rc, run))
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// report runs the workload, prints the human-readable report and the
// result line, and returns the exit code: nonzero when the run errored or
// any correctness check failed.
func report(name string, rc *runCtx, run func(*runCtx) (*outcome, error)) int {
	mj, _ := json.Marshal(rc.mach)
	fmt.Printf("machine %s\n", mj)
	fmt.Printf("workload %s seed %d window %ds trace %v\n", name, rc.seed, rc.seconds, rc.trace)
	start := time.Now()
	out, err := run(rc)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", name, err)
		return 1
	}
	if rc.trace {
		c := rc.ceil()
		out.layer["probe.stream_l3_gbps"] = c.L3GBps
		out.layer["probe.stream_dram_gbps"] = c.DRAMGBps
	}
	for _, n := range out.notes {
		fmt.Println("  " + n)
	}
	for _, e := range out.errs {
		fmt.Println("  error: " + e)
	}
	res := result{Attempted: out.attempted, Failed: out.failed, Metrics: map[string]metricJSON{}}
	defs, vals := endToEnd, out.e2e
	if rc.trace {
		defs, vals = perLayer, out.layer
	}
	for _, d := range defs {
		// A layer the workload does not use reads 0; an end-to-end metric
		// never may.
		v := vals[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			out.check(false, "metric %s is %v", d.name, v)
			v = 0
		}
		if !rc.trace && v == 0 {
			out.check(false, "end-to-end metric %s was not measured", d.name)
		}
		res.Metrics[d.name] = metricJSON{Value: v, Unit: d.unit}
		fmt.Printf("  %-28s %14.6g %s\n", d.name, v, d.unit)
	}
	var infos []string
	for k := range out.info {
		infos = append(infos, k)
	}
	sort.Strings(infos)
	for _, k := range infos {
		fmt.Printf("  %-28s %14.6g (reported, not gated)\n", k, out.info[k])
	}
	res.Correct = out.correct
	for _, p := range out.problems {
		fmt.Println("  CHECK FAILED: " + p)
	}
	fmt.Printf("  attempted %d failed %d, %.1fs\n", out.attempted, out.failed, time.Since(start).Seconds())
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}
