package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"
	"time"

	"repro/internal/rtrace"
)

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{0, 0},
		{19, 0},    // even the median leaves only 9 beyond
		{20, 50},   // 10 beyond the median
		{39, 50},   // p75 leaves 9
		{40, 75},   // p75 leaves exactly 10
		{100, 90},  // p95 leaves 5
		{200, 95},  // p95 leaves 10
		{999, 95},  // p99 leaves 9
		{1000, 99}, // p99 leaves exactly 10
		{100000, 99},
	} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %g, want %g", c.n, got, c.want)
		}
		if q := tailPercentile(c.n); q > 0 && beyond(c.n, q) < minBeyond {
			t.Errorf("n=%d: p%g has only %d samples beyond", c.n, q, beyond(c.n, q))
		}
	}
}

func TestSummarize(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i + 1) // 1..1000
	}
	s := summarize(xs)
	if s.N != 1000 || s.TailQ != 99 || s.Tail != 990 || s.P50 != 500 {
		t.Fatalf("summarize(1..1000) = %+v, want N 1000, p99 990, p50 500", s)
	}
	if few := summarize([]float64{3, 1, 2}); few.TailQ != 100 || few.Tail != 3 {
		t.Fatalf("three samples: %+v, want the maximum reported as p100", few)
	}
}

func TestLowQuartile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3, 8, 7, 6}
	if got := lowQuartile(xs); got != 2 {
		t.Errorf("lowQuartile(1..8) = %g, want 2 (nearest rank 2 of 8)", got)
	}
	if xs[0] != 5 {
		t.Error("lowQuartile reordered its input")
	}
	if got := lowQuartile([]float64{0.9, 0.7, 1.4}); got != 0.7 {
		t.Errorf("lowQuartile of three = %g, want the fastest, 0.7", got)
	}
}

func TestWindows(t *testing.T) {
	ms := time.Millisecond
	// 4000 requests at 1000/s answered in 1ms, except that a stall at 1s
	// holds 50 requests for 30ms: the first window's p99 shows it, the
	// second window's does not.
	o := steady(4000, 1000, ms)
	for i := 1000; i < 1050; i++ {
		o.done[i] = o.due[i] + 30*ms
	}
	ws := o.windows(2)
	if len(ws) != 2 || ws[0].N != 2000 || ws[1].N != 2000 {
		t.Fatalf("windows(2) = %+v, want two windows of 2000", ws)
	}
	if ws[0].TailQ != 99 || ws[0].Tail != 0.030 || ws[1].Tail != 0.001 {
		t.Errorf("window tails p%g %g and %g, want p99 0.030 then 0.001", ws[0].TailQ, ws[0].Tail, ws[1].Tail)
	}
	if ws[0].P50 != 0.001 {
		t.Errorf("window p50 = %g, want 0.001", ws[0].P50)
	}
	if got := len(o.windows(10000)); got != 4000 {
		t.Errorf("more windows than requests: got %d windows, want one per request", got)
	}
}

func span(id, parent uint64, start, dur time.Duration) rtrace.SpanRecord {
	t0 := time.Unix(0, 0)
	return rtrace.SpanRecord{ID: rtrace.SpanID(id), Parent: rtrace.SpanID(parent),
		Start: t0.Add(start), Dur: dur}
}

func TestSelfTime(t *testing.T) {
	ms := time.Millisecond
	spans := []rtrace.SpanRecord{
		span(1, 0, 0, 10*ms),      // root [0,10)
		span(2, 1, 1*ms, 3*ms),    // child [1,4)
		span(3, 1, 2*ms, 4*ms),    // overlapping child [2,6): union with 2 is [1,6)
		span(4, 1, 8*ms, 5*ms),    // child sticking out [8,13): clipped to [8,10)
		span(5, 2, 1*ms, 3*ms),    // grandchild covers all of span 2
		span(6, 3, 2500000, 1*ms), // grandchild [2.5,3.5) inside span 3
	}
	got := selfTime(spans)
	want := map[rtrace.SpanID]time.Duration{
		1: 10*ms - 5*ms - 2*ms, // [1,6) and [8,10) covered
		2: 0,
		3: 3 * ms,
		4: 5 * ms,
		5: 3 * ms,
		6: 1 * ms,
	}
	for id, w := range want {
		if got[id] != w {
			t.Errorf("self time of span %d = %v, want %v", id, got[id], w)
		}
	}
}

func TestOpenLoopLatencyFromDueTime(t *testing.T) {
	ms := time.Millisecond
	// Three requests due every 10ms. The first stalls for 25ms, so the
	// second is handed out late and the third waits behind it: timing from
	// the due time charges both for the stall.
	o := &openLoop{
		due:  []time.Duration{0, 10 * ms, 20 * ms},
		sent: []time.Duration{0, 11 * ms, 20 * ms},
		done: []time.Duration{25 * ms, 27 * ms, 29 * ms},
		ok:   []bool{true, true, true},
	}
	lat := o.latencies()
	for i, w := range []float64{0.025, 0.017, 0.009} {
		if math.Abs(lat[i]-w) > 1e-12 {
			t.Errorf("latency %d = %g, want %g", i, lat[i], w)
		}
	}
	late := o.lateness()
	if math.Abs(late[1]-0.001) > 1e-12 || late[0] != 0 || late[2] != 0 {
		t.Errorf("generator lateness = %v, want [0 0.001 0]", late)
	}

	o.ok[2] = false
	if lat := o.latencies(); !math.IsInf(lat[2], 1) {
		t.Errorf("failed request latency = %g, want +Inf (misses every limit)", lat[2])
	}
	o.ok[2], o.done[2], o.sent[2] = true, -1, -1
	if lat := o.latencies(); !math.IsInf(lat[2], 1) {
		t.Errorf("never-sent request latency = %g, want +Inf", lat[2])
	}
	if late := o.lateness(); len(late) != 2 {
		t.Errorf("lateness counts %d requests, want only the 2 sent", len(late))
	}
}

// steady builds an n-request schedule at rate whose every request completes
// svc after it fell due.
func steady(n int, rate float64, svc time.Duration) *openLoop {
	o := &openLoop{}
	for i := 0; i < n; i++ {
		due := time.Duration(float64(i) / rate * float64(time.Second))
		o.due = append(o.due, due)
		o.sent = append(o.sent, due)
		o.done = append(o.done, due+svc)
		o.ok = append(o.ok, true)
	}
	return o
}

func TestBacklogGrowing(t *testing.T) {
	limit := 25 * time.Millisecond
	rate := 1000.0
	// Keeping up: each request takes 2ms, so about 2 are outstanding.
	if o := steady(1000, rate, 2*time.Millisecond); o.backlogGrowing(rate, limit, 2) {
		t.Error("a system answering in 2ms reported a growing backlog")
	}
	// Falling behind: completions run at half the offered rate, so the
	// backlog at the last due time is about half the schedule.
	o := steady(1000, rate, 0)
	for i := range o.done {
		o.done[i] = time.Duration(float64(i+1) / (rate / 2) * float64(time.Second))
	}
	if !o.backlogGrowing(rate, limit, 2) {
		t.Error("a system serving half the offered rate did not report a growing backlog")
	}
	if rungPasses(o, rate, limit, 2) {
		t.Error("an overloaded rung passed")
	}
	if !rungPasses(steady(1000, rate, 2*time.Millisecond), rate, limit, 2) {
		t.Error("a rung answered in 2ms failed")
	}
	// A p99 over the limit fails the rung even with no backlog.
	slow := steady(1000, rate, 2*time.Millisecond)
	for i := 0; i < 20; i++ {
		slow.done[i*50] = slow.due[i*50] + 40*time.Millisecond
	}
	if rungPasses(slow, rate, limit, 2) {
		t.Error("a rung with 2% of requests over the limit passed")
	}
}

func TestCompletedRate(t *testing.T) {
	// 1000 requests due over 0.999s, each answered 1ms after it fell due:
	// the last answer lands at 1s.
	o := steady(1000, 1000, time.Millisecond)
	if got := o.completedRate(); math.Abs(got-1000) > 1e-9 {
		t.Errorf("completedRate = %g, want 1000", got)
	}
	// A failed request is not an answer; the rest still end at 1s.
	o.ok[10] = false
	if got := o.completedRate(); math.Abs(got-999) > 1e-9 {
		t.Errorf("completedRate with one failure = %g, want 999", got)
	}
	if got := (&openLoop{}).completedRate(); got != 0 {
		t.Errorf("completedRate of an empty schedule = %g, want 0", got)
	}
}

func TestLadderRates(t *testing.T) {
	r := ladderRates(ladderBase, ladderStep, ladderRungs)
	if len(r) != ladderRungs || r[0] != ladderBase {
		t.Fatalf("ladder starts %v (len %d)", r[:1], len(r))
	}
	for i := 1; i < len(r); i++ {
		if r[i] <= r[i-1] {
			t.Fatalf("ladder not increasing at %d: %g <= %g", i, r[i], r[i-1])
		}
	}
}

func TestBytesMoved(t *testing.T) {
	// MVLE at bench scale 0.3, k=16: 2,160,035 training ratings pull a
	// 64-byte factor row each per half.
	if got := s12Bytes(2160035, 16); got != 2160035*64 {
		t.Errorf("s12Bytes = %g", got)
	}
	for _, c := range []struct {
		width int
		want  float64
	}{{4, 27375 * 32 * 4}, {2, 27375 * 32 * 2}, {1, 27375 * 32}} {
		if got := scanBytes(27375, 32, c.width); got != c.want {
			t.Errorf("scanBytes(width %d) = %g, want %g", c.width, got, c.want)
		}
	}
	if got := bwFrac(10e9, 2, 10); got != 0.5 {
		t.Errorf("bwFrac(10 GB in 2 s against 10 GB/s) = %g, want 0.5", got)
	}
	if got := bwFrac(1, 0, 10); got != 0 {
		t.Errorf("bwFrac with zero seconds = %g, want 0", got)
	}
}

func TestParseCacheSize(t *testing.T) {
	for in, want := range map[string]int64{"32768K": 32 << 20, "1M": 1 << 20, "512": 512, "x": 0} {
		if got := parseCacheSize(in); got != want {
			t.Errorf("parseCacheSize(%q) = %d, want %d", in, got, want)
		}
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json and the metric tables the
// program reports from in step.
func TestBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("BENCHMARK.json not found next to the benchmark directory")
	}
	var spec struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the program %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("workload %q is not implemented", w.Name)
		}
	}
	check := func(kind string, defs []metricDef, got []struct{ Name, Unit, Better string }) {
		if len(got) != len(defs) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the program %d", kind, len(got), len(defs))
			return
		}
		for i, d := range defs {
			if g := got[i]; g.Name != d.name || g.Unit != d.unit || g.Better != d.better {
				t.Errorf("%s[%d]: BENCHMARK.json %+v, program %+v", kind, i, g, d)
			}
		}
	}
	var e2e []struct{ Name, Unit, Better string }
	for _, m := range spec.EndToEnd {
		e2e = append(e2e, struct{ Name, Unit, Better string }{m.Name, m.Unit, m.Better})
	}
	check("end_to_end", endToEnd, e2e)
	check("per_layer", perLayer, spec.PerLayer)
}
