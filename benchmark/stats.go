package main

import (
	"math"
	"sort"
	"time"

	"repro/internal/rtrace"
)

// tailLadder is the set of percentiles a timing's tail is reported at. The
// reported tail is the highest of them that still has at least minBeyond
// samples above it, so a tail is never read off a handful of samples. It
// stops at p99, the percentile the serving latency limit is set on.
var tailLadder = []float64{99, 95, 90, 75, 50}

const minBeyond = 10

// beyond counts the samples strictly above the q-th percentile of n
// samples under the nearest-rank rule: rank ⌈q/100·n⌉ is the percentile,
// everything after it is beyond.
func beyond(n int, q float64) int {
	return n - int(math.Ceil(q*float64(n)/100))
}

// tailPercentile picks the reported tail percentile for n samples: the
// highest ladder entry with at least minBeyond samples beyond it. It
// returns 0 when even the median is not supported (n < 2·minBeyond).
func tailPercentile(n int) float64 {
	for _, q := range tailLadder {
		if beyond(n, q) >= minBeyond {
			return q
		}
	}
	return 0
}

// percentile returns the nearest-rank q-th percentile of xs (sorted in
// place). NaN for an empty slice.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	rank := int(math.Ceil(q * float64(len(xs)) / 100))
	if rank < 1 {
		rank = 1
	}
	return xs[rank-1]
}

// median is the middle value (mean of the two middle values for an even
// count). NaN for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// lowQuartile is the nearest-rank 25th percentile of xs (xs is not
// modified). A run reports repeated timings of one piece of work at their
// lower quartile rather than their median: other tenants of a shared host
// only ever add time, and on the reference host they slow stretches of
// several seconds by up to half, which moves a median whenever such a
// stretch covers most of a run. NaN for an empty slice.
func lowQuartile(xs []float64) float64 {
	return percentile(append([]float64(nil), xs...), 25)
}

// timing summarizes latency samples: the median, the tail at the highest
// supported percentile, and the sample count.
type timing struct {
	N     int
	P50   float64
	TailQ float64
	Tail  float64
}

func summarize(xs []float64) timing {
	s := append([]float64(nil), xs...)
	t := timing{N: len(s), P50: percentile(s, 50), TailQ: tailPercentile(len(s))}
	if t.TailQ > 0 {
		t.Tail = percentile(s, t.TailQ)
	} else if len(s) > 0 {
		// Too few samples for any supported tail: report the maximum and
		// say so through TailQ = 100.
		t.TailQ, t.Tail = 100, percentile(s, 100)
	}
	return t
}

// selfTime returns, for every span in spans, its duration minus the part
// of its interval covered by its direct children (overlapping children
// count once). Children that stick out of the parent's interval are
// clipped to it.
func selfTime(spans []rtrace.SpanRecord) map[rtrace.SpanID]time.Duration {
	type iv struct{ lo, hi time.Time }
	kids := make(map[rtrace.SpanID][]iv)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], iv{s.Start, s.Start.Add(s.Dur)})
		}
	}
	out := make(map[rtrace.SpanID]time.Duration, len(spans))
	for _, s := range spans {
		lo, hi := s.Start, s.Start.Add(s.Dur)
		cs := kids[s.ID]
		sort.Slice(cs, func(a, b int) bool { return cs[a].lo.Before(cs[b].lo) })
		var covered time.Duration
		var curLo, curHi time.Time
		open := false
		for _, c := range cs {
			if c.lo.Before(lo) {
				c.lo = lo
			}
			if c.hi.After(hi) {
				c.hi = hi
			}
			if !c.hi.After(c.lo) {
				continue
			}
			switch {
			case !open:
				curLo, curHi, open = c.lo, c.hi, true
			case c.lo.After(curHi):
				covered += curHi.Sub(curLo)
				curLo, curHi = c.lo, c.hi
			case c.hi.After(curHi):
				curHi = c.hi
			}
		}
		if open {
			covered += curHi.Sub(curLo)
		}
		out[s.ID] = s.Dur - covered
	}
	return out
}

// openLoop holds one open-loop schedule's outcome: each request's due
// time (offset from the schedule start), when the generator actually
// handed it to a connection, and when it completed. A request that failed
// has ok=false; one never completed has done = -1.
type openLoop struct {
	due, sent, done []time.Duration
	ok              []bool
}

// latencies returns each request's latency timed from its due time, so a
// stall also charges the requests queued behind it. Failed or unfinished
// requests get +Inf: they miss any limit.
func (o *openLoop) latencies() []float64 {
	out := make([]float64, len(o.due))
	for i := range o.due {
		if !o.ok[i] || o.done[i] < 0 {
			out[i] = math.Inf(1)
			continue
		}
		out[i] = (o.done[i] - o.due[i]).Seconds()
	}
	return out
}

// windows splits the schedule into k consecutive windows of equal request
// count — equal duration, since requests fall due evenly — and summarizes
// the latencies of each. A latency tail read per window and then taken at
// its median over windows is the tail of a typical stretch: one stall of
// the host decides one window, not the run.
func (o *openLoop) windows(k int) []timing {
	lat := o.latencies()
	k = max(1, min(k, len(lat)))
	out := make([]timing, k)
	for w := range out {
		out[w] = summarize(lat[w*len(lat)/k : (w+1)*len(lat)/k])
	}
	return out
}

// lateness returns how late the generator itself handed each request to a
// free connection, in seconds. With every connection busy this includes
// queueing behind the system under test; the median shows generator lag.
func (o *openLoop) lateness() []float64 {
	out := make([]float64, 0, len(o.due))
	for i := range o.due {
		if o.sent[i] >= 0 {
			out = append(out, (o.sent[i] - o.due[i]).Seconds())
		}
	}
	return out
}

// backlogGrowing reports whether the schedule ended with a growing
// backlog: at the moment the last request fell due, more requests were
// outstanding (due but not completed) than could be in flight if every one
// met the latency limit. With every request within the limit, at most
// rate·limit requests can be outstanding at any moment; a system that keeps
// up never exceeds that (plus one per connection for rounding).
func (o *openLoop) backlogGrowing(rate float64, limit time.Duration, conns int) bool {
	if len(o.due) == 0 {
		return false
	}
	end := o.due[len(o.due)-1]
	outstanding := 0
	for i := range o.due {
		if o.due[i] <= end && (o.done[i] < 0 || !o.ok[i] || o.done[i] > end) {
			outstanding++
		}
	}
	allowed := int(math.Ceil(rate*limit.Seconds())) + conns
	return outstanding > allowed
}

// rungPasses applies the ladder's acceptance rule to one rung: the p99
// latency from due time meets the limit and the backlog is not growing.
func rungPasses(o *openLoop, rate float64, limit time.Duration, conns int) bool {
	lat := o.latencies()
	if len(lat) == 0 {
		return false
	}
	return percentile(lat, 99) <= limit.Seconds() && !o.backlogGrowing(rate, limit, conns)
}

// completedRate is the rate the schedule's requests were answered at: the
// ones answered without error, over the time from the schedule's start to
// the last answer. 0 when none was answered.
func (o *openLoop) completedRate() float64 {
	n := 0
	var last time.Duration
	for i := range o.done {
		if o.ok[i] && o.done[i] >= 0 {
			n++
			last = max(last, o.done[i])
		}
	}
	if n == 0 || last <= 0 {
		return 0
	}
	return float64(n) / last.Seconds()
}

// ladderRates is the fixed geometric ladder of offered rates max_rps is
// read from: base·step^i for i in [0, n).
func ladderRates(base, step float64, n int) []float64 {
	out := make([]float64, n)
	r := base
	for i := range out {
		out[i] = math.Round(r)
		r *= step
	}
	return out
}

// s12Bytes is the computed bytes the fused S1+S2 gather moves in one half
// iteration: every stored rating pulls one k-float row of the fixed
// factor, |Ω|·k·4 bytes. The same count holds for either half, since both
// halves visit every nonzero once.
func s12Bytes(nnz, k int) float64 { return float64(nnz) * float64(k) * 4 }

// scanBytes is the computed bytes one top-N scan reads: every item row of
// k elements at the encoding's width (4 for f32, 2 for f16, 1 for i8).
func scanBytes(items, k, width int) float64 {
	return float64(items) * float64(k) * float64(width)
}

// bwFrac is the achieved bandwidth (bytes over seconds) as a share of a
// measured ceiling in GB/s. 0 when any input is non-positive.
func bwFrac(bytes, seconds, ceilingGBps float64) float64 {
	if bytes <= 0 || seconds <= 0 || ceilingGBps <= 0 {
		return 0
	}
	return bytes / seconds / (ceilingGBps * 1e9)
}
