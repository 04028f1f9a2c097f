package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/rtrace"
)

// request is one generated operation: a top-N read for a user, or a
// fold-in write naming that user with some of its ratings.
type request struct {
	user    int
	foldin  bool
	items   []int32
	ratings []float32
}

// reply is what the benchmark keeps from one answer for the correctness
// checks.
type reply struct {
	version string
	items   []int
	partial bool
}

// client is one load-generator connection: a transport limited to a
// single connection, so the generator never holds more than len(clients)
// connections.
type client struct{ hc *http.Client }

func newClients(n int) []*client {
	out := make([]*client, n)
	for i := range out {
		out[i] = &client{hc: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, IdleConnTimeout: time.Minute,
		}}}
	}
	return out
}

func closeClients(cs []*client) {
	for _, c := range cs {
		c.hc.CloseIdleConnections()
	}
}

// do sends one request. The traceparent header names trace id so the
// server-side root span can be matched with the client-side timing.
func (c *client) do(ctx context.Context, base string, r request, id uint64) (reply, error) {
	var req *http.Request
	var err error
	if r.foldin {
		user := int64(r.user)
		body, _ := json.Marshal(map[string]any{"items": r.items, "ratings": r.ratings, "n": 10, "user": user})
		req, err = http.NewRequestWithContext(ctx, http.MethodPost, base+"/v1/foldin", bytes.NewReader(body))
		if err == nil {
			req.Header.Set("Content-Type", "application/json")
		}
	} else {
		req, err = http.NewRequestWithContext(ctx, http.MethodGet,
			fmt.Sprintf("%s/v1/recommend?user=%d&n=10", base, r.user), nil)
	}
	if err != nil {
		return reply{}, err
	}
	rtrace.Inject(req.Header, rtrace.SpanContext{Trace: rtrace.TraceID(id), Span: rtrace.SpanID(id), Sampled: true})
	resp, err := c.hc.Do(req)
	if err != nil {
		return reply{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		io.Copy(io.Discard, resp.Body)
		return reply{}, fmt.Errorf("status %d", resp.StatusCode)
	}
	var body struct {
		Version string `json:"version"`
		Items   []struct {
			Item int `json:"item"`
		} `json:"items"`
		Partial bool `json:"partial"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		return reply{}, err
	}
	out := reply{version: body.Version, partial: body.Partial}
	for _, it := range body.Items {
		out.items = append(out.items, it.Item)
	}
	if out.partial {
		return out, fmt.Errorf("partial answer")
	}
	return out, nil
}

// schedule is an open-loop run's record: openLoop's due/sent/done per
// request (offsets from the schedule start), plus when a connection
// actually started each request and the trace id it carried.
type schedule struct {
	openLoop
	start   []time.Duration
	replies []reply
	errs    []error
	ids     []uint64
}

// runOpenLoop offers reqs at a fixed rate regardless of how fast answers
// come back: request i falls due at i/rate. The generator releases each
// request when due to whichever of the clients is free; latency is timed
// from the due time. When more than abortBacklog requests are released but
// unstarted, the schedule is lost: nothing more is started, requests in
// flight finish, and the ones never started count as missing every limit
// without having been attempted. idBase makes trace ids unique across
// schedules.
func runOpenLoop(ctx context.Context, base string, cs []*client, reqs []request, rate float64, abortBacklog int, idBase uint64) *schedule {
	n := len(reqs)
	s := &schedule{
		openLoop: openLoop{due: make([]time.Duration, n), sent: make([]time.Duration, n),
			done: make([]time.Duration, n), ok: make([]bool, n)},
		start: make([]time.Duration, n), replies: make([]reply, n), errs: make([]error, n),
		ids: make([]uint64, n),
	}
	for i := range reqs {
		s.due[i] = time.Duration(float64(i) / rate * float64(time.Second))
		s.sent[i], s.done[i], s.start[i] = -1, -1, -1
		s.ids[i] = idBase + uint64(i) + 1
	}
	// Buffered to the number of sends: the generator never blocks on a busy
	// connection, so its own lateness stays visible apart from queueing.
	work := make(chan int, n)
	var lost atomic.Bool
	t0 := time.Now()
	var wg sync.WaitGroup
	for _, c := range cs {
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			for i := range work {
				if lost.Load() {
					continue
				}
				s.start[i] = time.Since(t0)
				rep, err := c.do(ctx, base, reqs[i], s.ids[i])
				s.done[i] = time.Since(t0)
				s.replies[i], s.errs[i], s.ok[i] = rep, err, err == nil
			}
		}(c)
	}
	for i := 0; i < n; i++ {
		if wait := s.due[i] - time.Since(t0); wait > 0 {
			time.Sleep(wait)
		}
		if len(work) > abortBacklog {
			lost.Store(true)
			break
		}
		s.sent[i] = time.Since(t0)
		work <- i
	}
	close(work)
	wg.Wait()
	return s
}

// attempts counts the requests a connection started, and of those the
// ones that failed.
func (s *schedule) attempts() (attempted, failed int) {
	for i := range s.ok {
		if s.start[i] >= 0 {
			attempted++
			if !s.ok[i] {
				failed++
			}
		}
	}
	return attempted, failed
}

// serviceTimes returns, per completed request, the client-side time from
// the connection starting it to the answer, keyed by trace id.
func (s *schedule) serviceTimes() map[uint64]time.Duration {
	out := make(map[uint64]time.Duration, len(s.ok))
	for i := range s.ok {
		if s.ok[i] && s.start[i] >= 0 {
			out[s.ids[i]] = s.done[i] - s.start[i]
		}
	}
	return out
}
