package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

const (
	// openRate is the fixed arrival rate of the open-loop phase, under
	// half of what the closed loop completes on the recorded host, so the
	// queue does not grow and latency is read below saturation.
	openRate = 1500.0
	// latencyLimit is the open-loop limit from the due time; a failed or
	// mismatched request counts as over it.
	latencyLimit = 5 * time.Millisecond
	// lateAfter is how long after its due time a request may be issued
	// before the generator counts as late.
	lateAfter = time.Millisecond
)

// request is one completed client operation. Times are since the phase
// started: due on the arrival grid, issued by the arrival clock (late
// when the generator ran late), sent once a connection was free, done.
type request struct {
	due, issued, sent, done time.Duration
	swap                    bool
	ok                      bool
}

// client drives the server over loopback HTTP.
type client struct {
	f    *fixture
	http *http.Client
}

func newClient(f *fixture) *client {
	n := maxConns()
	return &client{f: f, http: &http.Client{
		Timeout:   30 * time.Second,
		Transport: &http.Transport{MaxIdleConnsPerHost: n, MaxConnsPerHost: n},
	}}
}

// predict posts one payload and checks the reply against the local
// forward pass.
func (c *client) predict(p payload) bool {
	resp, err := c.http.Post(c.f.url+"/predict", "application/json", bytes.NewReader(p.body))
	if err != nil {
		return false
	}
	var reply struct {
		Predictions []int `json:"predictions"`
	}
	err = json.NewDecoder(resp.Body).Decode(&reply)
	_, _ = io.Copy(io.Discard, resp.Body) // drain so the connection is reused
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK || len(reply.Predictions) != len(p.want) {
		return false
	}
	for i, v := range p.want {
		if reply.Predictions[i] != v {
			return false
		}
	}
	return true
}

// swap hot-swaps the server to the (identical) checkpoint.
func (c *client) swap() bool {
	body, err := json.Marshal(map[string]string{"checkpoint": c.f.ckPath})
	if err != nil {
		return false
	}
	resp, err := c.http.Post(c.f.url+"/admin/swap", "application/json", bytes.NewReader(body))
	if err != nil {
		return false
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode == http.StatusOK
}

// phase runs one load phase of the given number of windows and returns
// every completed request. rate 0 is a closed loop: each connection
// sends its next request when the previous one completes. A positive
// rate is an open loop: request i is due at i/rate whether or not the
// earlier ones have completed, and its latency counts from then.
// In a traced run alternate windows are recorded as request spans under
// one phase span.
func (c *client) phase(name string, ps []payload, windows int, window time.Duration, rate float64, rec *recorder, root handle) []request {
	ph := rec.begin("phase."+name, root)
	length := time.Duration(windows) * window
	start := time.Now()

	// next hands a connection its next request: index, due and issue
	// times, and whether the phase is still on.
	var counter atomic.Int64
	next := func() (int, request, bool) {
		now := time.Since(start)
		return int(counter.Add(1) - 1), request{due: now, issued: now}, now < length
	}
	swapGap := 0
	if rate > 0 {
		// One hot swap in place of a request in the middle of every
		// window: were it every other window, the windows with one and
		// those without would have two different p99s and the median
		// over windows would jump between them.
		swapGap = int(window.Seconds() * rate)
		dueOf := func(i int) time.Duration { return time.Duration(float64(i) / rate * float64(time.Second)) }
		// One slot per request of the phase, so the arrival grid never
		// waits for a connection.
		due := make(chan request, int(length.Seconds()*rate)+1)
		//lint:ignore raw-goroutine the arrival clock; it closes due once the phase length has passed, which is what ends the connections phase waits for
		go func() {
			defer close(due)
			for i := 0; dueOf(i) < length; i++ {
				// The runtime's timers wake up to 1 ms late when every
				// P is idle, longer than a request takes; the kernel's
				// are good to about 0.1 ms.
				for d := dueOf(i) - time.Since(start); d > 0; d = dueOf(i) - time.Since(start) {
					ts := syscall.NsecToTimespec(int64(d))
					_ = syscall.Nanosleep(&ts, nil) // interrupted: the loop sleeps the remainder
				}
				due <- request{due: dueOf(i), issued: time.Since(start)}
			}
		}()
		next = func() (int, request, bool) {
			q, ok := <-due
			return int(counter.Add(1) - 1), q, ok
		}
	}

	perConn := make([][]request, maxConns())
	var wg sync.WaitGroup
	for ci := range perConn {
		wg.Add(1)
		//lint:ignore raw-goroutine one load-generating connection; it returns when the phase length has passed and phase waits for it, and a pool task would share workers with the kernels under test
		go func(ci int) {
			defer wg.Done()
			for {
				i, q, ok := next()
				if !ok {
					return
				}
				q.sent, q.swap = time.Since(start), swapGap > 0 && i%swapGap == swapGap/2
				var h handle
				if int(q.due/window)%2 == 0 {
					h = rec.begin("request", ph)
				}
				if q.swap {
					q.ok = c.swap()
				} else {
					q.ok = c.predict(ps[i%len(ps)])
				}
				rec.end(h)
				q.done = time.Since(start)
				perConn[ci] = append(perConn[ci], q)
			}
		}(ci)
	}
	wg.Wait()
	rec.end(ph)
	var all []request
	for _, qs := range perConn {
		all = append(all, qs...)
	}
	return all
}

// perWindow groups requests by the window their due time falls in.
func perWindow(qs []request, windows int, window time.Duration) [][]request {
	out := make([][]request, windows)
	for _, q := range qs {
		if w := int(q.due / window); w < windows {
			out[w] = append(out[w], q)
		}
	}
	return out
}

// serveStage runs the three phases — the closed loops for two ninths of
// budget each, the open loop for five: its p99 is the noisiest number of
// the run and a median over ten windows holds it steadier than one over
// six — and returns the closed loop's median 1-row latency in
// microseconds.
func serveStage(f *fixture, r *results, rec *recorder, root handle, budget time.Duration, smoke bool) float64 {
	window := time.Second
	if smoke {
		window = 100 * time.Millisecond
	}
	// At least four closed-loop windows: a traced run compares the two
	// recorded with the two unrecorded.
	closedWin := max(4, int(budget*2/9/window))
	openWin := max(2, int(budget*5/9/window))
	c := newClient(f)
	defer c.http.CloseIdleConnections()
	count := func(qs []request) {
		bad := 0
		for _, q := range qs {
			if !q.ok {
				bad++
			}
		}
		r.ops(len(qs), bad, "requests failed or differed from the local forward pass")
	}
	// rates returns completions per second of each window, and the
	// ratio of recorded to unrecorded windows.
	rates := func(qs []request, perReq float64) (all []float64, overheadPct float64) {
		var on, off []float64
		for w, win := range perWindow(qs, closedWin, window) {
			v := float64(len(win)) * perReq / window.Seconds()
			all = append(all, v)
			if w%2 == 0 {
				on = append(on, v)
			} else {
				off = append(off, v)
			}
		}
		return all, 100 * (median(off)/median(on) - 1)
	}

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	small := c.phase("small_closed", f.rows1, closedWin, window, 0, rec, root)
	runtime.ReadMemStats(&after)
	count(small)
	smallRates, overhead := rates(small, 1)
	r.add("serve_req_per_s", smallRates...)

	open := c.phase("small_open", f.rows1, openWin, window, openRate, rec, root)
	count(open)
	var late, over, predicts int
	var swapsMS []float64
	for _, win := range perWindow(open, openWin, window) {
		var lat []float64
		for _, q := range win {
			if q.swap {
				swapsMS = append(swapsMS, float64(q.done-q.sent)/1e6)
				continue
			}
			predicts++
			if q.issued-q.due > lateAfter {
				late++
			}
			l := q.done - q.due
			if !q.ok || l > latencyLimit {
				over++
			}
			if !q.ok {
				l = time.Hour // a failed request misses any limit
			}
			lat = append(lat, float64(l)/1e3)
		}
		lat = sortedCopy(lat)
		r.add("serve_p50_us", quantile(lat, 0.5))
		r.add("serve_p99_us", quantile(lat, 0.99))
	}

	bulk := c.phase("bulk_closed", f.rows32, closedWin, window, 0, rec, root)
	count(bulk)
	bulkRates, _ := rates(bulk, 32)
	r.add("serve_rows_per_s", bulkRates...)

	var lat []float64
	for _, q := range small {
		lat = append(lat, float64(q.done-q.sent)/1e3)
	}
	if rec == nil {
		return median(lat)
	}
	r.overhead = append(r.overhead, overhead)
	r.add("serve.swap_ms", swapsMS...)
	r.add("serve.late_share", float64(late)/float64(predicts))
	r.add("serve.over_limit_share", float64(over)/float64(predicts))
	r.add("serve.alloc_kb_per_req", float64(after.TotalAlloc-before.TotalAlloc)/1024/float64(len(small)))
	calls := f.reg.Snapshot().Dists["serve.batch.calls"]
	r.add("serve.coalesced_mean", calls.Mean)
	r.add("serve.coalesced_max", float64(f.server.BatchStats().MaxCoalesced))
	return median(lat)
}
