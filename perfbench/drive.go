package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// client speaks HTTP/1.1 over keep-alive loopback connections, writing
// each request and parsing its response on the calling goroutine.
// net/http's Transport hands every request between three goroutines;
// on a 2-CPU host those cross-CPU wake-ups were much of a cached
// answer's round trip and of its run-to-run spread, and they are the
// harness's cost, not the server's.
type client struct {
	addr string
	mu   sync.Mutex
	idle []*conn
}

type conn struct {
	nc net.Conn
	br *bufio.Reader
	bw *bufio.Writer
}

// requestTimeout bounds one round trip, so a wedged server fails the
// run instead of hanging it.
const requestTimeout = 60 * time.Second

func newClient(addr string) *client { return &client{addr: addr} }

// close closes the idle connections.
func (c *client) close() {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, k := range c.idle {
		k.nc.Close()
	}
	c.idle = nil
}

func (c *client) take() (*conn, error) {
	c.mu.Lock()
	if n := len(c.idle); n > 0 {
		k := c.idle[n-1]
		c.idle = c.idle[:n-1]
		c.mu.Unlock()
		return k, nil
	}
	c.mu.Unlock()
	nc, err := net.Dial("tcp", c.addr)
	if err != nil {
		return nil, err
	}
	return &conn{nc: nc, br: bufio.NewReader(nc), bw: bufio.NewWriter(nc)}, nil
}

// roundTrip sends one request with the given extra header lines and
// body, and returns the response status and body.
func (c *client) roundTrip(method, path, header string, body []byte) (int, []byte, error) {
	k, err := c.take()
	if err != nil {
		return 0, nil, err
	}
	k.nc.SetDeadline(time.Now().Add(requestTimeout))
	fmt.Fprintf(k.bw, "%s %s HTTP/1.1\r\nHost: %s\r\n%s", method, path, c.addr, header)
	if body != nil {
		fmt.Fprintf(k.bw, "Content-Length: %d\r\n", len(body))
	}
	k.bw.WriteString("\r\n")
	k.bw.Write(body)
	if err := k.bw.Flush(); err != nil {
		k.nc.Close()
		return 0, nil, err
	}
	resp, err := http.ReadResponse(k.br, nil)
	if err != nil {
		k.nc.Close()
		return 0, nil, err
	}
	out, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.Close {
		k.nc.Close()
	} else {
		c.mu.Lock()
		c.idle = append(c.idle, k)
		c.mu.Unlock()
	}
	return resp.StatusCode, out, err
}

// answer is the subset of the /v1/estimate and /v1/query bodies the
// benchmark checks.
type answer struct {
	Estimate float64 `json:"estimate"`
	Count    int64   `json:"count"`
	Degraded bool    `json:"degraded"`
}

// reply is one completed request.
type reply struct {
	status int
	err    error
	ans    answer
}

// get sends GET path; id ≥ 0 is sent in the request-ID header.
func (c *client) get(path string, id int64) reply {
	header := ""
	if id >= 0 {
		header = idHeader + ": " + strconv.FormatInt(id, 10) + "\r\n"
	}
	status, body, err := c.roundTrip(http.MethodGet, path, header, nil)
	r := reply{status: status, err: err}
	if err == nil && status/100 == 2 {
		r.err = json.Unmarshal(body, &r.ans)
	}
	return r
}

// sample is one measured read: which stream entry, when it was sent
// (from the phase start), its client-observed latency, the request ID,
// and the answer.
type sample struct {
	idx int32
	ok  bool
	at  int64
	lat int64
	id  int64
	ans answer
}

// loopResult is a closed-loop phase's record.
type loopResult struct {
	reads   []sample
	elapsed time.Duration
}

func (l *loopResult) latencies() samples {
	s := make(samples, 0, len(l.reads))
	for _, r := range l.reads {
		if r.ok {
			s = append(s, r.lat)
		}
	}
	return s
}

// closedLoop runs workers clients for dur: each sends its next request
// only after the previous one completed. pick maps the n-th request of
// the phase to a stream index; false ends the phase early (the stream
// is exhausted). ids offsets request IDs so phases never collide.
func closedLoop(ctx context.Context, cl *client, workers int, dur time.Duration, req *requests, pick func(n int64) (int, bool), idBase int64) *loopResult {
	var next atomic.Int64
	deadline := time.Now().Add(dur)
	per := make([][]sample, workers)
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			out := make([]sample, 0, 1<<15)
			for time.Now().Before(deadline) && ctx.Err() == nil {
				n := next.Add(1) - 1
				i, ok := pick(n)
				if !ok {
					break
				}
				t0 := time.Now()
				r := cl.get(req.path(i), idBase+n)
				lat := int64(time.Since(t0))
				out = append(out, sample{idx: int32(i), ok: r.err == nil && r.status == http.StatusOK, at: int64(t0.Sub(start)), lat: lat, id: idBase + n, ans: r.ans})
			}
			per[w] = out
		}(w)
	}
	wg.Wait()
	res := &loopResult{elapsed: time.Since(start)}
	for _, p := range per {
		res.reads = append(res.reads, p...)
	}
	return res
}

// writeResult is the open-loop writer's record.
type writeResult struct {
	lat    samples // from due time to response
	lag    samples // from due time to send
	sent   int
	failed int
	added  []int // indexes of the documents the server accepted
}

// openLoopWriter POSTs docs[first+i] at start+i*interval regardless of
// how the previous add went, until ctx ends or the documents run out.
// Latency is timed from when each add was due, so a stall charges the
// adds queued behind it. An add in flight when ctx ends completes.
func openLoopWriter(ctx context.Context, cl *client, docs []writeDoc, first int, interval time.Duration) *writeResult {
	res := &writeResult{}
	start := time.Now()
	for i := first; i < len(docs); i++ {
		d := docs[i]
		due := start.Add(time.Duration(i-first) * interval)
		if wait := time.Until(due); wait > 0 {
			t := time.NewTimer(wait)
			select {
			case <-ctx.Done():
				t.Stop()
				return res
			case <-t.C:
			}
		}
		if ctx.Err() != nil {
			return res
		}
		res.sent++
		res.lag = append(res.lag, int64(time.Since(due)))
		status, _, err := cl.roundTrip(http.MethodPost, "/v1/docs/"+d.name, "Content-Type: application/xml\r\n", d.xml)
		ok := err == nil && status == http.StatusCreated
		res.lat = append(res.lat, int64(time.Since(due)))
		if ok {
			res.added = append(res.added, i)
		} else {
			res.failed++
		}
	}
	return res
}
