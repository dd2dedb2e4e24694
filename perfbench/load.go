package main

import (
	"bufio"
	"bytes"
	"fmt"
	"hash/maphash"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// clients is the generator's concurrency: nproc on the 2-core machine the
// benchmark was sized on. Each client goroutine has its own transport, so
// at most this many connections carry traffic at once.
const clients = 2

// phase is the measured window, cut into n equal slices. Per-slice
// figures let a report take the median slice, so a stall of the shared
// host during one slice does not decide a whole run's CPU figure.
type phase struct {
	start, end time.Time
	n          int
}

// sliceLen is the target length of one slice of the measured phase.
const sliceLen = 5 * time.Second

func newPhase(start time.Time, seconds time.Duration) phase {
	return phase{start: start, end: start.Add(seconds), n: max(1, int(seconds/sliceLen))}
}

// slice returns the slice holding t, or -1 outside the phase.
func (p phase) slice(t time.Time) int {
	if t.Before(p.start) || !t.Before(p.end) {
		return -1
	}
	return int(int64(t.Sub(p.start)) * int64(p.n) / int64(p.end.Sub(p.start)))
}

// edge returns the start of slice k (k == n is the phase end).
func (p phase) edge(k int) time.Time {
	return p.start.Add(time.Duration(int64(p.end.Sub(p.start)) * int64(k) / int64(p.n)))
}

// blob is one distinct response retained for the oracle: ops that got
// byte-identical answers to the same request share it, so closed loops
// cycling their inputs keep memory bounded while every verdict is checked.
type blob struct {
	op  int
	raw []byte
	n   int // ops answered with exactly these bytes
}

type blobKey struct {
	op int
	h  uint64
}

// record is one client goroutine's tally; records merge after the load.
type record struct {
	lat, qlat []time.Duration // measured op / verdict-read latencies
	late      []time.Duration // send time minus due time (open loop) or previous answer (closed)
	attempted int
	failed    int
	verdicts  int   // verdicts delivered in the measured phase
	delivered int   // verdicts delivered in the whole load
	slices    []int // verdicts delivered in each slice of the measured phase
	blobs     map[blobKey]*blob
	errs      []string
}

// sample records one measured op: t places it in a slice (its due time
// in the open loop, its completion in closed loops).
func (r *record) sample(ph phase, t time.Time, lat time.Duration, verdicts int) {
	k := ph.slice(t)
	if k < 0 {
		return
	}
	if r.slices == nil {
		r.slices = make([]int, ph.n)
	}
	r.lat = append(r.lat, lat)
	r.verdicts += verdicts
	r.slices[k] += verdicts
}

func (r *record) fail(format string, args ...any) {
	r.failed++
	if len(r.errs) < 5 {
		r.errs = append(r.errs, fmt.Sprintf(format, args...))
	}
}

func (r *record) merge(o *record) {
	r.lat = append(r.lat, o.lat...)
	r.qlat = append(r.qlat, o.qlat...)
	r.late = append(r.late, o.late...)
	r.attempted += o.attempted
	r.failed += o.failed
	r.verdicts += o.verdicts
	r.delivered += o.delivered
	if r.slices == nil {
		r.slices = make([]int, len(o.slices))
	}
	for k, v := range o.slices {
		r.slices[k] += v
	}
	for k, b := range o.blobs {
		if have, ok := r.blobs[k]; ok {
			have.n += b.n
		} else {
			r.blobs[k] = b
		}
	}
	for _, e := range o.errs {
		if len(r.errs) < 5 {
			r.errs = append(r.errs, e)
		}
	}
}

var hashSeed = maphash.MakeSeed()

// client is one load goroutine's connection state.
type client struct {
	http *http.Client
	rec  *record
	buf  bytes.Buffer
	tr   *tracer // nil when tracing is off
	ph   phase
}

func newClient(rt http.RoundTripper, tr *tracer) *client {
	return &client{
		http: &http.Client{Transport: rt, Timeout: 30 * time.Second},
		rec:  &record{blobs: map[blobKey]*blob{}},
		tr:   tr,
	}
}

// newTransport is a private keep-alive transport with no proxy and no
// compression, so each client owns its connections.
func newTransport() *http.Transport {
	return &http.Transport{
		Proxy:               nil,
		DisableCompression:  true,
		MaxIdleConnsPerHost: 4,
		IdleConnTimeout:     time.Minute,
	}
}

// keep retains a response for the oracle.
func (c *client) keep(opIdx int, raw []byte) {
	k := blobKey{op: opIdx, h: maphash.Bytes(hashSeed, raw)}
	b, ok := c.rec.blobs[k]
	if !ok {
		b = &blob{op: opIdx, raw: bytes.Clone(raw)}
		c.rec.blobs[k] = b
	}
	b.n++
}

// do sends one request and reads the whole answer into c.buf.
func (c *client) do(method, url string, body []byte, span string) error {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	end := c.tr.clientSpan(req, span)
	defer end()
	resp, err := c.http.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	c.buf.Reset()
	if _, err := c.buf.ReadFrom(resp.Body); err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s %s: %s: %s", method, url, resp.Status, bytes.TrimSpace(c.buf.Bytes()))
	}
	return nil
}

// target is what the load addresses: the entry points and the node that
// owns the model shard (verdict reads go there).
type target struct {
	urls  []string
	owner int
}

// runLoad drives plan p against tg with `clients` goroutines: the open
// loop follows p's schedule, closed loops cycle p.ops until the measured
// phase ends. onEdge(k) runs at the start of each slice of the measured
// phase and, with k == n, at its end.
func runLoad(p *plan, tg target, seconds time.Duration, mk func() *client, onEdge func(k int)) (*record, phase) {
	t0 := time.Now()
	ph := newPhase(t0.Add(warmup), seconds)
	var next atomic.Int64
	var wg sync.WaitGroup
	cs := make([]*client, clients)
	for i := range cs {
		cs[i] = mk()
		cs[i].ph = ph
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			if p.open {
				c.openLoop(p, tg, t0, ph, &next)
			} else {
				c.closedLoop(p, tg, &next)
			}
		}(cs[i])
	}
	phaseDone := make(chan struct{})
	go func() {
		defer close(phaseDone)
		for k := 0; k <= ph.n; k++ {
			time.Sleep(time.Until(ph.edge(k)))
			onEdge(k)
		}
	}()
	wg.Wait()
	<-phaseDone
	out := &record{blobs: map[blobKey]*blob{}, slices: make([]int, ph.n)}
	for _, c := range cs {
		out.merge(c.rec)
		c.http.CloseIdleConnections()
	}
	return out, ph
}

func (c *client) openLoop(p *plan, tg target, t0 time.Time, ph phase, next *atomic.Int64) {
	for {
		i := int(next.Add(1) - 1)
		if i >= len(p.ops) {
			return
		}
		o := &p.ops[i]
		due := t0.Add(o.due)
		if !due.Before(ph.end) {
			return // a shorter load runs a prefix of the schedule
		}
		time.Sleep(time.Until(due))
		if ph.slice(due) >= 0 {
			c.rec.late = append(c.rec.late, time.Since(due))
		}
		c.exec(p, tg, i, i, due)
	}
}

// closedLoop sends each op once the previous one is answered; its
// lateness is the generator's own gap between an answer and the next send.
func (c *client) closedLoop(p *plan, tg target, next *atomic.Int64) {
	var answered time.Time
	for time.Now().Before(c.ph.end) {
		seq := int(next.Add(1) - 1)
		if c.ph.slice(answered) >= 0 {
			c.rec.late = append(c.rec.late, time.Since(answered))
		}
		c.exec(p, tg, seq%len(p.ops), seq, time.Time{})
		answered = time.Now()
	}
}

// exec runs op p.ops[k], the seq-th op of the load. The open loop times
// from due and places the op in the slice of its due time; closed loops
// (zero due) time from the send and place it by its completion.
func (c *client) exec(p *plan, tg target, k, seq int, due time.Time) {
	o := &p.ops[k]
	start := due
	if start.IsZero() {
		start = time.Now()
	}
	at := func(done time.Time) time.Time {
		if due.IsZero() {
			return done
		}
		return due
	}
	switch o.kind {
	case opQuery:
		c.rec.attempted++
		err := c.do(http.MethodGet, tg.urls[tg.owner]+string(o.body), nil, "client.query")
		done := time.Now()
		if err != nil {
			c.rec.fail("verdict read: %v", err)
			return
		}
		if c.ph.slice(at(done)) >= 0 {
			c.rec.qlat = append(c.rec.qlat, done.Sub(start))
		}
	case opAssess, opBatch:
		c.rec.attempted++
		path, span := "/v1/assess", "client.assess"
		if o.kind == opBatch {
			path, span = "/v1/assess/batch", "client.batch"
		}
		err := c.do(http.MethodPost, tg.urls[seq%len(tg.urls)]+path, o.body, span)
		done := time.Now()
		if err != nil {
			c.rec.fail("%s: %v", path, err)
			return
		}
		c.keep(k, c.buf.Bytes())
		c.rec.delivered += len(o.items)
		c.rec.sample(c.ph, at(done), done.Sub(start), len(o.items))
	case opSession:
		c.session(p, tg.urls[seq%len(tg.urls)], k)
	}
}

// session runs one NDJSON stream session: the header, then one chunk per
// item, each timed from its send until its decision line arrives. The
// decision lines are retained as one blob for the oracle.
func (c *client) session(p *plan, base string, k int) {
	o := &p.ops[k]
	pr, pw := io.Pipe()
	req, err := http.NewRequest(http.MethodPost, base+"/v1/assess/stream", pr)
	if err != nil {
		c.rec.attempted++
		c.rec.fail("stream request: %v", err)
		return
	}
	req.Header.Set("Content-Type", "application/x-ndjson")
	end := c.tr.clientSpan(req, "client.session")
	defer end()
	type answer struct {
		resp *http.Response
		err  error
	}
	respc := make(chan answer, 1)
	go func() {
		resp, err := c.http.Do(req)
		respc <- answer{resp, err}
	}()
	var resp *http.Response
	defer func() {
		pw.Close()
		if resp == nil {
			a := <-respc
			resp = a.resp
		}
		if resp != nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	}()
	if _, err := pw.Write(o.body); err != nil {
		c.rec.attempted++
		c.rec.fail("stream header: %v", err)
		return
	}
	var br *bufio.Reader
	c.buf.Reset()
	for i, item := range o.items {
		c.rec.attempted++
		start := time.Now()
		if _, err := pw.Write(p.lines[item]); err != nil {
			c.rec.fail("stream chunk: %v", err)
			return
		}
		if i == 0 {
			a := <-respc
			if a.err != nil {
				c.rec.fail("stream: %v", a.err)
				return
			}
			resp = a.resp
			if resp.StatusCode != http.StatusOK {
				body, _ := io.ReadAll(resp.Body)
				c.rec.fail("stream: %s: %s", resp.Status, bytes.TrimSpace(body))
				return
			}
			br = bufio.NewReaderSize(resp.Body, 4096)
		}
		line, err := br.ReadSlice('\n')
		if err != nil {
			c.rec.fail("stream decision %d: %v", i, err)
			return
		}
		done := time.Now()
		c.buf.Write(line)
		c.rec.sample(c.ph, done, done.Sub(start), 1)
	}
	pw.Close()
	summary, err := br.ReadSlice('\n')
	if err != nil || !bytes.Contains(summary, []byte(`"done":true`)) {
		c.rec.attempted++
		c.rec.fail("stream summary: %q %v", summary, err)
		return
	}
	c.rec.delivered += len(o.items)
	c.keep(k, c.buf.Bytes())
}
