package main

import (
	"bufio"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Spans are recorded by the benchmark's own wrappers around the public
// entry points of each layer — the client, the http.Handler of every
// node, and the cluster's node-to-node http.Client — never inside the
// program. Spans of one request share Req; Parent links a span to the
// span that caused it, across the forward hop via two headers.
const (
	hdrReq  = "X-Perfbench-Req"
	hdrSpan = "X-Perfbench-Span"
	// maxSpans bounds the in-memory span log of one traced run.
	maxSpans = 1 << 20
)

// span is one timed interval at a layer boundary. Times are nanoseconds
// since the tracer was created.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Req    uint64 `json:"req"`
	Name   string `json:"name"`
	Node   int    `json:"node"` // -1 for client spans
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Bytes  int64  `json:"bytes,omitempty"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps spans in memory until the run writes them out. A nil
// *tracer records nothing, so untraced runs share the traced code paths.
type tracer struct {
	base    time.Time
	ids     atomic.Uint64
	mu      sync.Mutex
	spans   []span
	dropped int
}

func newTracer() *tracer { return &tracer{base: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.base)) }

func (t *tracer) add(s span) {
	t.mu.Lock()
	if len(t.spans) < maxSpans {
		t.spans = append(t.spans, s)
	} else {
		t.dropped++
	}
	t.mu.Unlock()
}

// clientSpan opens a client span for req, tagging it with the request's
// identity; the returned func closes it.
func (t *tracer) clientSpan(req *http.Request, name string) func() {
	if t == nil {
		return func() {}
	}
	id := t.ids.Add(1)
	req.Header.Set(hdrReq, strconv.FormatUint(id, 10))
	req.Header.Set(hdrSpan, strconv.FormatUint(id, 10))
	start := t.now()
	return func() {
		t.add(span{ID: id, Req: id, Name: name, Node: -1, Start: start, End: t.now(), Bytes: req.ContentLength})
	}
}

type spanCtxKey struct{}

type spanRef struct{ id, req uint64 }

// handler wraps one node's whole http.Handler: serve.handler spans the
// request/response endpoints, serve.stream a whole NDJSON session.
// Node-to-node control traffic (/cluster/) is not traced.
func (t *tracer) handler(node int, h http.Handler) http.Handler {
	if t == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasPrefix(r.URL.Path, "/cluster/") {
			h.ServeHTTP(w, r)
			return
		}
		req, _ := strconv.ParseUint(r.Header.Get(hdrReq), 10, 64) // absent on untagged requests: 0
		parent, _ := strconv.ParseUint(r.Header.Get(hdrSpan), 10, 64)
		id := t.ids.Add(1)
		name := "serve.handler"
		if r.URL.Path == "/v1/assess/stream" {
			name = "serve.stream"
		}
		body := &countingBody{ReadCloser: r.Body}
		r.Body = body
		start := t.now()
		h.ServeHTTP(w, r.WithContext(context.WithValue(r.Context(), spanCtxKey{}, spanRef{id: id, req: req})))
		t.add(span{ID: id, Parent: parent, Req: req, Name: name, Node: node, Start: start, End: t.now(), Bytes: body.n.Load()})
	})
}

// countingBody counts the request bytes a handler reads: a stream's
// length is not known up front. A handler may read from another
// goroutine, so the count is atomic.
type countingBody struct {
	io.ReadCloser
	n atomic.Int64
}

func (b *countingBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n.Add(int64(n))
	return n, err
}

// hopTransport times the cluster's forward hop: it is the RoundTripper of
// cluster.Config.Client, so it sees every node-to-node request; those
// made on behalf of a traced request become cluster.hop spans, ending
// when the relayed body is closed.
type hopTransport struct {
	t    *tracer
	node int
	next http.RoundTripper
}

func (h hopTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	ref, ok := r.Context().Value(spanCtxKey{}).(spanRef)
	if !ok || h.t == nil {
		return h.next.RoundTrip(r)
	}
	id := h.t.ids.Add(1)
	r = r.Clone(r.Context())
	r.Header.Set(hdrReq, strconv.FormatUint(ref.req, 10))
	r.Header.Set(hdrSpan, strconv.FormatUint(id, 10))
	s := span{ID: id, Parent: ref.id, Req: ref.req, Name: "cluster.hop", Node: h.node, Start: h.t.now(), Bytes: r.ContentLength}
	resp, err := h.next.RoundTrip(r)
	if err != nil {
		s.End = h.t.now()
		h.t.add(s)
		return nil, err
	}
	resp.Body = &hopBody{ReadCloser: resp.Body, end: func() { s.End = h.t.now(); h.t.add(s) }}
	return resp, nil
}

type hopBody struct {
	io.ReadCloser
	once sync.Once
	end  func()
}

func (b *hopBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(b.end)
	return err
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval covered by its children.
func selfTimes(spans []span) map[uint64]int64 {
	kids := map[uint64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := make(map[uint64]int64, len(spans))
	for _, s := range spans {
		out[s.ID] = s.dur() - covered(s, kids[s.ID])
	}
	return out
}

// covered is the length of the union of the children's intervals clipped
// to the parent's.
func covered(parent span, kids []span) int64 {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		a, b := max(k.Start, parent.Start), min(k.End, parent.End)
		if b > a {
			iv = append(iv, [2]int64{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curA, curB int64
	open := false
	for _, x := range iv {
		switch {
		case !open:
			curA, curB, open = x[0], x[1], true
		case x[0] <= curB:
			curB = max(curB, x[1])
		default:
			total += curB - curA
			curA, curB = x[0], x[1]
		}
	}
	if open {
		total += curB - curA
	}
	return total
}

// writeSpans writes the span log as JSON lines.
func (t *tracer) writeSpans(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
