package main

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"trusthmd/pkg/detector"
	"trusthmd/pkg/serve"
	"trusthmd/pkg/verdictstore"
)

// Direct-call sample sizes of the layer measurements.
const (
	directAssess   = 4000  // AssessInto calls
	directBatches  = 64    // AssessBatchInto calls of batchRows rows
	directSessions = 16    // Session replays of sessionTraces windows
	directFleet    = 250   // sequential Fleet.Assess calls (a lone call waits out MaxWait)
	directAppends  = 20000 // verdict-store appends
	syncEvery      = 2000  // appends between timed Syncs
	directQueries  = 16    // verdict-store queries
	floorRequests  = 2000  // warm GET /healthz round trips
	sideRequests   = 500   // forwarded requests of the side cluster (each waits out MaxWait)
	resolveCalls   = 100000
)

// traced is the --trace 1 run. The seconds are split over three loads
// of the same inputs: the daemons untraced (for the generator's own
// health, which the daemons' separate processes keep measurable), an
// in-process deployment untraced, and the same deployment traced; the
// last two differ only by the spans, so their gap is the tracing
// overhead. Direct calls into each layer follow.
func (b *bench) traced(seconds time.Duration) error {
	third := max(seconds/3, time.Second)

	d, _, err := b.boot(false, b.plan.nodes, nil)
	if err != nil {
		return fmt.Errorf("daemon boot: %w", err)
	}
	daemon, err := b.measure(d, third, func() *client { return newClient(newTransport(), nil) })
	d.stop()
	if err != nil {
		return err
	}
	b.tally("daemon", daemon)

	d, _, err = b.boot(true, b.plan.nodes, nil)
	if err != nil {
		return fmt.Errorf("in-process boot: %w", err)
	}
	plain, err := b.measure(d, third, func() *client { return newClient(newTransport(), nil) })
	d.stop()
	if err != nil {
		return err
	}
	b.tally("in-process", plain)

	tr := newTracer()
	d, _, err = b.boot(true, b.plan.nodes, tr)
	if err != nil {
		return fmt.Errorf("traced boot: %w", err)
	}
	defer d.stop()
	traced, err := b.measure(d, third, func() *client { return newClient(newTransport(), tr) })
	if err != nil {
		return err
	}
	b.tally("traced", traced)
	floor, err := httpFloor(d.urls[0])
	if err != nil {
		return err
	}
	sp := analyzeSpans(tr)
	hop := sp.hopSelfUs
	resolve, err := b.resolveNs(d)
	if err != nil {
		return err
	}
	d.stop()
	if b.plan.nodes == 1 {
		if hop, resolve, err = b.sideCluster(); err != nil {
			return fmt.Errorf("side cluster: %w", err)
		}
	}

	direct, err := b.layerCalls()
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Join(b.work, "spans"), 0o755); err != nil {
		return err
	}
	spanPath := filepath.Join(b.work, "spans", fmt.Sprintf("%s-seed%d.jsonl", b.plan.workload, b.seed))
	if err := tr.writeSpans(spanPath); err != nil {
		return err
	}

	b.set("http.floor_us", floor, "us")
	b.set("serve.handler_us", sp.handlerSelfUs, "us")
	b.set("serve.body_bytes", sp.bodyBytes, "bytes")
	for _, k := range sortedKeys(direct) {
		b.res.Metrics[k] = direct[k]
	}
	b.set("fleet.wait_us", direct["fleet.assess_us"].Value-direct["detector.assess_us"].Value-direct["verdictstore.append_us"].Value, "us")
	f := traced.fleet
	b.set("fleet.batch_mean", frac64(f.queued, f.batches), "count")
	b.set("fleet.shed_frac", frac64(f.shed, f.requests+f.batchRequests+f.sessions+f.shed), "frac")
	b.set("fleet.cache_hit_frac", frac64(f.hits, f.hits+f.misses), "frac")
	b.set("cluster.forward_frac", frac64(traced.forwards, int64(sp.entryOps)), "frac")
	b.set("cluster.hop_us", hop, "us")
	b.set("cluster.resolve_ns", resolve, "ns")
	b.set("gen.late_p99_ms", quantile(millis(daemon.rec.late), 0.99), "ms")
	b.set("gen.cpu_frac", daemon.genCPU.Seconds()/daemon.seconds, "frac")
	dp, pp, tp := p50(daemon), p50(plain), p50(traced)
	b.set("trace.daemon_p50_ms", dp, "ms")
	b.set("trace.inproc_p50_ms", pp, "ms")
	b.set("trace.traced_p50_ms", tp, "ms")
	b.set("trace.overhead_frac", tp/pp-1, "frac")

	m := b.res.Metrics
	for _, k := range sortedKeys(m) {
		fmt.Printf("%-30s %14.4f %s\n", k, m[k].Value, m[k].Unit)
	}
	fmt.Printf("spans: %d recorded (%d dropped) in %s\n", len(tr.spans), tr.dropped, spanPath)
	b.breakdown(daemon)
	return nil
}

func p50(o *outcome) float64 { return quantile(millis(o.rec.lat), 0.5) }

// breakdown prints which layers make up the workload's headline figures:
// the daemons' median latency and their CPU per verdict. Layer figures
// are per-call medians or means from the traced and direct runs, so the
// parts are a decomposition, not an identity; the remainder is printed.
func (b *bench) breakdown(daemon *outcome) {
	m := b.res.Metrics
	v := func(k string) float64 { return m[k].Value }
	type part struct {
		name string
		us   float64
	}
	show := func(title string, total float64, parts []part) {
		fmt.Printf("\n%s\n", title)
		sum := 0.0
		for _, p := range parts {
			fmt.Printf("  %-52s %10.2f us\n", p.name, p.us)
			if !strings.HasPrefix(p.name, " ") { // indented rows are inside the row above
				sum += p.us
			}
		}
		fmt.Printf("  %-52s %10.2f us\n", "remainder (unattributed)", total-sum)
	}

	lat := []part{{"http.floor_us (loopback round trip)", v("http.floor_us")}}
	cpu := []part{{"verdictstore.append_us", v("verdictstore.append_us")}}
	switch b.plan.workload {
	case "assess-single":
		lat = append(lat,
			part{"serve.handler_us (handler self time)", v("serve.handler_us")},
			part{"  inside it, a lone fleet.assess_us call", v("fleet.assess_us")},
			part{"    of which fleet.wait_us (coalescer wait)", v("fleet.wait_us")},
			part{"    of which detector.assess_us", v("detector.assess_us")},
			part{"    of which verdictstore.append_us", v("verdictstore.append_us")},
			part{"generator lateness (median)", 1000 * quantile(millis(daemon.rec.late), 0.5)})
		cpu = append(cpu, part{"detector.assess_us", v("detector.assess_us")})
	case "batch-cluster":
		lat = append(lat,
			part{"serve.handler_us x handler spans per request", v("serve.handler_us") * (1 + v("cluster.forward_frac"))},
			part{"cluster.hop_us x cluster.forward_frac", v("cluster.hop_us") * v("cluster.forward_frac")},
			part{"  of which cluster.resolve_ns", v("cluster.resolve_ns") / 1000})
		// One op in queryEvery is a read; the others carry batchRows verdicts.
		cpu = append(cpu,
			part{"detector.batch_us_per_vector x cache miss share", v("detector.batch_us_per_vector") * (1 - v("fleet.cache_hit_frac"))},
			part{"verdictstore.query_ms per verdict (reads)", 1000 * v("verdictstore.query_ms") / ((queryEvery - 1) * batchRows)})
	case "stream-telemetry":
		lat = append(lat, part{"detector.window_us (Session.Push per decision)", v("detector.window_us")})
		cpu = append(cpu, part{"detector.window_us", v("detector.window_us")})
	}
	show(fmt.Sprintf("latency_p50_ms on the daemons: %.1f us", 1000*p50(daemon)), 1000*p50(daemon), lat)
	if daemon.rec.verdicts > 0 {
		perVerdict := float64(daemon.serverCPU().Nanoseconds()) / 1e3 / float64(daemon.rec.verdicts)
		show(fmt.Sprintf("server_cpu_us_per_verdict on the daemons: %.1f us", perVerdict), perVerdict, cpu)
	}
}

// spanSummary is what the per-layer metrics take from the span log.
type spanSummary struct {
	handlerSelfUs float64 // median self time of a handler span per operation
	hopSelfUs     float64 // median self time of cluster.hop spans
	bodyBytes     float64 // mean request body per operation at the entry node
	entryOps      int     // client assess and batch spans
}

func analyzeSpans(tr *tracer) spanSummary {
	tr.mu.Lock()
	spans := append([]span(nil), tr.spans...)
	tr.mu.Unlock()
	self := selfTimes(spans)
	byID := make(map[uint64]span, len(spans))
	for _, s := range spans {
		byID[s.ID] = s
	}
	var out spanSummary
	var handler, hop []float64
	var bodies, nBodies float64
	for _, s := range spans {
		if s.Req == 0 {
			continue // readiness and stats polling
		}
		us := float64(self[s.ID]) / 1e3
		switch s.Name {
		case "serve.handler", "serve.stream":
			// A stream span is a whole session of sessionTraces
			// operations, one per chunk.
			ops := 1.0
			if s.Name == "serve.stream" {
				ops = sessionTraces
			}
			handler = append(handler, us/ops)
			if p, ok := byID[s.Parent]; ok && p.Node == -1 {
				bodies += float64(s.Bytes) / ops
				nBodies++
			}
		case "cluster.hop":
			hop = append(hop, us)
		case "client.assess", "client.batch":
			out.entryOps++
		}
	}
	out.handlerSelfUs = median(handler)
	out.hopSelfUs = median(hop)
	if nBodies > 0 {
		out.bodyBytes = bodies / nBodies
	}
	return out
}

// httpFloor is the median warm-connection GET /healthz round trip, in µs.
func httpFloor(base string) (float64, error) {
	c := &http.Client{Transport: newTransport(), Timeout: 10 * time.Second}
	defer c.CloseIdleConnections()
	ds := make([]float64, 0, floorRequests)
	for i := 0; i < floorRequests+100; i++ {
		start := time.Now()
		if _, err := getJSON(c, base+"/healthz", nil); err != nil {
			return 0, err
		}
		if i >= 100 { // the first hundred warm the connection
			ds = append(ds, float64(time.Since(start).Nanoseconds())/1e3)
		}
	}
	return median(ds), nil
}

// sideCluster measures the cluster layer for a workload served by one
// node: a two-node in-process cluster, the workload's own vectors sent one
// at a time as POST /v1/assess through the node that does not own the
// model shard, so every request takes the forward hop. It returns the
// median hop self time in µs and the routing decision's cost in ns.
func (b *bench) sideCluster() (hopUs, resolveNs float64, err error) {
	tr := newTracer()
	d, _, err := b.boot(true, 2, tr)
	if err != nil {
		return 0, 0, err
	}
	defer d.stop()
	owner, err := ownerOf(b.ctl, d.urls)
	if err != nil {
		return 0, 0, err
	}
	c := newClient(newTransport(), tr)
	defer c.http.CloseIdleConnections()
	entry := d.urls[1-owner] + "/v1/assess"
	for i := 0; i < sideRequests; i++ {
		body := assessBody(deviceName(i%nDevices), b.plan.windows[i%len(b.plan.windows)].vec)
		if err := c.do(http.MethodPost, entry, body, "client.assess"); err != nil {
			return 0, 0, err
		}
	}
	if resolveNs, err = b.resolveNs(d); err != nil {
		return 0, 0, err
	}
	return analyzeSpans(tr).hopSelfUs, resolveNs, nil
}

// resolveNs is the mean cost of the cluster's routing decision
// (Agent.ResolveAssess) on an entry node that forwards, in ns.
func (b *bench) resolveNs(d *deployment) (float64, error) {
	if len(d.ip.agents) < 2 {
		return 0, nil
	}
	owner, err := ownerOf(http.DefaultClient, d.urls)
	if err != nil {
		return 0, err
	}
	a := d.ip.agents[(owner+1)%len(d.ip.agents)]
	r := httptest.NewRequest(http.MethodPost, "/v1/assess", nil)
	devs := make([]string, nDevices)
	for i := range devs {
		devs[i] = deviceName(i)
	}
	start := time.Now()
	for i := 0; i < resolveCalls; i++ {
		if _, local := a.ResolveAssess(r, "", devs[i%nDevices]); local {
			return 0, fmt.Errorf("non-owner %s resolved a device shard locally", a.NodeID())
		}
	}
	return float64(time.Since(start).Nanoseconds()) / resolveCalls, nil
}

// layerCalls times the public calls into each layer directly, on the
// workload's own inputs in the order the workload sends them.
func (b *bench) layerCalls() (map[string]metric, error) {
	det := b.oracle.det
	var idx []int
	var devs []string
	for _, o := range b.plan.ops {
		for _, it := range o.items {
			idx = append(idx, it)
			devs = append(devs, o.device)
		}
	}
	vec := func(i int) []float64 { return b.plan.windows[idx[i%len(idx)]].vec }
	out := map[string]metric{}
	set := func(k string, v float64, unit string) { out[k] = metric{Value: v, Unit: unit} }

	var s detector.BatchScratch
	for i := 0; i < 100; i++ {
		if _, err := det.AssessInto(&s, vec(i)); err != nil {
			return nil, err
		}
	}
	start := time.Now()
	for i := 0; i < directAssess; i++ {
		if _, err := det.AssessInto(&s, vec(i)); err != nil {
			return nil, err
		}
	}
	set("detector.assess_us", us(time.Since(start))/directAssess, "us")

	rows := make([][]float64, batchRows)
	start = time.Now()
	for j := 0; j < directBatches; j++ {
		for r := range rows {
			rows[r] = vec(j*batchRows + r)
		}
		if _, err := det.AssessBatchInto(&s, rows); err != nil {
			return nil, err
		}
	}
	set("detector.batch_us_per_vector", us(time.Since(start))/(directBatches*batchRows), "us")

	var pushTime time.Duration
	decisions, memo := 0, 0
	for j := 0; j < directSessions; j++ {
		sess, err := detector.NewSession(det, streamCfg)
		if err != nil {
			return nil, err
		}
		start := time.Now()
		for k := 0; k < sessionTraces; k++ {
			if _, err := sess.PushAll(b.plan.windows[idx[(j*sessionTraces+k)%len(idx)]].trace); err != nil {
				return nil, err
			}
		}
		pushTime += time.Since(start)
		st := sess.Stats()
		decisions += st.Decisions
		memo += st.CacheHits
		sess.Close()
	}
	set("detector.window_us", us(pushTime)/float64(decisions), "us")
	set("detector.memo_hit_frac", frac(memo, decisions), "frac")

	if err := b.storeCalls(idx, devs, set); err != nil {
		return nil, fmt.Errorf("verdict store: %w", err)
	}

	dir, err := os.MkdirTemp(b.work, "fleet-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	store, err := verdictstore.Open(dir, verdictstore.Config{})
	if err != nil {
		return nil, err
	}
	fleet, err := serve.NewFleet(map[string]*detector.Detector{"default": det}, serve.Config{Verdicts: store})
	if err != nil {
		store.Close()
		return nil, err
	}
	ctx := context.Background()
	start = time.Now()
	for i := 0; i < directFleet; i++ {
		if _, err := fleet.Assess(ctx, serve.AssessSpec{Device: devs[i%len(devs)], Features: vec(i)}); err != nil {
			fleet.Close()
			store.Close()
			return nil, err
		}
	}
	set("fleet.assess_us", us(time.Since(start))/directFleet, "us")
	fleet.Close()
	if err := store.Close(); err != nil {
		return nil, err
	}
	return out, nil
}

// storeCalls times Append, Sync and Query on a scratch store filled with
// the run's verdict records.
func (b *bench) storeCalls(idx []int, devs []string, set func(string, float64, string)) error {
	dir, err := os.MkdirTemp(b.work, "store-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	st, err := verdictstore.Open(dir, verdictstore.Config{})
	if err != nil {
		return err
	}
	defer st.Close()
	recs := make([]verdictstore.Record, 0, min(len(idx), directAppends))
	for i := 0; i < cap(recs); i++ {
		w := b.plan.windows[idx[i]]
		r, err := b.oracle.assess(b.plan, idx[i])
		if err != nil {
			return err
		}
		rec := verdictstore.Record{
			Device: devs[i], Model: "default", Version: 1, Source: "assess",
			Prediction: r.Prediction, Decision: r.Decision.String(), Entropy: r.Entropy,
			Votes: append([]float64(nil), r.VoteDist...), LatencyMicros: 2000,
		}
		if r.Decision == detector.Reject {
			rec.Features = w.vec
		}
		recs = append(recs, rec)
	}
	var appendTime time.Duration
	var syncs []float64
	for i := 0; i < directAppends; i++ {
		start := time.Now()
		if _, err := st.Append(recs[i%len(recs)]); err != nil {
			return err
		}
		appendTime += time.Since(start)
		if (i+1)%syncEvery == 0 {
			start := time.Now()
			if err := st.Sync(); err != nil {
				return err
			}
			syncs = append(syncs, float64(time.Since(start).Nanoseconds())/1e6)
		}
	}
	set("verdictstore.append_us", us(appendTime)/directAppends, "us")
	set("verdictstore.sync_ms", median(syncs), "ms")
	var qs []float64
	for i := 0; i < directQueries; i++ {
		start := time.Now()
		if _, err := st.Query(verdictstore.Filter{Device: devs[i%len(devs)], Limit: queryLimit}); err != nil {
			return err
		}
		qs = append(qs, float64(time.Since(start).Nanoseconds())/1e6)
	}
	sort.Float64s(qs)
	set("verdictstore.query_ms", median(qs), "ms")
	stats := st.Stats()
	set("verdictstore.bytes_per_record", frac64(stats.Bytes, stats.Records), "bytes")
	return nil
}

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
