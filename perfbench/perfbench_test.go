package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"net/http"
	"os"
	"reflect"
	"strings"
	"syscall"
	"testing"
	"time"

	"trusthmd/pkg/serve"
)

// TestMain doubles as a fake trusthmdd: with PERFBENCH_FAKE_DAEMON set,
// the test binary parses the daemon's flags and serves 200 on every path
// (or exits at once when the variable says so), which lets the process
// hygiene tests run without building the real daemon.
func TestMain(m *testing.M) {
	switch os.Getenv("PERFBENCH_FAKE_DAEMON") {
	case "":
		os.Exit(m.Run())
	case "exit":
		os.Exit(3)
	default:
		fs := flag.NewFlagSet("fake", flag.ExitOnError)
		addr := fs.String("addr", "", "")
		fs.String("verdict-dir", "", "")
		fs.String("load", "", "")
		_ = fs.Parse(os.Args[1:])
		_ = http.ListenAndServe(*addr, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			w.Write([]byte("{}"))
		}))
		os.Exit(4)
	}
}

func TestTailPercentileNeedsTenBeyond(t *testing.T) {
	cases := []struct {
		n     int
		wantQ float64
		ok    bool
	}{
		{1000, 0.99, true}, // 10 beyond p99
		{999, 0.9, true},   // 9 beyond p99: fall back to p90
		{100, 0.9, true},
		{99, 0.5, true},
		{20, 0.5, true},
		{19, 0, false},
	}
	for _, c := range cases {
		xs := make([]float64, c.n)
		for i := range xs {
			xs[i] = float64(i + 1)
		}
		q, v, ok := tail(xs)
		if q != c.wantQ || ok != c.ok {
			t.Errorf("n=%d: tail gives p%v ok=%v, want p%v ok=%v", c.n, 100*q, ok, 100*c.wantQ, c.ok)
			continue
		}
		if ok && beyond(c.n, q) < minTail {
			t.Errorf("n=%d: p%v has %d samples beyond it", c.n, 100*q, beyond(c.n, q))
		}
		if ok && v != xs[c.n-1-beyond(c.n, q)] {
			t.Errorf("n=%d: p%v = %v, want the sample with %d beyond", c.n, 100*q, v, beyond(c.n, q))
		}
	}
}

func TestPlanIsAFunctionOfTheSeed(t *testing.T) {
	for _, wl := range workloads {
		a, err := newPlan(wl, 7, 2)
		if err != nil {
			t.Fatal(err)
		}
		b, err := newPlan(wl, 7, 2)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: two plans from seed 7 differ", wl)
		}
		c, err := newPlan(wl, 8, 2)
		if err != nil {
			t.Fatal(err)
		}
		if reflect.DeepEqual(a.ops, c.ops) {
			t.Errorf("%s: seeds 7 and 8 give the same operations", wl)
		}
	}
}

func TestAssessSingleVectorsAreUnique(t *testing.T) {
	p, err := newPlan("assess-single", 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, w := range p.windows {
		k := string(appendFloats(nil, w.vec))
		if seen[k] {
			t.Fatalf("vector repeats: %s", k)
		}
		seen[k] = true
	}
	want := assessRate * (warmup + 2*time.Second).Seconds()
	if n := float64(len(p.ops)); n < 0.8*want || n > 1.2*want {
		t.Errorf("%v ops scheduled, want about %v", n, want)
	}
}

// encodeLike renders verdicts the way the daemon's responses carry them.
func encodeLike(t *testing.T, kind opKind, rs []serve.AssessResponse) []byte {
	t.Helper()
	switch kind {
	case opAssess:
		b, err := json.Marshal(rs[0])
		if err != nil {
			t.Fatal(err)
		}
		return b
	case opBatch:
		b, err := json.Marshal(serve.BatchResponse{Model: "default", Version: 1, Results: rs})
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	var buf bytes.Buffer
	for i, r := range rs {
		b, err := json.Marshal(serve.StreamResult{Seq: i + 1, Sample: 255, AssessResponse: r})
		if err != nil {
			t.Fatal(err)
		}
		buf.Write(b)
		buf.WriteByte('\n')
	}
	return buf.Bytes()
}

func TestOracleFailsOnOneFlippedDecision(t *testing.T) {
	_, det, err := trainModel()
	if err != nil {
		t.Fatal(err)
	}
	o := newOracle(det)
	for _, wl := range workloads {
		p, err := newPlan(wl, 5, 1)
		if err != nil {
			t.Fatal(err)
		}
		var k int
		for k = range p.ops {
			if p.ops[k].kind != opQuery {
				break
			}
		}
		op := &p.ops[k]
		want, err := o.expected(p, op)
		if err != nil {
			t.Fatal(err)
		}
		rs := make([]serve.AssessResponse, len(want))
		for i, r := range want {
			rs[i] = serve.ToResponse("default", 1, r)
		}
		good := map[blobKey]*blob{{op: k}: {op: k, raw: encodeLike(t, op.kind, rs), n: 3}}
		c, err := o.check(p, good)
		if err != nil {
			t.Fatal(err)
		}
		if c.badOps != 0 || c.known+c.unknown != 3*len(op.items) {
			t.Fatalf("%s: faithful responses: %d bad ops, %d verdicts counted", wl, c.badOps, c.known+c.unknown)
		}
		flip := len(rs) / 2
		if rs[flip].Decision == "reject" {
			rs[flip].Decision = "benign"
		} else {
			rs[flip].Decision = "reject"
		}
		c, err = o.check(p, map[blobKey]*blob{{op: k}: {op: k, raw: encodeLike(t, op.kind, rs), n: 3}})
		if err != nil {
			t.Fatal(err)
		}
		if c.badOps != 3 {
			t.Errorf("%s: one flipped decision in a blob of 3 ops: %d bad ops, want 3", wl, c.badOps)
		}
	}
}

func TestStoreCheckCountsEveryVerdict(t *testing.T) {
	node := func(served, appended, records, dropped int64) nodeStats {
		var n nodeStats
		n.Shards = []shardStats{{Requests: served}}
		n.VerdictStore.Appended, n.VerdictStore.Records, n.VerdictStore.Dropped = appended, records, dropped
		return n
	}
	if errs := storeCheck([]nodeStats{node(10, 10, 6, 4), node(0, 0, 0, 0)}, 10); len(errs) != 0 {
		t.Errorf("consistent stores flagged: %v", errs)
	}
	if errs := storeCheck([]nodeStats{node(10, 9, 9, 0)}, 10); len(errs) != 2 {
		t.Errorf("a missing record: %v, want a node and a total error", errs)
	}
	if errs := storeCheck([]nodeStats{node(10, 10, 9, 0)}, 10); len(errs) != 1 {
		t.Errorf("a record lost without a drop: %v", errs)
	}
}

func TestParseStatCPU(t *testing.T) {
	// comm may hold spaces and parentheses; utime=250, stime=50 ticks.
	line := []byte("4242 (tru sthmdd (x)) S 1 4242 4242 0 -1 4194560 1 0 0 0 250 50 0 0 20 0 9 0 100 1000 200 18446744073709551615\n")
	got, err := parseStatCPU(line)
	if err != nil {
		t.Fatal(err)
	}
	if want := 3 * time.Second; got != want {
		t.Errorf("cpu = %v, want %v", got, want)
	}
	if _, err := parseStatCPU([]byte("4242 (x) S 1")); err == nil {
		t.Error("truncated stat line accepted")
	}
	self, err := procCPU(0)
	if err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(300 * time.Millisecond); time.Now().Before(deadline); {
	}
	after, err := procCPU(0)
	if err != nil {
		t.Fatal(err)
	}
	if after-self < 50*time.Millisecond {
		t.Errorf("300ms of spinning shows %v of CPU", after-self)
	}
}

func TestParseHWM(t *testing.T) {
	status := "Name:\tx\nVmPeak:\t  20000 kB\nVmHWM:\t   1536 kB\nVmRSS:\t   1024 kB\n"
	got, err := parseHWM(strings.NewReader(status))
	if err != nil {
		t.Fatal(err)
	}
	if got != 1536<<10 {
		t.Errorf("VmHWM = %d bytes, want %d", got, 1536<<10)
	}
	if _, err := parseHWM(strings.NewReader("Name:\tx\n")); err == nil {
		t.Error("status without VmHWM accepted")
	}
	self, err := procHWM(os.Getpid())
	if err != nil {
		t.Fatal(err)
	}
	if self < 1<<20 {
		t.Errorf("own VmHWM %d bytes", self)
	}
}

// gone reports whether pid no longer exists (reaped, not a zombie).
func gone(pid int) bool {
	return errors.Is(syscall.Kill(pid, 0), syscall.ESRCH)
}

func TestDaemonsAreKilledAndReaped(t *testing.T) {
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	c := &http.Client{Timeout: 5 * time.Second}

	t.Setenv("PERFBENCH_FAKE_DAEMON", "serve")
	sys, err := launch(c, exe, "model.gob", t.TempDir(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := waitReady(c, sys.urls(), sys.exited, 10*time.Second); err != nil {
		sys.stop()
		t.Fatal(err)
	}
	pids := sys.pids()
	sys.stop()
	sys.stop() // idempotent
	for _, pid := range pids {
		if !gone(pid) {
			t.Errorf("daemon %d survives stop", pid)
		}
	}

	// A daemon dying during set-up is reported, and stop still reaps.
	t.Setenv("PERFBENCH_FAKE_DAEMON", "exit")
	sys, err = launch(c, exe, "model.gob", t.TempDir(), 1)
	if err != nil {
		t.Fatal(err)
	}
	err = waitReady(c, sys.urls(), sys.exited, 10*time.Second)
	sys.stop()
	if err == nil || !strings.Contains(err.Error(), "exited early") {
		t.Errorf("early exit reported as %v", err)
	}
	for _, pid := range sys.pids() {
		if !gone(pid) {
			t.Errorf("daemon %d survives stop", pid)
		}
	}
}

func TestSelfTimeSubtractsChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Start: 0, End: 100},
		{ID: 2, Parent: 1, Start: 10, End: 40},
		{ID: 3, Parent: 1, Start: 30, End: 60},  // overlaps 2: union 10..60
		{ID: 4, Parent: 1, Start: 90, End: 120}, // clipped to 90..100
		{ID: 5, Parent: 2, Start: 15, End: 20},
	}
	self := selfTimes(spans)
	if self[1] != 100-50-10 {
		t.Errorf("self(1) = %d, want 40", self[1])
	}
	if self[2] != 30-5 {
		t.Errorf("self(2) = %d, want 25", self[2])
	}
	if self[4] != 30 {
		t.Errorf("self(4) = %d, want 30", self[4])
	}
}

// TestInProcessLoadChecksOut drives each workload for a second against
// its in-process deployment, traced, with the load's own concurrency:
// every operation succeeds, the oracle and the store checks pass, and
// the spans cover the layers the workload reaches.
func TestInProcessLoadChecksOut(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a model and runs each workload for seconds")
	}
	for _, wl := range workloads {
		t.Run(wl, func(t *testing.T) {
			b, err := newBench(wl, 9, time.Second, "", t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			defer b.ctl.CloseIdleConnections()
			tr := newTracer()
			d, _, err := b.boot(true, b.plan.nodes, tr)
			if err != nil {
				t.Fatal(err)
			}
			defer d.stop()
			o, err := b.measure(d, time.Second, func() *client { return newClient(newTransport(), tr) })
			if err != nil {
				t.Fatal(err)
			}
			if o.rec.failed != 0 || o.check.badOps != 0 || len(o.storeErrs) != 0 {
				t.Fatalf("%d failed, %d mismatched, store: %v; %v %v", o.rec.failed, o.check.badOps, o.storeErrs, o.rec.errs, o.check.errs)
			}
			if o.rec.verdicts == 0 || o.check.known+o.check.unknown != o.rec.delivered {
				t.Errorf("%d verdicts measured, %d checked of %d delivered", o.rec.verdicts, o.check.known+o.check.unknown, o.rec.delivered)
			}
			sp := analyzeSpans(tr)
			if sp.handlerSelfUs <= 0 || sp.bodyBytes <= 0 {
				t.Errorf("handler spans: self %v us, body %v bytes", sp.handlerSelfUs, sp.bodyBytes)
			}
			if (b.plan.nodes > 1) != (sp.hopSelfUs > 0) {
				t.Errorf("%d node(s), hop self time %v us", b.plan.nodes, sp.hopSelfUs)
			}
		})
	}
}
