package main

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"runtime/pprof"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"trusthmd/pkg/serve"
)

// TestClosedLoopSmoke is the hmdbench smoke: train a tiny model, run a
// short closed-loop pass (-loop), and assert every scenario reports
// non-zero throughput plus p50/p99 latency (runClosedLoop itself fails
// when the verdict store lost any served window).
func TestClosedLoopSmoke(t *testing.T) {
	tmp, err := os.CreateTemp(t.TempDir(), "loop-out-")
	if err != nil {
		t.Fatal(err)
	}
	defer tmp.Close()

	if err := runClosedLoop(200, 1, tmp); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(tmp.Name())
	if err != nil {
		t.Fatal(err)
	}
	report := string(raw)
	for _, scenario := range []string{"uniform", "bursty"} {
		if !strings.Contains(report, "closed loop ["+scenario) {
			t.Fatalf("scenario %s missing from report: %q", scenario, report)
		}
	}
	lines := regexp.MustCompile(`— (\d+) verdicts/s`).FindAllStringSubmatch(report, -1)
	if len(lines) != 2 {
		t.Fatalf("want 2 throughput lines, got %d: %q", len(lines), report)
	}
	for _, m := range lines {
		if v, err := strconv.Atoi(m[1]); err != nil || v <= 0 {
			t.Fatalf("throughput %q not positive (%v): %q", m[1], err, report)
		}
	}
	if got := len(regexp.MustCompile(`p50 \S+, p99 \S+`).FindAllString(report, -1)); got != 2 {
		t.Fatalf("want p50/p99 on both scenario lines, got %d: %q", got, report)
	}
}

func TestParseRetryAfter(t *testing.T) {
	cases := []struct {
		in   string
		want time.Duration
	}{
		{"1", time.Second},
		{" 2 ", 2 * time.Second},
		{"0", 0},
		{"3600", maxRetryDelay}, // bounded: a server cannot park the harness
		{"", defaultRetryDelay},
		{"soon", defaultRetryDelay},
		{"-5", defaultRetryDelay},
		{"Wed, 21 Oct 2026 07:28:00 GMT", defaultRetryDelay}, // HTTP-date form unsupported
	}
	for _, c := range cases {
		if got := parseRetryAfter(c.in); got != c.want {
			t.Errorf("parseRetryAfter(%q) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestTargetFlags(t *testing.T) {
	var tf targetFlags
	for _, v := range []string{"http://a:8080, http://b:8080/", "http://c:8080"} {
		if err := tf.Set(v); err != nil {
			t.Fatal(err)
		}
	}
	want := targetFlags{"http://a:8080", "http://b:8080", "http://c:8080"}
	if !reflect.DeepEqual(tf, want) {
		t.Fatalf("targets %v, want %v", tf, want)
	}
}

// TestPostWindowRetries: a server shedding the first attempts with 503 +
// Retry-After must be retried (honoring the header) and the retry count
// reported; a server that always sheds must fail after the bounded
// attempts instead of hanging.
func TestPostWindowRetries(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= 2 {
			w.Header().Set("Retry-After", "0")
			w.WriteHeader(http.StatusServiceUnavailable)
			return
		}
		json.NewEncoder(w).Encode(serve.AssessResponse{Decision: "reject"})
	}))
	defer ts.Close()

	client := &http.Client{Timeout: 5 * time.Second}
	decision, retries, err := postWindow(client, ts.URL, serve.AssessRequest{Features: []float64{1}})
	if err != nil {
		t.Fatal(err)
	}
	if decision != "reject" || retries != 2 {
		t.Fatalf("decision %q after %d retries, want reject after 2", decision, retries)
	}

	always := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "0")
		w.WriteHeader(http.StatusServiceUnavailable)
	}))
	defer always.Close()
	_, retries, err = postWindow(client, always.URL, serve.AssessRequest{Features: []float64{1}})
	if err == nil {
		t.Fatal("permanently shedding server must eventually fail the window")
	}
	if retries != maxRetryAttempts {
		t.Fatalf("gave up after %d retries, want %d", retries, maxRetryAttempts)
	}
}

// TestHTTPLoopSmoke drives the -target mode against two fake daemons and
// asserts both scenario lines report, both targets were hit, and the
// retry counter surfaces the injected sheds.
func TestHTTPLoopSmoke(t *testing.T) {
	var hits [2]atomic.Int64
	var shed atomic.Int64
	mk := func(i int) *httptest.Server {
		return httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			n := hits[i].Add(1)
			// Shed every 7th request on the first target: the loop must
			// absorb it via Retry-After, not fail.
			if i == 0 && n%7 == 0 {
				shed.Add(1)
				w.Header().Set("Retry-After", "0")
				w.WriteHeader(http.StatusServiceUnavailable)
				return
			}
			json.NewEncoder(w).Encode(serve.AssessResponse{Model: "m", Decision: "benign"})
		}))
	}
	ts0, ts1 := mk(0), mk(1)
	defer ts0.Close()
	defer ts1.Close()

	tmp, err := os.CreateTemp(t.TempDir(), "loop-out-")
	if err != nil {
		t.Fatal(err)
	}
	defer tmp.Close()
	if err := runHTTPLoop(64, 1, []string{ts0.URL, ts1.URL}, tmp); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(tmp.Name())
	if err != nil {
		t.Fatal(err)
	}
	report := string(raw)
	for _, scenario := range []string{"uniform", "bursty"} {
		if !strings.Contains(report, "http loop ["+scenario) {
			t.Fatalf("scenario %s missing from report: %q", scenario, report)
		}
	}
	if hits[0].Load() == 0 || hits[1].Load() == 0 {
		t.Fatalf("round-robin skipped a target: %d / %d", hits[0].Load(), hits[1].Load())
	}
	retries := regexp.MustCompile(`(\d+) retried`).FindAllStringSubmatch(report, -1)
	if len(retries) != 2 {
		t.Fatalf("want retry counts on both lines: %q", report)
	}
	total := 0
	for _, m := range retries {
		v, _ := strconv.Atoi(m[1])
		total += v
	}
	if int64(total) != shed.Load() {
		t.Fatalf("report counts %d retries, server shed %d", total, shed.Load())
	}
}

// TestProfileSmoke exercises the -cpuprofile/-memprofile plumbing the way
// main wires it: profile a short closed-loop run and assert both profile
// files come out non-empty (pprof headers at minimum).
func TestProfileSmoke(t *testing.T) {
	dir := t.TempDir()
	cpuPath := filepath.Join(dir, "cpu.out")
	memPath := filepath.Join(dir, "mem.out")

	cf, err := os.Create(cpuPath)
	if err != nil {
		t.Fatal(err)
	}
	defer cf.Close()
	if err := pprof.StartCPUProfile(cf); err != nil {
		t.Fatal(err)
	}
	tmp, err := os.CreateTemp(dir, "loop-out-")
	if err != nil {
		pprof.StopCPUProfile()
		t.Fatal(err)
	}
	defer tmp.Close()
	loopErr := runClosedLoop(64, 1, tmp)
	pprof.StopCPUProfile()
	if loopErr != nil {
		t.Fatal(loopErr)
	}
	writeMemProfile(memPath)

	for _, p := range []string{cpuPath, memPath} {
		st, err := os.Stat(p)
		if err != nil {
			t.Fatalf("profile %s: %v", p, err)
		}
		if st.Size() == 0 {
			t.Fatalf("profile %s is empty", p)
		}
	}
}
