package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"trusthmd/pkg/detector"
)

// TestInflightCapSheds: a shard at its in-flight cap refuses new work with
// ErrQueueFull and counts the shed; an idle shard admits a reservation of
// any size; MaxInflight 0 takes the default of 1024 and a negative value
// disables the cap.
func TestInflightCapSheds(t *testing.T) {
	d, _ := testDetector(t)
	for _, tc := range []struct {
		cfg  int
		want int64
	}{{cfg: 2, want: 2}, {cfg: 0, want: 1024}, {cfg: -1, want: 0}} {
		f, err := NewFleet(map[string]*detector.Detector{"m": d}, Config{MaxInflight: tc.cfg})
		if err != nil {
			t.Fatal(err)
		}
		sh, err := f.resolve("m", "")
		if err != nil {
			t.Fatal(err)
		}
		if sh.maxInflight != tc.want {
			t.Fatalf("MaxInflight %d resolved to cap %d, want %d", tc.cfg, sh.maxInflight, tc.want)
		}
		f.Close()
	}

	f, err := NewFleet(map[string]*detector.Detector{"m": d}, Config{MaxInflight: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sh, err := f.resolve("m", "")
	if err != nil {
		t.Fatal(err)
	}
	if err := sh.admit(1); err != nil {
		t.Fatal(err)
	}
	if err := sh.admit(1); err != nil {
		t.Fatal(err)
	}
	if err := sh.admit(1); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("third admit at cap 2: err = %v, want ErrQueueFull", err)
	}
	sh.release(2)
	// Idle again: one reservation far beyond the cap is still admitted —
	// the cap gates concurrency, not the size of a client batch.
	if err := sh.admit(64); err != nil {
		t.Fatalf("idle shard refused an oversized reservation: %v", err)
	}
	if err := sh.admit(1); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("admit behind an oversized reservation: err = %v, want ErrQueueFull", err)
	}
	sh.release(64)
	st := f.Stats()[0]
	if st.Shed != 2 || st.Inflight != 0 {
		t.Fatalf("shed %d inflight %d, want 2 and 0", st.Shed, st.Inflight)
	}
}

// TestAssessShedsWithRetryAfter: a shard at its in-flight cap sheds
// /v1/assess with 503 + Retry-After, and admits again once the load is
// released.
func TestAssessShedsWithRetryAfter(t *testing.T) {
	srv, ts := newTestServer(t, Config{MaxInflight: 1, CacheSize: -1})
	// Saturate the shard's admission gauge from the inside — the
	// deterministic way to make "overloaded" hold for exactly one request.
	sh, err := srv.fleet.resolve("dvfs-rf", "")
	if err != nil {
		t.Fatal(err)
	}
	sh.stats.inflight.Add(1)

	_, X := testDetector(t)
	resp, body := postJSON(t, ts.URL+"/v1/assess", AssessRequest{Features: X[0]})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503: %s", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("shed response missing Retry-After")
	}

	sh.stats.inflight.Add(-1)
	resp, body = postJSON(t, ts.URL+"/v1/assess", AssessRequest{Features: X[0]})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("after release: status %d: %s", resp.StatusCode, body)
	}
	if _, stats := srv.fleet.StatsWithEpoch(); stats[0].Shed != 1 || stats[0].Requests != 1 {
		t.Fatalf("shed %d requests %d, want 1 and 1", stats[0].Shed, stats[0].Requests)
	}
}

// TestBatchShedsWithRetryAfter: /v1/assess/batch sheds at the same cap
// with 503 + Retry-After exactly like /v1/assess, and an idle shard admits
// one batch larger than the cap.
func TestBatchShedsWithRetryAfter(t *testing.T) {
	srv, ts := newTestServer(t, Config{MaxInflight: 1, CacheSize: -1})
	sh, err := srv.fleet.resolve("dvfs-rf", "")
	if err != nil {
		t.Fatal(err)
	}
	sh.stats.inflight.Add(1)

	_, X := testDetector(t)
	resp, body := postJSON(t, ts.URL+"/v1/assess/batch", BatchRequest{Batch: X[:4]})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503: %s", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("batch shed response missing Retry-After")
	}
	var errResp ErrorResponse
	if err := json.Unmarshal(body, &errResp); err != nil || errResp.Error != ErrQueueFull.Error() {
		t.Fatalf("shed body is not the queue-full envelope: %s", body)
	}

	// Releasing the load admits the same batch: four samples against a
	// cap of one, because an idle shard takes a batch of any size.
	sh.stats.inflight.Add(-1)
	resp, body = postJSON(t, ts.URL+"/v1/assess/batch", BatchRequest{Batch: X[:4]})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("after release: status %d: %s", resp.StatusCode, body)
	}
	if got := sh.stats.inflight.Load(); got != 0 {
		t.Fatalf("batch reservation leaked: %d", got)
	}
	if _, stats := srv.fleet.StatsWithEpoch(); stats[0].Shed != 1 {
		t.Fatalf("shed counter %d, want 1", stats[0].Shed)
	}
}

// TestStatsInflightField: /stats exposes the fleet-wide shed_total and the
// shard's live in-flight gauge, epoch-consistent with the rest of the
// snapshot.
func TestStatsInflightField(t *testing.T) {
	srv, ts := newTestServer(t, Config{})
	_, X := testDetector(t)
	for i := 0; i < 4; i++ {
		resp, body := postJSON(t, ts.URL+"/v1/assess", AssessRequest{Device: fmt.Sprintf("d%d", i), Features: X[i]})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("assess %d: status %d: %s", i, resp.StatusCode, body)
		}
	}
	type wire struct {
		FleetEpoch uint64       `json:"fleet_epoch"`
		ShedTotal  *int64       `json:"shed_total"`
		Shards     []ShardStats `json:"shards"`
	}
	get := func() wire {
		t.Helper()
		resp, err := http.Get(ts.URL + "/stats")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var w wire
		if err := json.NewDecoder(resp.Body).Decode(&w); err != nil {
			t.Fatal(err)
		}
		return w
	}
	stats := get()
	if stats.ShedTotal == nil || *stats.ShedTotal != 0 {
		t.Fatalf("shed_total %v, want 0 under no load", stats.ShedTotal)
	}
	if len(stats.Shards) != 1 || stats.Shards[0].Inflight != 0 || stats.Shards[0].Requests != 4 {
		t.Fatalf("idle shard: %+v", stats.Shards)
	}
	if stats.FleetEpoch == 0 {
		t.Fatal("fleet_epoch missing from /stats")
	}

	// The gauge is live: a held reservation shows up until it is released.
	sh, err := srv.fleet.resolve("dvfs-rf", "")
	if err != nil {
		t.Fatal(err)
	}
	if err := sh.admit(3); err != nil {
		t.Fatal(err)
	}
	if got := get().Shards[0].Inflight; got != 3 {
		t.Fatalf("inflight %d while 3 samples are reserved", got)
	}
	sh.release(3)
}

// TestAssessPropagatesDetectorError: a detector failure fails the request
// with the error and counts it, and does not count a served verdict.
func TestAssessPropagatesDetectorError(t *testing.T) {
	d, _ := testDetector(t)
	f, err := NewFleet(map[string]*detector.Detector{"m": d}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sh, err := f.resolve("m", "")
	if err != nil {
		t.Fatal(err)
	}
	// Wrong dimensionality reaches the pipeline only because this bypasses
	// Assess's validation.
	if _, err := sh.assessOne([]float64{1, 2, 3}, nil); err == nil {
		t.Fatal("expected projection error")
	}
	if st := f.Stats()[0]; st.Errors != 1 || st.Requests != 0 {
		t.Fatalf("errors %d requests %d, want 1 and 0", st.Errors, st.Requests)
	}
}

// TestLifecycleRacesInflightRequests drives concurrent /v1/assess traffic
// while Swap, Unload + Load and finally Close race it. Every 200 must
// carry exactly the verdict of the version it reports; the only other
// answers allowed are the explicit ones for an unloaded name (404) and a
// closed fleet (503). Run it under -race: a shard that a request resolved
// is never mutated, so nothing here may need a lock it does not take.
func TestLifecycleRacesInflightRequests(t *testing.T) {
	d, X := testDetector(t)
	strict, err := d.WithOptions(detector.WithThreshold(0))
	if err != nil {
		t.Fatal(err)
	}
	// Odd versions serve d, even versions strict: the single mutator below
	// installs them in that order, so a version names its detector.
	byVersion := func(v uint64) *detector.Detector {
		if v%2 == 1 {
			return d
		}
		return strict
	}
	f, err := NewFleet(map[string]*detector.Detector{"m": d}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	s := NewServer(f)
	ts := httptest.NewServer(s)
	defer ts.Close()
	defer s.Close()

	const workers = 6
	var (
		wg               sync.WaitGroup
		ok, gone, closed atomic.Int64
		stop             = make(chan struct{})
		stopOnce         sync.Once
	)
	halt := func() {
		stopOnce.Do(func() { close(stop) })
		wg.Wait()
	}
	defer halt()
	waitFor := func(what string, cond func() bool) {
		t.Helper()
		for deadline := time.Now().Add(30 * time.Second); !cond(); time.Sleep(100 * time.Microsecond) {
			if time.Now().After(deadline) || t.Failed() {
				t.Fatalf("gave up waiting for %s", what)
			}
		}
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			client := ts.Client()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				x := X[(w*31+i)%len(X)]
				raw, _ := json.Marshal(AssessRequest{Model: "m", Features: x})
				resp, err := client.Post(ts.URL+"/v1/assess", "application/json", bytes.NewReader(raw))
				if err != nil {
					t.Errorf("worker %d: %v", w, err)
					return
				}
				body, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				switch resp.StatusCode {
				case http.StatusOK:
				case http.StatusNotFound:
					gone.Add(1)
					continue
				case http.StatusServiceUnavailable:
					closed.Add(1)
					continue
				default:
					t.Errorf("worker %d: status %d: %s", w, resp.StatusCode, body)
					return
				}
				var got AssessResponse
				if err := json.Unmarshal(body, &got); err != nil {
					t.Errorf("worker %d: %v", w, err)
					return
				}
				want, err := byVersion(got.Version).Assess(x)
				if err != nil {
					t.Error(err)
					return
				}
				if got.Prediction != want.Prediction || got.Entropy != want.Entropy ||
					got.Decision != want.Decision.String() || fmt.Sprint(got.VoteDist) != fmt.Sprint(want.VoteDist) {
					t.Errorf("worker %d: v%d answered %+v, want %+v", w, got.Version, got, want)
					return
				}
				ok.Add(1)
			}
		}(w)
	}

	next := uint64(2)
	for round := 0; round < 12; round++ {
		if round%3 == 2 {
			if err := f.Unload("m"); err != nil {
				t.Fatal(err)
			}
			if _, err := f.Load("m", byVersion(next)); err != nil {
				t.Fatal(err)
			}
		} else if _, err := f.Swap("m", byVersion(next), "swap"); err != nil {
			t.Fatal(err)
		}
		next++
		served := ok.Load()
		waitFor("traffic on the new version", func() bool { return ok.Load() >= served+4 })
	}
	f.Close()
	waitFor("a request to observe the closed fleet", func() bool { return closed.Load() > 0 })
	halt()
	if ok.Load() == 0 {
		t.Fatal("no request was served")
	}
	t.Logf("%d served, %d answered 404 mid-reload, %d shed after close", ok.Load(), gone.Load(), closed.Load())
}

// TestFleetSwapUnderLoadLossless: repeated hot swaps of a shard
// under sustained concurrent in-process load (Fleet.Assess, no HTTP) must
// lose zero requests, never move a caller's version backwards, and every
// response must carry the correct verdict. The HTTP-level single-swap
// variant is TestSwapUnderLoadIsLossless.
func TestFleetSwapUnderLoadLossless(t *testing.T) {
	d, X := testDetector(t)
	f, err := NewFleet(map[string]*detector.Detector{"m": d}, Config{CacheSize: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	want := make([]detector.Result, len(X))
	for i, x := range X {
		r, err := d.Assess(x)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = r
	}

	const workers = 8
	const perWorker = 50
	start := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			<-start
			lastVersion := uint64(0)
			for i := 0; i < perWorker; i++ {
				j := (w*perWorker + i) % len(X)
				out, err := f.Assess(context.Background(), AssessSpec{Device: "hot-device", Features: X[j]})
				if err != nil {
					t.Errorf("worker %d request %d lost: %v", w, i, err)
					return
				}
				if out.Version < lastVersion {
					t.Errorf("version went backwards: %d after %d", out.Version, lastVersion)
					return
				}
				lastVersion = out.Version
				if out.Result.Prediction != want[j].Prediction || out.Result.Entropy != want[j].Entropy {
					t.Errorf("response diverged during swap (version %d)", out.Version)
					return
				}
			}
		}(w)
	}
	swapsDone := make(chan uint64, 1)
	go func() {
		var v uint64
		for i := 0; i < 3; i++ {
			time.Sleep(2 * time.Millisecond)
			nv, err := f.Swap("m", d, "swap")
			if err != nil {
				t.Errorf("swap %d: %v", i, err)
				break
			}
			v = nv
		}
		swapsDone <- v
	}()
	close(start)
	wg.Wait()
	if v := <-swapsDone; v < 2 {
		t.Fatalf("swaps never ran (final version %d)", v)
	}
	_, stats := f.StatsWithEpoch()
	if got := stats[0].Requests; got != workers*perWorker {
		t.Fatalf("requests %d, want %d (lossless swap)", got, workers*perWorker)
	}
	if stats[0].Errors != 0 || stats[0].Shed != 0 {
		t.Fatalf("swap under load errored/shed: %+v", stats[0])
	}
}
