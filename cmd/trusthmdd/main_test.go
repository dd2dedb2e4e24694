package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"trusthmd/internal/gen"
	"trusthmd/pkg/detector"
	"trusthmd/pkg/serve"
)

func TestModelFlagsParsing(t *testing.T) {
	var m modelFlags
	if err := m.Set("dvfs=det.gob"); err != nil {
		t.Fatal(err)
	}
	if err := m.Set("alt=other.gob"); err != nil {
		t.Fatal(err)
	}
	if m.String() != "dvfs=det.gob,alt=other.gob" {
		t.Fatalf("String: %q", m.String())
	}
	// Duplicate shard names fail at flag-parse time — silently keeping
	// the last spec would serve the wrong model. Whitespace around the
	// name must not smuggle a duplicate past the check.
	for _, bad := range []string{"", "noequals", "=path", "name=", "dvfs=dup.gob", " dvfs =dup.gob", "  ", " = "} {
		if err := m.Set(bad); err == nil {
			t.Fatalf("Set(%q): expected error", bad)
		}
	}
	if len(m) != 2 {
		t.Fatalf("rejected specs must not be appended: %v", m)
	}
}

func TestLoadModelsErrors(t *testing.T) {
	if _, err := allSpecs("", nil, false); err == nil {
		t.Fatal("expected no-models error")
	}
	specs, err := allSpecs("/does/not/exist.gob", nil, false)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := loadModels(specs, overrides(0, -1)); err == nil {
		t.Fatal("expected open error")
	}
	// -load claims the name "default"; a -model spec reusing it must be
	// rejected up front, not silently resolved by map order.
	if _, err := allSpecs("/x.gob", modelFlags{{name: "default", path: "/y.gob"}}, false); err == nil {
		t.Fatal("expected duplicate-default error")
	}
	// A cluster joiner may boot with no models at all.
	if specs, err := allSpecs("", nil, true); err != nil || len(specs) != 0 {
		t.Fatalf("empty specs with allowEmpty: %v %v", specs, err)
	}
}

func TestClusterFlags(t *testing.T) {
	if (clusterFlags{}).enabled() {
		t.Fatal("no cluster flags must mean standalone")
	}
	if !(clusterFlags{coordinator: true}).enabled() || !(clusterFlags{join: "http://x"}).enabled() {
		t.Fatal("-coordinator and -join must both enable clustering")
	}
	if _, err := (clusterFlags{coordinator: true}).agentConfig(""); err == nil {
		t.Fatal("clustering without -advertise must be rejected")
	}
	cfg, err := clusterFlags{
		nodeID:      "n1",
		advertise:   "http://10.0.0.5:8080/",
		coordinator: true,
		heartbeat:   250 * time.Millisecond,
	}.agentConfig("secret")
	if err != nil {
		t.Fatal(err)
	}
	if cfg.NodeID != "n1" || cfg.Advertise != "http://10.0.0.5:8080" ||
		!cfg.Coordinator || cfg.Token != "secret" || cfg.Heartbeat != 250*time.Millisecond {
		t.Fatalf("agentConfig: %+v", cfg)
	}
	// -node-id defaults to the hostname.
	cfg, err = (clusterFlags{advertise: "http://x", join: "http://y"}).agentConfig("")
	if err != nil {
		t.Fatal(err)
	}
	if host, _ := os.Hostname(); host != "" && cfg.NodeID != host {
		t.Fatalf("default node ID %q, want hostname %q", cfg.NodeID, host)
	}
}

// TestDaemonHandoff exercises the documented workflow: save a trained
// detector (the `trusthmd -save` side), load it through the daemon's
// loader with serving-time overrides, and answer a request.
func TestDaemonHandoff(t *testing.T) {
	s, err := gen.DVFSWithSizes(3, gen.Sizes{Train: 280, Test: 40, Unknown: 40})
	if err != nil {
		t.Fatal(err)
	}
	d, err := detector.New(s.Train, detector.WithModel("rf"), detector.WithEnsembleSize(7), detector.WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "det.gob")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Save(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	specs, err := allSpecs(path, modelFlags{{name: "named", path: path}}, false)
	if err != nil {
		t.Fatal(err)
	}
	models, err := loadModels(specs, overrides(2, 0.25))
	if err != nil {
		t.Fatal(err)
	}
	if len(models) != 2 || models["default"] == nil || models["named"] == nil {
		t.Fatalf("models: %v", models)
	}
	if got := models["default"].Threshold(); got != 0.25 {
		t.Fatalf("threshold override lost: %v", got)
	}

	fleet, err := serve.NewFleet(models, serve.Config{DefaultModel: "default"})
	if err != nil {
		t.Fatal(err)
	}
	srv := serve.NewServer(fleet)
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %d", resp.StatusCode)
	}
}

// saveDetector trains a tiny detector and gob-saves it, returning both.
func saveDetector(t *testing.T, path string, opts ...detector.Option) *detector.Detector {
	t.Helper()
	s, err := gen.DVFSWithSizes(3, gen.Sizes{Train: 280, Test: 40, Unknown: 40})
	if err != nil {
		t.Fatal(err)
	}
	base := []detector.Option{detector.WithModel("rf"), detector.WithEnsembleSize(7), detector.WithSeed(1)}
	d, err := detector.New(s.Train, append(base, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	return d
}

// TestStreamE2EHotSwap is the stream-smoke e2e CI runs under -race: train
// a tiny model, boot the daemon's full stack (loader, fleet, admin token,
// HTTP transport), stream raw DVFS states as NDJSON, hot-swap the shard
// through POST /v1/models mid-service, and assert that post-swap streamed
// assessments are element-wise identical to driving the swapped-in
// detector's Online loop directly.
func TestStreamE2EHotSwap(t *testing.T) {
	dir := t.TempDir()
	pathV1 := filepath.Join(dir, "v1.gob")
	pathV2 := filepath.Join(dir, "v2.gob")
	saveDetector(t, pathV1)
	// The replacement differs observably: threshold 0 rejects anything
	// with nonzero vote entropy.
	dV2 := saveDetector(t, pathV2, detector.WithThreshold(0))

	// Boot the daemon stack exactly as run() wires it.
	const token = "swap-secret"
	cfg := serve.Config{DefaultModel: "default", AdminToken: token}
	cfg.PrepareDetector = overrides(0, -1)
	specs, err := allSpecs(pathV1, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	models, err := loadModels(specs, cfg.PrepareDetector)
	if err != nil {
		t.Fatal(err)
	}
	fleet, err := serve.NewFleet(models, cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv := serve.NewServer(fleet)
	ts := httptest.NewServer(srv)
	defer ts.Close()
	defer srv.Close()

	const levels, window, stride = 8, 16, 4
	states := make([]int, 240)
	for i := range states {
		states[i] = (i*i + i/3) % levels
	}
	stream := func() (results []serve.StreamResult, summary serve.StreamSummary) {
		t.Helper()
		var b bytes.Buffer
		hdr, _ := json.Marshal(serve.StreamHeader{Levels: levels, Window: window, Stride: stride})
		b.Write(hdr)
		b.WriteByte('\n')
		for _, s := range states {
			fmt.Fprintf(&b, "{\"state\":%d}\n", s)
		}
		resp, err := http.Post(ts.URL+"/v1/assess/stream", "application/x-ndjson", &b)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			body, _ := io.ReadAll(resp.Body)
			t.Fatalf("stream status %d: %s", resp.StatusCode, body)
		}
		sc := bufio.NewScanner(resp.Body)
		done := false
		for sc.Scan() {
			var probe map[string]json.RawMessage
			if err := json.Unmarshal(sc.Bytes(), &probe); err != nil {
				t.Fatalf("bad stream line: %s", sc.Bytes())
			}
			switch {
			case probe["error"] != nil:
				t.Fatalf("stream error line: %s", sc.Bytes())
			case probe["done"] != nil:
				if err := json.Unmarshal(sc.Bytes(), &summary); err != nil {
					t.Fatal(err)
				}
				done = true
			default:
				var r serve.StreamResult
				if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
					t.Fatal(err)
				}
				results = append(results, r)
			}
		}
		if err := sc.Err(); err != nil {
			t.Fatal(err)
		}
		if !done {
			t.Fatal("stream ended without summary")
		}
		return results, summary
	}

	pre, preSummary := stream()
	if len(pre) == 0 || preSummary.Version != 1 {
		t.Fatalf("pre-swap stream: %d results, summary %+v", len(pre), preSummary)
	}

	// Hot-swap through the admin endpoint, token-guarded.
	swapBody, _ := json.Marshal(serve.LoadModelRequest{Name: "default", Path: pathV2})
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/models", bytes.NewReader(swapBody))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Authorization", "Bearer "+token)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("swap status %d: %s", resp.StatusCode, body)
	}
	var swapped serve.LoadModelResponse
	if err := json.Unmarshal(body, &swapped); err != nil {
		t.Fatal(err)
	}
	if !swapped.Replaced || swapped.Version != 2 {
		t.Fatalf("swap response: %+v", swapped)
	}

	// Post-swap: the same stream now runs on v2 and matches the v2
	// detector's Online.Push decisions element-wise.
	online, err := detector.NewOnline(dV2, detector.StreamConfig{Levels: levels, Window: window, Stride: stride})
	if err != nil {
		t.Fatal(err)
	}
	var want []detector.Result
	for _, s := range states {
		r, ok, err := online.Push(s)
		if err != nil {
			t.Fatal(err)
		}
		if ok {
			want = append(want, r)
		}
	}
	post, postSummary := stream()
	if postSummary.Version != 2 {
		t.Fatalf("post-swap summary version %d, want 2", postSummary.Version)
	}
	if len(post) != len(want) {
		t.Fatalf("post-swap stream emitted %d decisions, direct Online.Push %d", len(post), len(want))
	}
	rejected := 0
	for i := range post {
		if post[i].Version != 2 {
			t.Fatalf("decision %d: version %d, want 2", i, post[i].Version)
		}
		if post[i].Prediction != want[i].Prediction || post[i].Entropy != want[i].Entropy ||
			post[i].Decision != want[i].Decision.String() {
			t.Fatalf("post-swap decision %d diverged:\n got %+v\nwant %+v", i, post[i], want[i])
		}
		if post[i].Decision == "reject" {
			rejected++
		}
	}
	// Sanity: the swap is observable — threshold 0 rejects every window
	// with nonzero entropy, which the v1 threshold accepted.
	if rejected == 0 {
		preRejects := 0
		for _, r := range pre {
			if r.Decision == "reject" {
				preRejects++
			}
		}
		if preRejects != 0 {
			t.Fatalf("swap to threshold-0 changed nothing: pre %d rejects, post %d", preRejects, rejected)
		}
	}
}

// TestWatchHotSwapsOnMtime covers -watch: rewriting a shard's gob file is
// all it takes — the watcher notices the mtime change, reloads, reapplies
// the daemon overrides, and hot-swaps the fleet.
func TestWatchHotSwapsOnMtime(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "det.gob")
	saveDetector(t, path)

	const thresholdOverride = 0.125
	prepare := overrides(0, thresholdOverride)
	specs, err := allSpecs(path, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	models, err := loadModels(specs, prepare)
	if err != nil {
		t.Fatal(err)
	}
	fleet, err := serve.NewFleet(models, serve.Config{DefaultModel: "default"})
	if err != nil {
		t.Fatal(err)
	}
	defer fleet.Close()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	watchDone := make(chan struct{})
	go func() {
		defer close(watchDone)
		watchShards(ctx, fleet, modelFlags{{name: "default", path: path}}, time.Millisecond, prepare, nil)
	}()

	// The watcher may legitimately swap more than once per phase (it can
	// see the freshly saved file before the test adjusts its mtime), so
	// all waits are at-least + settle rather than exact-match.
	waitAtLeast := func(want uint64) serve.ModelInfo {
		t.Helper()
		deadline := time.After(5 * time.Second)
		for {
			models := fleet.Models()
			if len(models) == 1 && models[0].Version >= want {
				return models[0]
			}
			select {
			case <-deadline:
				t.Fatalf("watcher never reached v%d: %+v", want, models)
			case <-time.After(2 * time.Millisecond):
			}
		}
	}
	settle := func() serve.ModelInfo {
		t.Helper()
		deadline := time.After(5 * time.Second)
		last := fleet.Models()[0]
		for stable := 0; stable < 20; {
			select {
			case <-deadline:
				t.Fatalf("fleet never settled: %+v", last)
			case <-time.After(2 * time.Millisecond):
			}
			cur := fleet.Models()[0]
			if cur.Version == last.Version {
				stable++
			} else {
				stable, last = 0, cur
			}
		}
		return last
	}

	// Rewrite the gob (a fresh training run) with a bumped mtime.
	saveDetector(t, path)
	future := time.Now().Add(time.Hour)
	if err := os.Chtimes(path, future, future); err != nil {
		t.Fatal(err)
	}
	waitAtLeast(2)
	m := settle()
	if m.Threshold != thresholdOverride {
		t.Fatalf("watch reload dropped the threshold override: %+v", m)
	}
	base := m.Version

	// A garbage rewrite with a newer mtime must not swap. Saves are atomic
	// now, so the watcher treats undecodable content as bad (not a torn
	// read): it logs once, advances the stamp, and the serving shard keeps
	// answering until the next valid rewrite.
	if err := os.WriteFile(path, []byte("not a gob"), 0o644); err != nil {
		t.Fatal(err)
	}
	future = future.Add(time.Hour)
	if err := os.Chtimes(path, future, future); err != nil {
		t.Fatal(err)
	}
	time.Sleep(20 * time.Millisecond) // several ticks over the bad file
	if v := fleet.Models()[0].Version; v != base {
		t.Fatalf("garbage gob was swapped in: v%d (base v%d)", v, base)
	}
	// The next valid save (a fresh rename → newer stamp) rolls out.
	saveDetector(t, path)
	future = future.Add(time.Hour)
	if err := os.Chtimes(path, future, future); err != nil {
		t.Fatal(err)
	}
	waitAtLeast(base + 1)
	base = settle().Version

	// A shard unloaded over the admin API is reinstated by the next save:
	// for command-line shards the file on disk is the source of truth.
	if err := fleet.Unload("default"); err != nil {
		t.Fatal(err)
	}
	saveDetector(t, path)
	future = future.Add(time.Hour)
	if err := os.Chtimes(path, future, future); err != nil {
		t.Fatal(err)
	}
	waitAtLeast(base + 1)

	cancel()
	<-watchDone
}

// TestGBMShardServes proves the exported classifier contract end to end:
// the gradient-boosted-stumps family — implemented in pkg/model/gbm against
// only exported packages and enabled here by blank import — trains through
// the registry, round-trips through Save/Load, and answers daemon requests
// like any built-in.
func TestGBMShardServes(t *testing.T) {
	s, err := gen.DVFSWithSizes(3, gen.Sizes{Train: 280, Test: 40, Unknown: 40})
	if err != nil {
		t.Fatal(err)
	}
	d, err := detector.New(s.Train, detector.WithModel("gbm"), detector.WithEnsembleSize(7), detector.WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "gbm.gob")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Save(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	specs, err := allSpecs(path, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	models, err := loadModels(specs, overrides(0, -1))
	if err != nil {
		t.Fatal(err)
	}
	fleet, err := serve.NewFleet(models, serve.Config{DefaultModel: "default"})
	if err != nil {
		t.Fatal(err)
	}
	srv := serve.NewServer(fleet)
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	correct := 0
	for i := 0; i < s.Test.Len(); i++ {
		smp := s.Test.At(i)
		body, err := json.Marshal(serve.AssessRequest{Features: smp.Features})
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(ts.URL+"/v1/assess", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var got serve.AssessResponse
		if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("assess: %d", resp.StatusCode)
		}
		want, err := d.Assess(smp.Features)
		if err != nil {
			t.Fatal(err)
		}
		if got.Prediction != want.Prediction || got.Decision != want.Decision.String() {
			t.Fatalf("sample %d: served %+v, direct %+v", i, got, want)
		}
		if got.Prediction == smp.Label {
			correct++
		}
	}
	if acc := float64(correct) / float64(s.Test.Len()); acc < 0.9 {
		t.Fatalf("served gbm accuracy %v", acc)
	}
}

// bootAdmissionStack boots the daemon stack exactly as run() wires it
// over the detector saved at path, with the given in-flight cap and the
// result cache disabled so every request is assessed and admitted.
func bootAdmissionStack(t *testing.T, path, token string, maxInflight int) *httptest.Server {
	t.Helper()
	cfg := serve.Config{
		DefaultModel: "default",
		AdminToken:   token,
		CacheSize:    -1,
		MaxInflight:  maxInflight,
	}
	cfg.PrepareDetector = overrides(0, -1)
	specs, err := allSpecs(path, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	models, err := loadModels(specs, cfg.PrepareDetector)
	if err != nil {
		t.Fatal(err)
	}
	fleet, err := serve.NewFleet(models, cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv := serve.NewServer(fleet)
	ts := httptest.NewServer(srv)
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	return ts
}

// TestAdmissionE2E is the admission smoke CI runs under -race, on one
// shard per daemon stack:
//   - swap: sustained concurrent load while the shard is hot-swapped twice
//     through POST /v1/models loses zero requests, and every response is
//     element-wise identical to direct assessment;
//   - shed: with -max-inflight 1, single requests racing a large client
//     batch are either served with the identical verdict or shed with
//     503 + Retry-After and the queue-full envelope, and /stats counts
//     exactly the sheds the clients saw.
func TestAdmissionE2E(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "det.gob")
	d := saveDetector(t, path)

	s, err := gen.DVFSWithSizes(3, gen.Sizes{Train: 280, Test: 40, Unknown: 40})
	if err != nil {
		t.Fatal(err)
	}
	X := make([][]float64, s.Test.Len())
	want := make([]detector.Result, s.Test.Len())
	for i := range X {
		X[i] = s.Test.At(i).Features
		r, err := d.Assess(X[i])
		if err != nil {
			t.Fatal(err)
		}
		want[i] = r
	}
	identical := func(got serve.AssessResponse, j int) bool {
		return got.Prediction == want[j].Prediction && got.Entropy == want[j].Entropy &&
			got.Decision == want[j].Decision.String()
	}
	post := func(client *http.Client, url string, v any) (*http.Response, []byte, error) {
		body, _ := json.Marshal(v)
		resp, err := client.Post(url, "application/json", bytes.NewReader(body))
		if err != nil {
			return nil, nil, err
		}
		defer resp.Body.Close()
		raw, err := io.ReadAll(resp.Body)
		return resp, raw, err
	}
	getStats := func(url string) serve.ShardStats {
		t.Helper()
		resp, err := http.Get(url + "/stats")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var stats struct {
			ShedTotal *int64             `json:"shed_total"`
			Shards    []serve.ShardStats `json:"shards"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
			t.Fatal(err)
		}
		if stats.ShedTotal == nil || len(stats.Shards) != 1 || *stats.ShedTotal != stats.Shards[0].Shed {
			t.Fatalf("/stats: shed_total %v, shards %+v", stats.ShedTotal, stats.Shards)
		}
		return stats.Shards[0]
	}

	t.Run("swap", func(t *testing.T) {
		const token = "admission-secret"
		ts := bootAdmissionStack(t, path, token, 0)
		const workers = 12
		const perWorker = 30
		var lost, mismatched atomic.Int64
		var minVersion, maxVersion atomic.Uint64
		minVersion.Store(^uint64(0))
		start := make(chan struct{})
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				<-start
				client := ts.Client()
				for i := 0; i < perWorker; i++ {
					j := (w*perWorker + i) % len(X)
					resp, raw, err := post(client, ts.URL+"/v1/assess", serve.AssessRequest{Device: "hot-device", Features: X[j]})
					var got serve.AssessResponse
					if err != nil || resp.StatusCode != http.StatusOK || json.Unmarshal(raw, &got) != nil {
						lost.Add(1)
						continue
					}
					if !identical(got, j) {
						mismatched.Add(1)
					}
					for {
						v := minVersion.Load()
						if got.Version >= v || minVersion.CompareAndSwap(v, got.Version) {
							break
						}
					}
					for {
						v := maxVersion.Load()
						if got.Version <= v || maxVersion.CompareAndSwap(v, got.Version) {
							break
						}
					}
				}
			}(w)
		}

		// Mid-run, hot-swap the shard twice through the admin endpoint
		// (same gob — the invariant under test is losslessness and verdict
		// identity, not model change).
		swapped := make(chan error, 1)
		go func() {
			var firstErr error
			for i := 0; i < 2; i++ {
				time.Sleep(3 * time.Millisecond)
				body, _ := json.Marshal(serve.LoadModelRequest{Name: "default", Path: path})
				req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/models", bytes.NewReader(body))
				if err != nil {
					firstErr = err
					break
				}
				req.Header.Set("Authorization", "Bearer "+token)
				resp, err := http.DefaultClient.Do(req)
				if err != nil {
					firstErr = err
					break
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					firstErr = fmt.Errorf("swap %d: status %d", i, resp.StatusCode)
					break
				}
			}
			swapped <- firstErr
		}()

		close(start)
		wg.Wait()
		if err := <-swapped; err != nil {
			t.Fatal(err)
		}
		if n := lost.Load(); n != 0 {
			t.Fatalf("%d of %d requests lost across the swaps", n, workers*perWorker)
		}
		if n := mismatched.Load(); n != 0 {
			t.Fatalf("%d responses diverged from direct assessment", n)
		}
		if minVersion.Load() == maxVersion.Load() {
			t.Fatalf("all responses carried version %d — the swaps never overlapped the load", maxVersion.Load())
		}
		if st := getStats(ts.URL); st.Requests != workers*perWorker || st.Shed != 0 || st.Inflight != 0 {
			t.Fatalf("stats: %+v, want %d requests and no sheds", st, workers*perWorker)
		}
	})

	t.Run("shed", func(t *testing.T) {
		ts := bootAdmissionStack(t, path, "", 1)
		batch := make([][]float64, 4096)
		for i := range batch {
			batch[i] = X[i%len(X)]
		}
		checkShed := func(resp *http.Response, raw []byte) {
			t.Helper()
			var e serve.ErrorResponse
			if resp.Header.Get("Retry-After") != "1" || json.Unmarshal(raw, &e) != nil || e.Error != serve.ErrQueueFull.Error() {
				t.Fatalf("shed answer: Retry-After %q, body %s", resp.Header.Get("Retry-After"), raw)
			}
		}
		var served, shed, batchShed int64
		// A 4096-row batch holds the shard's whole in-flight budget while it
		// assesses; single requests fired meanwhile must shed (and the batch
		// itself sheds when it arrives while a single is assessing).
		// Scheduling decides how many overlap, so repeat until some did.
		for round := 0; round < 50 && shed == 0; round++ {
			type answer struct {
				resp *http.Response
				raw  []byte
				err  error
			}
			batchDone := make(chan answer, 1)
			go func() {
				resp, raw, err := post(ts.Client(), ts.URL+"/v1/assess/batch", serve.BatchRequest{Batch: batch})
				batchDone <- answer{resp, raw, err}
			}()
			for done := false; !done; {
				select {
				case a := <-batchDone:
					switch {
					case a.err != nil:
						t.Fatal(a.err)
					case a.resp.StatusCode == http.StatusServiceUnavailable:
						checkShed(a.resp, a.raw)
						batchShed++
					case a.resp.StatusCode != http.StatusOK:
						t.Fatalf("batch: status %d: %s", a.resp.StatusCode, a.raw)
					}
					done = true
					continue
				default:
				}
				j := int(served+shed) % len(X)
				resp, raw, err := post(ts.Client(), ts.URL+"/v1/assess", serve.AssessRequest{Features: X[j]})
				if err != nil {
					t.Fatal(err)
				}
				switch resp.StatusCode {
				case http.StatusOK:
					var got serve.AssessResponse
					if err := json.Unmarshal(raw, &got); err != nil || !identical(got, j) {
						t.Fatalf("served %s, want %+v (%v)", raw, want[j], err)
					}
					served++
				case http.StatusServiceUnavailable:
					checkShed(resp, raw)
					shed++
				default:
					t.Fatalf("status %d: %s", resp.StatusCode, raw)
				}
			}
		}
		if shed == 0 {
			t.Fatal("no single request overlapped a running batch in 50 rounds")
		}
		if st := getStats(ts.URL); st.Shed != shed+batchShed || st.Requests != served || st.Inflight != 0 {
			t.Fatalf("stats: %+v, clients saw %d served, %d single and %d batch sheds", st, served, shed, batchShed)
		}
	})
}
