package serve

import (
	"encoding/json"
	"math"
	"net/http"
	"os"
	"testing"

	"trusthmd/pkg/detector"
)

func TestResultCacheLRU(t *testing.T) {
	c := newResultCache(2)
	mk := func(v float64) []float64 { return []float64{v, v + 1} }
	res := func(p int) detector.Result {
		return detector.Result{Prediction: p, VoteDist: []float64{0.3, 0.7}}
	}
	put := func(x []float64, p int) { c.put(hashVec(x), x, res(p)) }
	get := func(x []float64) (detector.Result, bool) { return c.get(hashVec(x), x) }

	put(mk(1), 1)
	put(mk(2), 2)
	if r, ok := get(mk(1)); !ok || r.Prediction != 1 {
		t.Fatalf("expected hit for vec 1, got %v %v", r, ok)
	}
	put(mk(3), 3) // evicts vec 2 (1 was just refreshed)
	if _, ok := get(mk(2)); ok {
		t.Fatal("vec 2 should have been evicted as least recently used")
	}
	if _, ok := get(mk(1)); !ok {
		t.Fatal("vec 1 should have survived eviction")
	}
	if _, ok := get(mk(3)); !ok {
		t.Fatal("vec 3 should be cached")
	}
	if c.len() != 2 {
		t.Fatalf("cache holds %d entries, want 2", c.len())
	}

	// Cached results are deep copies: mutating a served result must not
	// corrupt the cache.
	r, _ := get(mk(3))
	r.VoteDist[0] = math.NaN()
	r2, _ := get(mk(3))
	if math.IsNaN(r2.VoteDist[0]) {
		t.Fatal("cache entry aliases a served result's VoteDist")
	}

	// A disabled cache (capacity <= 0) is a nil no-op.
	var off *resultCache
	off.put(1, mk(1), res(1))
	if _, ok := off.get(1, mk(1)); ok {
		t.Fatal("nil cache should never hit")
	}
	if newResultCache(0) != nil || newResultCache(-1) != nil {
		t.Fatal("capacity <= 0 should disable the cache")
	}
}

func TestHashVecDiscriminates(t *testing.T) {
	a := []float64{1, 2, 3}
	b := []float64{1, 2, 3.0000000001}
	if hashVec(a) == hashVec(b) {
		t.Fatal("nearby vectors should hash apart")
	}
	if hashVec(a) != hashVec([]float64{1, 2, 3}) {
		t.Fatal("equal vectors must hash equal")
	}
	// Collisions must be detected by the stored-vector comparison.
	c := newResultCache(4)
	key := hashVec(a)
	c.put(key, a, detector.Result{Prediction: 1})
	if _, ok := c.get(key, b); ok {
		t.Fatal("a colliding key with a different vector must miss")
	}
}

// TestServeCacheHitsAreIdentical is the cross-request caching e2e: the
// same vectors served twice over HTTP must answer bit-identically, /stats
// must show the second pass as pure cache hits, and the detector must see
// no additional calls (the batches counter stays put). When TRUSTHMD_SERVE_STATS_OUT is set (the CI
// bench job does this), the final /stats snapshot is written there as a
// build artifact.
func TestServeCacheHitsAreIdentical(t *testing.T) {
	d, X := testDetector(t)
	s, ts := newTestServer(t, Config{CacheSize: 1024})
	n := 60

	assess := func(i int) AssessResponse {
		resp, body := postJSON(t, ts.URL+"/v1/assess", AssessRequest{Features: X[i%len(X)]})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("assess %d: status %d: %s", i, resp.StatusCode, body)
		}
		var out AssessResponse
		if err := json.Unmarshal(body, &out); err != nil {
			t.Fatal(err)
		}
		return out
	}

	first := make([]AssessResponse, n)
	for i := 0; i < n; i++ {
		first[i] = assess(i)
	}
	st := s.Stats()[0]
	if st.CacheMisses == 0 {
		t.Fatalf("first pass recorded no cache misses: %+v", st)
	}
	batchesAfterFirst := st.Batches

	for i := 0; i < n; i++ {
		second := assess(i)
		want := first[i]
		if second.Prediction != want.Prediction || second.Entropy != want.Entropy || second.Decision != want.Decision {
			t.Fatalf("request %d: cached answer diverged: %+v vs %+v", i, second, want)
		}
		for j := range want.VoteDist {
			if second.VoteDist[j] != want.VoteDist[j] {
				t.Fatalf("request %d: cached vote dist diverged", i)
			}
		}
		// And the cache answers exactly what the detector would compute.
		direct, err := d.Assess(X[i%len(X)])
		if err != nil {
			t.Fatal(err)
		}
		if second.Prediction != direct.Prediction || second.Entropy != direct.Entropy {
			t.Fatalf("request %d: cached answer diverged from direct Assess", i)
		}
	}
	st = s.Stats()[0]
	if st.CacheHits < int64(n) {
		t.Fatalf("second pass expected >= %d cache hits, got %d", n, st.CacheHits)
	}
	if st.Batches != batchesAfterFirst {
		t.Fatalf("cache hits still flushed batches: %d -> %d", batchesAfterFirst, st.Batches)
	}
	if st.Requests != int64(2*n) {
		t.Fatalf("stats requests %d, want %d", st.Requests, 2*n)
	}
	if st.CacheEntries == 0 {
		t.Fatal("cache reports zero entries after serving")
	}

	// The batch endpoint shares the cache: an all-repeat batch is pure hits.
	hitsBefore := s.Stats()[0].CacheHits
	batch := make([][]float64, n)
	for i := range batch {
		batch[i] = X[i%len(X)]
	}
	resp, body := postJSON(t, ts.URL+"/v1/assess/batch", BatchRequest{Batch: batch})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch: status %d: %s", resp.StatusCode, body)
	}
	var bout BatchResponse
	if err := json.Unmarshal(body, &bout); err != nil {
		t.Fatal(err)
	}
	for i, r := range bout.Results {
		if r.Prediction != first[i].Prediction || r.Entropy != first[i].Entropy {
			t.Fatalf("batch[%d]: cached answer diverged", i)
		}
	}
	st = s.Stats()[0]
	if st.CacheHits < hitsBefore+int64(n) {
		t.Fatalf("batch pass expected >= %d more hits, got %d -> %d", n, hitsBefore, st.CacheHits)
	}

	if path := os.Getenv("TRUSTHMD_SERVE_STATS_OUT"); path != "" {
		raw, err := json.MarshalIndent(map[string]any{"shards": s.Stats()}, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatalf("writing serve stats artifact: %v", err)
		}
	}
}

// TestServeCacheDisabled pins the opt-out: with CacheSize < 0 every
// repeat request reaches the detector and the cache counters stay
// untouched — a disabled cache reports no activity at all, rather than a
// 100% miss rate for a cache that does not exist.
func TestServeCacheDisabled(t *testing.T) {
	_, X := testDetector(t)
	s, ts := newTestServer(t, Config{CacheSize: -1})
	for i := 0; i < 3; i++ {
		resp, body := postJSON(t, ts.URL+"/v1/assess", AssessRequest{Features: X[0]})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d: %s", resp.StatusCode, body)
		}
	}
	resp, body := postJSON(t, ts.URL+"/v1/assess/batch", BatchRequest{Batch: [][]float64{X[0], X[0]}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch status %d: %s", resp.StatusCode, body)
	}
	st := s.Stats()[0]
	if st.CacheHits != 0 || st.CacheMisses != 0 || st.CacheEntries != 0 {
		t.Fatalf("disabled cache recorded activity: %+v", st)
	}
	if st.Batches != 3 {
		t.Fatalf("every repeat should have flushed: %d batches, want 3", st.Batches)
	}
	if st.BatchSamples != 2 {
		t.Fatalf("batch endpoint served %d samples, want 2", st.BatchSamples)
	}
}
