package verdictstore

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"
)

func mustAppend(t *testing.T, s *Store, rec Record) uint64 {
	t.Helper()
	seq, err := s.Append(rec)
	if err != nil {
		t.Fatalf("Append: %v", err)
	}
	return seq
}

func TestAppendQueryRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Config{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer s.Close()

	base := time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)
	for i := 0; i < 20; i++ {
		dev := "edge-1"
		if i%2 == 1 {
			dev = "edge-2"
		}
		rec := Record{
			Time:       base.Add(time.Duration(i) * time.Second),
			Device:     dev,
			Model:      "rf",
			Version:    1,
			Source:     "assess",
			Prediction: i % 2,
			Decision:   "benign",
			Entropy:    0.1 * float64(i),
			Votes:      []float64{0.8, 0.2},
		}
		if i == 7 {
			rec.Decision = "reject"
			rec.Features = []float64{1, 2, 3}
		}
		seq := mustAppend(t, s, rec)
		if seq != uint64(i+1) {
			t.Fatalf("seq = %d, want %d", seq, i+1)
		}
	}

	all, err := s.Query(Filter{})
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	if len(all) != 20 {
		t.Fatalf("got %d records, want 20", len(all))
	}
	for i, rec := range all {
		if rec.Seq != uint64(i+1) {
			t.Fatalf("record %d has seq %d", i, rec.Seq)
		}
	}
	if all[7].Decision != "reject" || len(all[7].Features) != 3 {
		t.Fatalf("rejected record lost its features: %+v", all[7])
	}

	byDev, err := s.Query(Filter{Device: "edge-2"})
	if err != nil {
		t.Fatalf("Query device: %v", err)
	}
	if len(byDev) != 10 {
		t.Fatalf("device filter: got %d, want 10", len(byDev))
	}
	for _, rec := range byDev {
		if rec.Device != "edge-2" {
			t.Fatalf("device filter leaked %q", rec.Device)
		}
	}

	sinceSeq, err := s.Query(Filter{SinceSeq: 15})
	if err != nil {
		t.Fatalf("Query sinceSeq: %v", err)
	}
	if len(sinceSeq) != 6 || sinceSeq[0].Seq != 15 {
		t.Fatalf("sinceSeq filter: got %d records starting at %d", len(sinceSeq), sinceSeq[0].Seq)
	}

	window, err := s.Query(Filter{
		Since: base.Add(5 * time.Second),
		Until: base.Add(10 * time.Second),
	})
	if err != nil {
		t.Fatalf("Query window: %v", err)
	}
	if len(window) != 5 {
		t.Fatalf("time window: got %d, want 5", len(window))
	}

	limited, err := s.Query(Filter{Limit: 3})
	if err != nil {
		t.Fatalf("Query limit: %v", err)
	}
	if len(limited) != 3 {
		t.Fatalf("limit: got %d, want 3", len(limited))
	}

	st := s.Stats()
	if st.Records != 20 || st.Appended != 20 || st.NextSeq != 21 || st.FirstSeq != 1 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestRotationAndRetention(t *testing.T) {
	dir := t.TempDir()
	// Tiny segments force frequent rotation; MaxSegments 3 forces drops.
	s, err := Open(dir, Config{SegmentBytes: 256, MaxSegments: 3})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer s.Close()
	for i := 0; i < 60; i++ {
		mustAppend(t, s, Record{Device: "d", Model: "m", Version: 1, Decision: "benign", Entropy: 0.5})
	}
	st := s.Stats()
	if st.Segments > 3 {
		t.Fatalf("retention kept %d segments, cap 3", st.Segments)
	}
	if st.Dropped == 0 {
		t.Fatalf("expected dropped records, got stats %+v", st)
	}
	if st.Records+st.Dropped != 60 {
		t.Fatalf("records %d + dropped %d != 60", st.Records, st.Dropped)
	}
	// Surviving records are the newest, contiguous up to the last seq.
	recs, err := s.Query(Filter{})
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	if len(recs) != int(st.Records) {
		t.Fatalf("query saw %d, stats claim %d", len(recs), st.Records)
	}
	if recs[len(recs)-1].Seq != 60 {
		t.Fatalf("newest record seq = %d, want 60", recs[len(recs)-1].Seq)
	}
	for i := 1; i < len(recs); i++ {
		if recs[i].Seq != recs[i-1].Seq+1 {
			t.Fatalf("gap between seq %d and %d", recs[i-1].Seq, recs[i].Seq)
		}
	}
}

func TestReopenContinuesSequence(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Config{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	for i := 0; i < 5; i++ {
		mustAppend(t, s, Record{Model: "m", Version: 1, Decision: "benign"})
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	s2, err := Open(dir, Config{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer s2.Close()
	if st := s2.Stats(); st.Recovered != 5 || st.NextSeq != 6 {
		t.Fatalf("recovery stats: %+v", st)
	}
	if seq := mustAppend(t, s2, Record{Model: "m", Version: 1, Decision: "malware"}); seq != 6 {
		t.Fatalf("post-reopen seq = %d, want 6", seq)
	}
	recs, err := s2.Query(Filter{})
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	if len(recs) != 6 || recs[5].Decision != "malware" {
		t.Fatalf("reopened store contents wrong: %d records", len(recs))
	}
}

func TestTornTailRecovery(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Config{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	for i := 0; i < 4; i++ {
		mustAppend(t, s, Record{Model: "m", Version: 1, Decision: "benign", Entropy: float64(i)})
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	// Simulate a crash mid-append: garbage half-frame at the tail.
	segs, err := filepath.Glob(filepath.Join(dir, "verdicts-*.seg"))
	if err != nil || len(segs) != 1 {
		t.Fatalf("segments: %v %v", segs, err)
	}
	f, err := os.OpenFile(segs[0], os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatalf("open segment: %v", err)
	}
	if _, err := f.Write([]byte{0x20, 0x00, 0x00, 0x00, 0xde, 0xad}); err != nil {
		t.Fatalf("write garbage: %v", err)
	}
	f.Close()

	s2, err := Open(dir, Config{})
	if err != nil {
		t.Fatalf("reopen after torn tail: %v", err)
	}
	defer s2.Close()
	st := s2.Stats()
	if st.Recovered != 4 {
		t.Fatalf("recovered %d records, want 4", st.Recovered)
	}
	if st.TruncatedBytes == 0 {
		t.Fatalf("expected truncated bytes, stats %+v", st)
	}
	// The store must keep appending cleanly after truncation.
	if seq := mustAppend(t, s2, Record{Model: "m", Version: 2, Decision: "reject"}); seq != 5 {
		t.Fatalf("post-recovery seq = %d, want 5", seq)
	}
	recs, err := s2.Query(Filter{})
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	if len(recs) != 5 {
		t.Fatalf("got %d records, want 5", len(recs))
	}
}

func TestCorruptMiddleFrameStopsSegment(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Config{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	for i := 0; i < 3; i++ {
		mustAppend(t, s, Record{Model: "m", Version: 1, Decision: "benign"})
	}
	s.Close()

	// Flip a payload byte in the second frame: recovery keeps only the
	// intact prefix (frame 1) and truncates the rest.
	segs, _ := filepath.Glob(filepath.Join(dir, "verdicts-*.seg"))
	data, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatalf("read segment: %v", err)
	}
	frameLen := int(uint32(data[0]) | uint32(data[1])<<8 | uint32(data[2])<<16 | uint32(data[3])<<24)
	second := 8 + frameLen // offset of frame 2's header
	data[second+8+4] ^= 0xff
	if err := os.WriteFile(segs[0], data, 0o644); err != nil {
		t.Fatalf("rewrite segment: %v", err)
	}

	s2, err := Open(dir, Config{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer s2.Close()
	if st := s2.Stats(); st.Recovered != 1 || st.TruncatedBytes == 0 {
		t.Fatalf("stats after mid-segment corruption: %+v", st)
	}
}

func TestClosedStoreErrors(t *testing.T) {
	s, err := Open(t.TempDir(), Config{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if _, err := s.Append(Record{}); err != ErrClosed {
		t.Fatalf("Append on closed store: %v", err)
	}
	if _, err := s.Query(Filter{}); err != ErrClosed {
		t.Fatalf("Query on closed store: %v", err)
	}
	if err := s.Sync(); err != ErrClosed {
		t.Fatalf("Sync on closed store: %v", err)
	}
}

func TestConcurrentAppendQuery(t *testing.T) {
	s, err := Open(t.TempDir(), Config{SegmentBytes: 1024})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer s.Close()
	done := make(chan error, 4)
	for w := 0; w < 2; w++ {
		go func() {
			for i := 0; i < 100; i++ {
				if _, err := s.Append(Record{Model: "m", Version: 1, Decision: "benign"}); err != nil {
					done <- err
					return
				}
			}
			done <- nil
		}()
		go func() {
			for i := 0; i < 20; i++ {
				if _, err := s.Query(Filter{Limit: 5}); err != nil {
					done <- err
					return
				}
			}
			done <- nil
		}()
	}
	for i := 0; i < 4; i++ {
		if err := <-done; err != nil {
			t.Fatalf("concurrent op: %v", err)
		}
	}
	if st := s.Stats(); st.Appended != 200 {
		t.Fatalf("appended %d, want 200", st.Appended)
	}
}

// freezeFlusher stops a group-commit store's background flusher so the
// test alone decides when the pending group commits (white-box: pending
// appends then accumulate until Sync/Query/Stats/Close forces them out).
func freezeFlusher(t *testing.T, s *Store) {
	t.Helper()
	s.mu.Lock()
	stop := s.stopCh
	s.stopCh = nil
	s.mu.Unlock()
	if stop == nil {
		t.Fatal("store has no flusher to freeze")
	}
	close(stop)
	s.wg.Wait()
}

// copySegments snapshots dir's segment files into a fresh directory — the
// on-disk state a crash at this instant would leave behind (Close, with
// its final commit and fsync, never runs for the copy).
func copySegments(t *testing.T, dir string) string {
	t.Helper()
	crash := t.TempDir()
	segs, err := filepath.Glob(filepath.Join(dir, "verdicts-*.seg"))
	if err != nil {
		t.Fatalf("glob: %v", err)
	}
	for _, p := range segs {
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatalf("read %s: %v", p, err)
		}
		if err := os.WriteFile(filepath.Join(crash, filepath.Base(p)), data, 0o644); err != nil {
			t.Fatalf("copy %s: %v", p, err)
		}
	}
	return crash
}

// TestGroupCommitCrashRecoveryAtRotation drives one multi-record group
// commit across several segment rotations, "crashes" (copies the segment
// files without Close), tears the newest segment mid-frame, and reopens:
// recovery must truncate exactly the torn frame, keep every other record
// of the group, and continue the sequence.
func TestGroupCommitCrashRecoveryAtRotation(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Config{SegmentBytes: 512, MaxSegments: 64, SyncInterval: time.Hour})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	freezeFlusher(t, s)

	const n = 40
	for i := 0; i < n; i++ {
		mustAppend(t, s, Record{Device: "edge", Model: "m", Version: 1, Decision: "benign", Entropy: float64(i), Votes: []float64{0.7, 0.3}})
	}
	s.mu.Lock()
	pendingLen := len(s.pending)
	s.mu.Unlock()
	if pendingLen != n {
		t.Fatalf("pending %d records, want %d (flusher frozen, nothing read yet)", pendingLen, n)
	}
	// One group commit: the whole run lands with rotation decisions made
	// mid-group, frames batched per segment into single writes.
	if err := s.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}
	st := s.Stats()
	if st.Records != n || st.Segments < 2 {
		t.Fatalf("after group commit: %+v (want %d records across >= 2 segments)", st, n)
	}

	crash := copySegments(t, dir)
	segs, err := filepath.Glob(filepath.Join(crash, "verdicts-*.seg"))
	if err != nil || len(segs) < 2 {
		t.Fatalf("crash copy has %d segments (%v), want the rotation to have happened", len(segs), err)
	}
	sort.Strings(segs)
	last := segs[len(segs)-1]
	fi, err := os.Stat(last)
	if err != nil {
		t.Fatalf("stat: %v", err)
	}
	// Tear the active segment mid-frame, as a crash part-way through the
	// group's final write would.
	if err := os.Truncate(last, fi.Size()-5); err != nil {
		t.Fatalf("truncate: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	s2, err := Open(crash, Config{SegmentBytes: 512, MaxSegments: 64})
	if err != nil {
		t.Fatalf("reopen crash copy: %v", err)
	}
	defer s2.Close()
	st2 := s2.Stats()
	if st2.TruncatedBytes == 0 {
		t.Fatalf("expected a truncated torn tail, stats %+v", st2)
	}
	if st2.Recovered != n-1 {
		t.Fatalf("recovered %d records, want %d (only the torn frame may be lost)", st2.Recovered, n-1)
	}
	recs, err := s2.Query(Filter{})
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	if len(recs) != n-1 {
		t.Fatalf("query saw %d records, want %d", len(recs), n-1)
	}
	for i, rec := range recs {
		if rec.Seq != uint64(i+1) {
			t.Fatalf("record %d has seq %d — recovery left a gap", i, rec.Seq)
		}
	}
	if seq := mustAppend(t, s2, Record{Model: "m", Version: 1, Decision: "reject"}); seq != n {
		t.Fatalf("post-recovery seq = %d, want %d", seq, n)
	}
	if recs, err = s2.Query(Filter{}); err != nil || len(recs) != n {
		t.Fatalf("after post-recovery append: %d records (%v), want %d", len(recs), err, n)
	}
}

// TestSyncEverySynchronousDurability: with SyncEvery > 0 there is no
// flusher and every Append is on disk (written and fsynced at the
// configured cadence) before it returns — a crash copy taken with no
// Sync and no Close recovers every acknowledged record.
func TestSyncEverySynchronousDurability(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Config{SyncEvery: 1})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if s.stopCh != nil {
		t.Fatal("synchronous mode must not start a background flusher")
	}
	const n = 5
	for i := 0; i < n; i++ {
		mustAppend(t, s, Record{Model: "m", Version: 1, Decision: "benign", Entropy: float64(i)})
	}
	crash := copySegments(t, dir)
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	s2, err := Open(crash, Config{})
	if err != nil {
		t.Fatalf("reopen crash copy: %v", err)
	}
	defer s2.Close()
	if st := s2.Stats(); st.Recovered != n || st.TruncatedBytes != 0 {
		t.Fatalf("synchronous appends not all durable: %+v", st)
	}
}

// TestGroupCommitReadsObservePending: Query and Stats must commit the
// pending group themselves — every Append that returned is visible even
// when the background flusher never ran.
func TestGroupCommitReadsObservePending(t *testing.T) {
	s, err := Open(t.TempDir(), Config{SyncInterval: time.Hour})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	freezeFlusher(t, s)
	const n = 10
	for i := 0; i < n; i++ {
		mustAppend(t, s, Record{Model: "m", Version: 1, Decision: "benign"})
	}
	recs, err := s.Query(Filter{})
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	if len(recs) != n {
		t.Fatalf("query saw %d records, want %d (pending group not committed on read)", len(recs), n)
	}
	if st := s.Stats(); st.Records != n {
		t.Fatalf("stats records %d, want %d", st.Records, n)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

// TestQueryCandidateFilterMatchesFullScan: Query skips frames that lack
// the filter's device/model needles without decoding them, so its result
// must equal brute-force Filter.matches over a full scan — element for
// element, in order — for names built to trip a byte-level pre-filter.
func TestQueryCandidateFilterMatchesFullScan(t *testing.T) {
	s, err := Open(t.TempDir(), Config{SegmentBytes: 2048, MaxSegments: 1000})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer s.Close()

	devices := []string{
		"", "dev-1", "dev-10", "dev-1\"", `q"uote`, `back\slash`, "<a&b>",
		"line\u2028sep", "bad\xffutf8", "bad\uFFFDutf8", "ünï",
	}
	models := []string{"m", "<m>", `"device":"dev-1"`, `m\`, "m\u2028", "inv\xc3"}
	rng := rand.New(rand.NewSource(1))
	base := time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)
	const n = 600
	for i := 0; i < n; i++ {
		rec := Record{
			Time:     base.Add(time.Duration(i) * time.Second),
			Device:   devices[rng.Intn(len(devices))],
			Model:    models[rng.Intn(len(models))],
			Version:  1,
			Decision: "benign",
			Entropy:  rng.Float64(),
			Votes:    []float64{0.5, 0.5},
		}
		if i%7 == 0 {
			rec.Decision = "reject"
			rec.Features = []float64{float64(i), -1}
		}
		mustAppend(t, s, rec)
	}
	if st := s.Stats(); st.Segments < 3 {
		t.Fatalf("want several rotated segments, got %d", st.Segments)
	}
	all, err := s.Query(Filter{})
	if err != nil || len(all) != n {
		t.Fatalf("full scan: %d records, %v", len(all), err)
	}

	// Filter values: every stored name, plus names that only decode-equal
	// a stored one (U+FFFD), absent names and prefixes of stored names.
	fdevs := append(append([]string(nil), devices...), "dev-2", "dev-", "bad\uFFFD", "\uFFFD")
	fmodels := append(append([]string(nil), models...), "", "", "", `"device":`, "inv\uFFFD")
	at := func() time.Time {
		if rng.Intn(2) == 0 {
			return time.Time{}
		}
		return base.Add(time.Duration(rng.Intn(n+20)-10) * time.Second)
	}
	for trial := 0; trial < 2000; trial++ {
		f := Filter{
			Device: fdevs[rng.Intn(len(fdevs))],
			Model:  fmodels[rng.Intn(len(fmodels))],
			Since:  at(),
			Until:  at(),
		}
		if rng.Intn(2) == 0 {
			f.SinceSeq = uint64(rng.Intn(n + 10))
		}
		if rng.Intn(2) == 0 {
			f.Limit = 1 + rng.Intn(30)
		}
		var want []Record
		for _, rec := range all {
			if f.matches(rec) && (f.Limit == 0 || len(want) < f.Limit) {
				want = append(want, rec)
			}
		}
		got, err := s.Query(f)
		if err != nil {
			t.Fatalf("Query(%+v): %v", f, err)
		}
		if len(got) != len(want) {
			t.Fatalf("Query(%+v): %d records, full scan %d", f, len(got), len(want))
		}
		for i := range got {
			if !reflect.DeepEqual(got[i], want[i]) {
				t.Fatalf("Query(%+v)[%d] = %+v, full scan %+v", f, i, got[i], want[i])
			}
		}
	}
}

// TestQueryChecksSkippedFrames: a frame the device pre-filter skips is
// still checksum-verified — corruption in another device's record fails
// the read instead of passing unnoticed.
func TestQueryChecksSkippedFrames(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Config{SegmentBytes: 512, MaxSegments: 64})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer s.Close()
	for i := 0; i < 20; i++ {
		dev := "A"
		if i >= 10 {
			dev = "B"
		}
		mustAppend(t, s, Record{Device: dev, Model: "m", Version: 1, Decision: "benign"})
	}
	if err := s.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}
	if recs, err := s.Query(Filter{Device: "B"}); err != nil || len(recs) != 10 {
		t.Fatalf("before corruption: %d records, %v", len(recs), err)
	}
	segs, _ := filepath.Glob(filepath.Join(dir, "verdicts-*.seg"))
	sort.Strings(segs)
	if len(segs) < 2 {
		t.Fatalf("want a sealed segment, got %d segments", len(segs))
	}
	data, err := os.ReadFile(segs[0]) // sealed; its first frame is device A's
	if err != nil {
		t.Fatalf("read segment: %v", err)
	}
	data[frameHdr+4] ^= 0xff
	if err := os.WriteFile(segs[0], data, 0o644); err != nil {
		t.Fatalf("rewrite segment: %v", err)
	}
	_, err = s.Query(Filter{Device: "B"})
	if err == nil || !strings.Contains(err.Error(), "checksum mismatch") {
		t.Fatalf("Query over a corrupt skipped frame: err = %v, want checksum mismatch", err)
	}
}

// BenchmarkQueryDevice is the GET /v1/verdicts?device=…&limit=100 read on
// a store shaped like a loaded fleet node's: 64 devices appending in runs
// of 64 records, 16k records, and a device whose 100 records lie ~8k
// frames in, so the read scans about half the store.
func BenchmarkQueryDevice(b *testing.B) {
	s, err := Open(b.TempDir(), Config{})
	if err != nil {
		b.Fatalf("Open: %v", err)
	}
	defer s.Close()
	const devices, run, records = 64, 64, 16384
	base := time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)
	votes := []float64{0.6, 0.1, 0.1, 0.1, 0.1}
	features := make([]float64, 17)
	for i := 0; i < records; i++ {
		rec := Record{
			Time:          base.Add(time.Duration(i) * time.Millisecond),
			Device:        fmt.Sprintf("dev-%d", (i/run)%devices),
			Model:         "default",
			Version:       1,
			Source:        "batch",
			Decision:      "benign",
			Entropy:       0.42,
			Votes:         votes,
			LatencyMicros: 120,
		}
		if i%10 == 0 {
			rec.Decision = "reject"
			rec.Features = features
		}
		if _, err := s.Append(rec); err != nil {
			b.Fatalf("Append: %v", err)
		}
	}
	if err := s.Sync(); err != nil {
		b.Fatalf("Sync: %v", err)
	}
	f := Filter{Device: fmt.Sprintf("dev-%d", devices-1), Limit: 100}
	b.ReportAllocs()
	for b.Loop() {
		recs, err := s.Query(f)
		if err != nil || len(recs) != f.Limit {
			b.Fatalf("Query: %d records, %v", len(recs), err)
		}
	}
}
