// Command hmdbench regenerates every table and figure of the paper's
// evaluation (see DESIGN.md §5 for the experiment index).
//
// Usage:
//
//	hmdbench [-exp all|T1|F4|F5|F7a|F7b|F8|F9a|F9b|H|A1|A2|A3]
//	         [-scale 1.0] [-seed 1] [-m 25] [-tsne-csv dir]
//	hmdbench -loop 2000
//	hmdbench -loop 2000 -target http://n1:8080 -target http://n2:8080
//
// Either mode accepts -cpuprofile/-memprofile to dump pprof profiles of
// the whole run.
//
// -scale 1.0 reproduces the paper's full Table I sizes (the HPC dataset has
// 63k samples; the full run takes a few minutes). Smaller scales give quick
// qualitative runs.
//
// -loop N runs the closed-loop serving load harness instead of the
// experiments: train a tiny detector, build a verdict-tapped fleet, drive
// N windows per scenario (uniform devices, then a bursty single device)
// through the full concurrent serving path, and report throughput with
// p50/p99/p999 latency and heap allocs per window per scenario, plus
// verdict-store occupancy. A shed window (in-flight cap reached) is
// retried with bounded backoff, and the per-scenario retry count is
// reported — zero under healthy sizing.
//
// With -target (repeatable, or comma-separated) the same load shapes are
// driven over HTTP instead: POST /v1/assess round-robin across the given
// daemons — point it at the nodes of a cluster to load the whole fleet
// through every entry point at once. A 503 shed is retried where the
// server's Retry-After header says (bounded: at most 8 attempts, delays
// capped at 2s), and the per-scenario retry count is reported alongside
// throughput and latency.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"trusthmd/internal/exp"
	"trusthmd/internal/gen"
	"trusthmd/pkg/detector"
	"trusthmd/pkg/serve"
	"trusthmd/pkg/verdictstore"
)

func main() {
	var (
		which   = flag.String("exp", "all", "experiment id (T1,F4,F5,F7a,F7b,F8,F9a,F9b,H,A1,A2,A3,A4,A5,E1,E2) or 'all'")
		scale   = flag.Float64("scale", 1.0, "fraction of the paper's Table I split sizes")
		seed    = flag.Int64("seed", 1, "random seed")
		m       = flag.Int("m", 25, "ensemble size")
		tsneCSV = flag.String("tsne-csv", "", "directory to dump Fig. 8 embedding coordinates as CSV")
		loopN   = flag.Int("loop", 0, "closed-loop load harness: assess N windows per scenario through a verdict-tapped fleet and report throughput + p50/p99/p999 + allocs/op (skips -exp)")
		cpuProf = flag.String("cpuprofile", "", "write a CPU profile of the whole run to this file (go tool pprof)")
		memProf = flag.String("memprofile", "", "write an end-of-run heap profile to this file (go tool pprof)")
	)
	var targets targetFlags
	flag.Var(&targets, "target", "daemon base URL for the -loop HTTP mode (repeatable or comma-separated; round-robin across all)")
	flag.Parse()

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fmt.Fprintf(os.Stderr, "hmdbench: cpuprofile: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "hmdbench: cpuprofile: %v\n", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}
	defer writeMemProfile(*memProf)

	if *loopN > 0 {
		var err error
		if len(targets) > 0 {
			err = runHTTPLoop(*loopN, *seed, targets, os.Stdout)
		} else {
			err = runClosedLoop(*loopN, *seed, os.Stdout)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "hmdbench: loop: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if len(targets) > 0 {
		fmt.Fprintln(os.Stderr, "hmdbench: -target needs -loop N")
		os.Exit(1)
	}

	cfg := exp.Config{Seed: *seed, Scale: *scale, M: *m}
	ids := strings.Split(*which, ",")
	if *which == "all" {
		ids = []string{"T1", "F4", "F5", "F7a", "F7b", "F8", "F9a", "F9b", "H", "A1", "A2", "A3", "A4", "A5", "E1", "E2"}
	}
	for _, id := range ids {
		if err := run(strings.TrimSpace(id), cfg, *tsneCSV); err != nil {
			fmt.Fprintf(os.Stderr, "hmdbench: %s: %v\n", id, err)
			os.Exit(1)
		}
	}
}

func run(id string, cfg exp.Config, tsneCSV string) error {
	type renderer interface{ Render() string }
	var (
		res renderer
		err error
	)
	switch id {
	case "T1":
		res, err = exp.TableI(cfg)
	case "F4":
		res, err = exp.Fig4(cfg)
	case "F5":
		res, err = exp.Fig5(cfg)
	case "F7a":
		res, err = exp.Fig7a(cfg)
	case "F7b":
		res, err = exp.Fig7b(cfg)
	case "F8":
		for _, which := range []string{"DVFS", "HPC"} {
			r, err := exp.Fig8(cfg, which)
			if err != nil {
				return err
			}
			fmt.Println(r.Render())
			if tsneCSV != "" {
				if err := dumpTSNE(r, tsneCSV); err != nil {
					return err
				}
			}
		}
		return nil
	case "F9a":
		res, err = exp.Fig9a(cfg)
	case "F9b":
		res, err = exp.Fig9b(cfg)
	case "H":
		res, err = exp.Headlines(cfg)
	case "A1":
		res, err = exp.AblationPlatt(cfg)
	case "A2":
		res, err = exp.AblationPosterior(cfg)
	case "A3":
		res, err = exp.AblationDiversity(cfg)
	case "A4":
		res, err = exp.AblationFamilies(cfg)
	case "A5":
		res, err = exp.AblationSources(cfg)
	case "E1":
		res, err = exp.EMGeneralization(cfg)
	case "E2":
		res, err = exp.GovernorSensitivity(cfg)
	default:
		return fmt.Errorf("unknown experiment %q", id)
	}
	if err != nil {
		return err
	}
	fmt.Println(res.Render())
	return nil
}

// loopScenario is one load shape of the -loop harness. device maps a
// request index to its routing key: the uniform scenario spreads across 8
// devices, the bursty one hammers a single device.
type loopScenario struct {
	name   string
	device func(i int) string
}

func loopScenarios() []loopScenario {
	return []loopScenario{
		{name: "uniform", device: func(i int) string { return fmt.Sprintf("bench-%d", i%8) }},
		{name: "bursty", device: func(i int) string { return "bench-hot" }},
	}
}

// targetFlags collects -target URLs (repeatable, each possibly
// comma-separated).
type targetFlags []string

func (t *targetFlags) String() string { return strings.Join(*t, ",") }

func (t *targetFlags) Set(v string) error {
	for _, u := range strings.Split(v, ",") {
		u = strings.TrimRight(strings.TrimSpace(u), "/")
		if u == "" {
			continue
		}
		*t = append(*t, u)
	}
	return nil
}

// The bounded retry policy both loop modes share: a shed (ErrQueueFull in
// process, 503 over HTTP) is backpressure, not failure — the harness
// retries where the server's Retry-After header says, but never more than
// maxRetryAttempts times and never sleeping longer than maxRetryDelay per
// attempt, so a dead fleet fails the run instead of hanging it.
const (
	maxRetryAttempts  = 8
	maxRetryDelay     = 2 * time.Second
	defaultRetryDelay = 50 * time.Millisecond
)

// parseRetryAfter turns a Retry-After header into a bounded delay.
// Only the delta-seconds form is honored (the HTTP-date form is not worth
// a clock comparison in a load tool); absent or malformed values fall
// back to defaultRetryDelay, and everything is capped at maxRetryDelay.
func parseRetryAfter(h string) time.Duration {
	secs, err := strconv.Atoi(strings.TrimSpace(h))
	if err != nil || secs < 0 {
		return defaultRetryDelay
	}
	d := time.Duration(secs) * time.Second
	if d > maxRetryDelay {
		return maxRetryDelay
	}
	return d
}

// assessWithRetry drives one window through the in-process fleet,
// retrying sheds with doubling backoff. It returns how many retries the
// window needed.
func assessWithRetry(ctx context.Context, fleet *serve.Fleet, spec serve.AssessSpec) (serve.AssessOutcome, int, error) {
	delay := time.Millisecond
	for attempt := 0; ; attempt++ {
		res, err := fleet.Assess(ctx, spec)
		if !errors.Is(err, serve.ErrQueueFull) || attempt == maxRetryAttempts {
			return res, attempt, err
		}
		time.Sleep(delay)
		if delay *= 2; delay > maxRetryDelay {
			delay = maxRetryDelay
		}
	}
}

// runClosedLoop is the -loop load harness: a tiny detector served by a
// verdict-tapped fleet, n windows per scenario driven concurrently through
// the full path (routing, admission, assessment, verdict persistence),
// reporting throughput and p50/p99 latency per scenario. It fails when
// any verdict is lost — the store must hold exactly one record per served
// window.
func runClosedLoop(n int, seed int64, out *os.File) error {
	splits, err := gen.DVFSWithSizes(seed, gen.Sizes{Train: 280, Test: 140, Unknown: 40})
	if err != nil {
		return err
	}
	det, err := detector.New(splits.Train,
		detector.WithModel("rf"), detector.WithEnsembleSize(9), detector.WithSeed(seed))
	if err != nil {
		return err
	}
	dir, err := os.MkdirTemp("", "hmdbench-loop-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	store, err := verdictstore.Open(dir, verdictstore.Config{})
	if err != nil {
		return err
	}
	defer store.Close()
	fleet, err := serve.NewFleet(map[string]*detector.Detector{"dvfs-rf": det},
		serve.Config{
			Verdicts: store,
			// The harness measures the serving path, not the memo: a warm
			// cache would turn the loop into a hashmap benchmark.
			CacheSize: -1,
		})
	if err != nil {
		return err
	}
	defer fleet.Close()

	const workers = 8
	ctx := context.Background()
	served := int64(0)
	for _, sc := range loopScenarios() {
		var (
			wg        sync.WaitGroup
			rejected  atomic.Int64
			retried   atomic.Int64
			latencies = make([][]time.Duration, workers)
			firstErr  atomic.Pointer[error]
		)
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		start := time.Now()
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				lats := make([]time.Duration, 0, n/workers+1)
				for i := w; i < n; i += workers {
					smp := splits.Test.At(i % splits.Test.Len())
					t0 := time.Now()
					res, retries, err := assessWithRetry(ctx, fleet, serve.AssessSpec{
						Device:   sc.device(i),
						Features: smp.Features,
						Source:   "assess",
					})
					retried.Add(int64(retries))
					if err != nil {
						err = fmt.Errorf("%s window %d: %w", sc.name, i, err)
						firstErr.CompareAndSwap(nil, &err)
						return
					}
					// Latency includes the retries: the cost of a shed is
					// part of the window's serving time, not noise.
					lats = append(lats, time.Since(t0))
					if res.Result.Decision == detector.Reject {
						rejected.Add(1)
					}
				}
				latencies[w] = lats
			}(w)
		}
		wg.Wait()
		if errp := firstErr.Load(); errp != nil {
			return *errp
		}
		elapsed := time.Since(start)
		runtime.ReadMemStats(&ms1)
		var all []time.Duration
		for _, lats := range latencies {
			all = append(all, lats...)
		}
		sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
		served += int64(len(all))
		throughput := float64(len(all)) / elapsed.Seconds()
		// Heap allocations across the whole scenario, per served window —
		// the closed-loop view of the request path's alloc budget.
		allocsPer := float64(ms1.Mallocs-ms0.Mallocs) / float64(len(all))
		fmt.Fprintf(out, "closed loop [%-7s]: %d windows in %v — %.0f verdicts/s (p50 %v, p99 %v, p999 %v, %d rejected, %d retried, %.1f allocs/op)\n",
			sc.name, len(all), elapsed.Round(time.Millisecond), throughput,
			percentile(all, 500).Round(time.Microsecond), percentile(all, 990).Round(time.Microsecond),
			percentile(all, 999).Round(time.Microsecond),
			rejected.Load(), retried.Load(), allocsPer)
	}
	st := store.Stats()
	if st.Records != served {
		return fmt.Errorf("verdict store holds %d records, served %d", st.Records, served)
	}
	fmt.Fprintf(out, "verdict store: %d records in %d segment(s)\n", st.Records, st.Segments)
	return nil
}

// runHTTPLoop is the -target mode: the same load shapes as the in-process
// harness, driven as POST /v1/assess round-robin over the given daemons —
// against a cluster, this loads the whole fleet through every entry point
// at once, forwarding included. 503 sheds are retried per the server's
// Retry-After (bounded), and the per-scenario retry count is reported.
func runHTTPLoop(n int, seed int64, targets []string, out *os.File) error {
	splits, err := gen.DVFSWithSizes(seed, gen.Sizes{Train: 280, Test: 140, Unknown: 40})
	if err != nil {
		return err
	}
	client := &http.Client{Timeout: 30 * time.Second}
	const workers = 8
	for _, sc := range loopScenarios() {
		var (
			wg        sync.WaitGroup
			rejected  atomic.Int64
			retried   atomic.Int64
			latencies = make([][]time.Duration, workers)
			firstErr  atomic.Pointer[error]
		)
		start := time.Now()
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				lats := make([]time.Duration, 0, n/workers+1)
				for i := w; i < n; i += workers {
					smp := splits.Test.At(i % splits.Test.Len())
					t0 := time.Now()
					decision, retries, err := postWindow(client, targets[i%len(targets)], serve.AssessRequest{
						Device:   sc.device(i),
						Features: smp.Features,
					})
					retried.Add(int64(retries))
					if err != nil {
						err = fmt.Errorf("%s window %d: %w", sc.name, i, err)
						firstErr.CompareAndSwap(nil, &err)
						return
					}
					lats = append(lats, time.Since(t0))
					if decision == detector.Reject.String() {
						rejected.Add(1)
					}
				}
				latencies[w] = lats
			}(w)
		}
		wg.Wait()
		if errp := firstErr.Load(); errp != nil {
			return *errp
		}
		elapsed := time.Since(start)
		var all []time.Duration
		for _, lats := range latencies {
			all = append(all, lats...)
		}
		sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
		throughput := float64(len(all)) / elapsed.Seconds()
		fmt.Fprintf(out, "http loop [%-7s x%d target(s)]: %d windows in %v — %.0f verdicts/s (p50 %v, p99 %v, p999 %v, %d rejected, %d retried)\n",
			sc.name, len(targets), len(all), elapsed.Round(time.Millisecond), throughput,
			percentile(all, 500).Round(time.Microsecond), percentile(all, 990).Round(time.Microsecond),
			percentile(all, 999).Round(time.Microsecond), rejected.Load(), retried.Load())
	}
	return nil
}

// postWindow drives one window through POST /v1/assess, honoring 503 +
// Retry-After with the bounded policy. It returns the server's decision
// string and how many retries the window needed.
func postWindow(client *http.Client, target string, req serve.AssessRequest) (string, int, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return "", 0, err
	}
	for attempt := 0; ; attempt++ {
		resp, err := client.Post(target+"/v1/assess", "application/json", bytes.NewReader(body))
		if err != nil {
			return "", attempt, err
		}
		raw, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return "", attempt, err
		}
		switch {
		case resp.StatusCode == http.StatusOK:
			var out serve.AssessResponse
			if err := json.Unmarshal(raw, &out); err != nil {
				return "", attempt, fmt.Errorf("%s: bad response: %w", target, err)
			}
			return out.Decision, attempt, nil
		case resp.StatusCode == http.StatusServiceUnavailable && attempt < maxRetryAttempts:
			time.Sleep(parseRetryAfter(resp.Header.Get("Retry-After")))
		default:
			return "", attempt, fmt.Errorf("%s: status %d: %s", target, resp.StatusCode, raw)
		}
	}
}

// writeMemProfile dumps an end-of-run heap profile after a final GC, so
// the profile shows retained memory rather than collectable garbage.
func writeMemProfile(path string) {
	if path == "" {
		return
	}
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "hmdbench: memprofile: %v\n", err)
		return
	}
	defer f.Close()
	runtime.GC()
	if err := pprof.WriteHeapProfile(f); err != nil {
		fmt.Fprintf(os.Stderr, "hmdbench: memprofile: %v\n", err)
	}
}

// percentile reads the p-th permille (p50 = 500, p999 = 999) off a
// sorted latency slice.
func percentile(sorted []time.Duration, p int) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	idx := len(sorted) * p / 1000
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

func dumpTSNE(r *exp.TSNEResult, dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("fig8_%s.csv", strings.ToLower(r.Dataset)))
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if _, err := fmt.Fprintln(f, "x,y,label,group,app"); err != nil {
		return err
	}
	for _, p := range r.Points {
		if _, err := fmt.Fprintf(f, "%g,%g,%d,%s,%s\n", p.X, p.Y, p.Label, p.Group, p.App); err != nil {
			return err
		}
	}
	fmt.Printf("wrote %s (%d points)\n", path, len(r.Points))
	return nil
}
