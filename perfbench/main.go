// Command perfbench is trusthmd's end-to-end serving benchmark. It runs
// one seeded workload against trusthmdd daemons on loopback TCP, checks
// every verdict against an in-process oracle and every node's verdict
// store against the verdicts it served, and prints its metrics, the last
// line being one JSON object.
//
// Run it from the repository root through run.sh, which builds the
// daemon and this command from the tree first:
//
//	bash perfbench/run.sh --workload assess-single --seed 1 --seconds 10 --trace 0
//
// With --trace 1 it instead reports per-layer metrics: a short untraced
// daemon run (generator health), then the same inputs replayed against
// an in-process deployment twice, untraced and traced, plus direct calls
// into each layer. See perfbench/README.md for the metric map.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// setups is how many times a run boots the deployment; setup_s is the
// median, and the last boot serves the measured load.
const setups = 5

func main() {
	var (
		wl      = flag.String("workload", "", "workload: "+strings.Join(workloads, ", "))
		seed    = flag.Int64("seed", 1, "seed for every generated input")
		seconds = flag.Int("seconds", 10, "measured seconds")
		trace   = flag.Int("trace", 0, "0: end-to-end metrics against daemons; 1: per-layer metrics from a traced replay")
		bin     = flag.String("bin", "", "trusthmdd binary built from the tree under test")
		work    = flag.String("work", "", "directory for models, verdict stores, logs and span logs")
	)
	flag.Parse()
	if *bin == "" || *work == "" || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need -bin, -work, -seconds >= 1 and -trace 0|1 (run it through perfbench/run.sh)")
		os.Exit(2)
	}
	res, err := run(*wl, *seed, time.Duration(*seconds)*time.Second, *trace == 1, *bin, *work)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
	if !res.Correct {
		os.Exit(1)
	}
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// bench is one run's shared state.
type bench struct {
	plan      *plan
	gob       []byte
	gobPath   string
	oracle    *oracle
	bin, work string
	seed      int64
	probe     []byte // the readiness verdict request
	ctl       *http.Client
	res       *result
}

func run(wl string, seed int64, seconds time.Duration, traced bool, bin, work string) (*result, error) {
	b, err := newBench(wl, seed, seconds, bin, work)
	if err != nil {
		return nil, err
	}
	defer b.ctl.CloseIdleConnections()
	fmt.Printf("perfbench %s seed %d: %d ops planned over %d windows, %d node(s)\n",
		wl, seed, len(b.plan.ops), len(b.plan.windows), b.plan.nodes)
	if traced {
		err = b.traced(seconds)
	} else {
		err = b.endToEnd(seconds)
	}
	if err != nil {
		return nil, err
	}
	return b.res, nil
}

// newBench generates the workload's inputs and trains the served model,
// writing its gob into work.
func newBench(wl string, seed int64, seconds time.Duration, bin, work string) (*bench, error) {
	p, err := newPlan(wl, seed, seconds.Seconds())
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(work, 0o755); err != nil {
		return nil, err
	}
	gob, det, err := trainModel()
	if err != nil {
		return nil, fmt.Errorf("train model: %w", err)
	}
	gobPath := filepath.Join(work, "model.gob")
	if err := os.WriteFile(gobPath, gob, 0o644); err != nil {
		return nil, err
	}
	// The readiness verdict must not put a planned vector in the cache.
	planned := map[string]bool{}
	for _, w := range p.windows {
		planned[string(appendFloats(nil, w.vec))] = true
	}
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	var probe []float64
	for probe == nil {
		ws, err := genWindows(rng, 1, false)
		if err != nil {
			return nil, err
		}
		if !planned[string(appendFloats(nil, ws[0].vec))] {
			probe = ws[0].vec
		}
	}
	return &bench{
		plan: p, gob: gob, gobPath: gobPath, oracle: newOracle(det),
		bin: bin, work: work, seed: seed,
		probe: assessBody("probe", probe),
		ctl:   &http.Client{Transport: &http.Transport{Proxy: nil, DisableCompression: true}, Timeout: 30 * time.Second},
		res:   &result{Correct: true, Metrics: map[string]metric{}},
	}, nil
}

func (b *bench) set(name string, v float64, unit string) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	b.res.Metrics[name] = metric{Value: v, Unit: unit}
}

// deployment is a booted system under test: daemons or in-process nodes.
type deployment struct {
	urls   []string
	pids   []int // daemon processes; nil in-process
	exited func() error
	stop   func()
	ip     *inproc // in-process only
}

// boot starts the workload's deployment in a fresh directory and waits
// until it is ready: every node answers /healthz, a cluster has
// converged, and a first verdict has come back through every entry
// point (which, on a cluster, installs the shard on its owner).
func (b *bench) boot(inprocess bool, nodes int, tr *tracer) (*deployment, time.Duration, error) {
	dir, err := os.MkdirTemp(b.work, "deploy-")
	if err != nil {
		return nil, 0, err
	}
	start := time.Now()
	d := &deployment{}
	if inprocess {
		ip, err := startInproc(b.gob, dir, nodes, tr)
		if err != nil {
			os.RemoveAll(dir)
			return nil, 0, err
		}
		d.urls, d.ip, d.exited = ip.urls(), ip, func() error { return nil }
		d.stop = ip.stop
	} else {
		sys, err := launch(b.ctl, b.bin, b.gobPath, dir, nodes)
		if err != nil {
			os.RemoveAll(dir)
			return nil, 0, err
		}
		d.urls, d.pids, d.exited, d.stop = sys.urls(), sys.pids(), sys.exited, sys.stop
	}
	stop := d.stop
	d.stop = func() { stop(); os.RemoveAll(dir) }
	if err := waitReady(b.ctl, d.urls, d.exited, 60*time.Second); err != nil {
		stop() // keep the directory: its logs say why
		return nil, 0, fmt.Errorf("%w (logs in %s)", err, dir)
	}
	for _, u := range d.urls {
		resp, err := b.ctl.Post(u+"/v1/assess", "application/json", bytes.NewReader(b.probe))
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				err = fmt.Errorf("readiness verdict via %s: %s", u, resp.Status)
			}
		}
		if err != nil {
			d.stop()
			return nil, 0, err
		}
	}
	return d, time.Since(start), nil
}

// outcome is one measured load on one deployment.
type outcome struct {
	rec       *record
	check     verdictCheck
	seconds   float64
	phase     phase
	cpuAt     []time.Duration // daemons' CPU at each slice edge
	genCPU    time.Duration   // this process, measured phase
	rssBytes  int64
	before    []nodeStats
	after     []nodeStats
	storeErrs []string
	forwards  int64 // in-process: forwards_out delta
	fleet     fleetDelta
}

type fleetDelta struct {
	requests, batchRequests, sessions, batches, queued, shed, hits, misses int64
}

// measure drives the plan against a ready deployment and checks the
// result: the oracle, and every node's verdict store.
func (b *bench) measure(d *deployment, seconds time.Duration, mk func() *client) (*outcome, error) {
	owner, err := ownerOf(b.ctl, d.urls)
	if err != nil {
		return nil, err
	}
	out := &outcome{seconds: seconds.Seconds()}
	if out.before, err = b.nodeStats(d.urls); err != nil {
		return nil, err
	}
	var fwd0 int64
	var f0 fleetDelta
	if d.ip != nil {
		fwd0, f0 = d.ip.forwardsOut(), d.ip.fleetCounters()
	}
	var gen0 time.Duration
	var phaseErr error
	onEdge := func(k int) {
		cpu, err := cpuOf(d.pids)
		gen, gerr := procCPU(0)
		if err = errors.Join(err, gerr); err != nil {
			phaseErr = err
			return
		}
		if k == 0 {
			gen0 = gen
		} else {
			out.genCPU = gen - gen0
		}
		out.cpuAt = append(out.cpuAt, cpu)
	}
	out.rec, out.phase = runLoad(b.plan, target{urls: d.urls, owner: owner}, seconds, mk, onEdge)
	if phaseErr != nil {
		return nil, phaseErr
	}
	for _, pid := range d.pids {
		hwm, err := procHWM(pid)
		if err != nil {
			return nil, err
		}
		out.rssBytes += hwm
	}
	if d.ip != nil {
		out.forwards = d.ip.forwardsOut() - fwd0
		out.fleet = d.ip.fleetCounters().minus(f0)
	}
	// Every verdict delivered, plus one readiness verdict per entry
	// point, must be in exactly one node's store. Stream sessions fold
	// their counters in as the handler returns, just after the client
	// has its summary line, so the check retries briefly.
	want := int64(out.rec.delivered + len(d.urls))
	for try := 0; ; try++ {
		if out.after, err = b.nodeStats(d.urls); err != nil {
			return nil, err
		}
		out.storeErrs = storeCheck(out.after, want)
		if len(out.storeErrs) == 0 || try == 50 {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if out.check, err = b.oracle.check(b.plan, out.rec.blobs); err != nil {
		return nil, fmt.Errorf("oracle: %w", err)
	}
	return out, nil
}

// serverCPU is the daemons' CPU over the whole measured phase.
func (o *outcome) serverCPU() time.Duration {
	if len(o.cpuAt) < 2 {
		return 0
	}
	return o.cpuAt[len(o.cpuAt)-1] - o.cpuAt[0]
}

// sliceCPU returns the daemons' CPU per verdict, in µs, in each slice of
// the measured phase. Reports take the median slice.
func (o *outcome) sliceCPU() []float64 {
	var cpus []float64
	for k, verdicts := range o.rec.slices {
		if verdicts > 0 && k+1 < len(o.cpuAt) {
			cpus = append(cpus, float64((o.cpuAt[k+1]-o.cpuAt[k]).Nanoseconds())/1e3/float64(verdicts))
		}
	}
	return cpus
}

// storeCheck verifies that each node's verdict store appended exactly one
// record per verdict its fleet served and accounts for each of them, and
// that the stores together hold every verdict the clients received.
func storeCheck(nodes []nodeStats, want int64) []string {
	var errs []string
	var total int64
	for i, n := range nodes {
		vs := n.VerdictStore
		// Retention may drop whole old segments; it reports every record
		// it drops, so the store must still account for each verdict.
		if vs.Appended != n.served() || vs.Records+vs.Dropped != vs.Appended {
			errs = append(errs, fmt.Sprintf("node %d: store appended %d, holds %d, dropped %d for %d verdicts served",
				i, vs.Appended, vs.Records, vs.Dropped, n.served()))
		}
		total += vs.Appended
	}
	if total != want {
		errs = append(errs, fmt.Sprintf("stores hold %d records for %d verdicts delivered", total, want))
	}
	return errs
}

func (b *bench) nodeStats(urls []string) ([]nodeStats, error) {
	out := make([]nodeStats, len(urls))
	for i, u := range urls {
		if _, err := getJSON(b.ctl, u+"/stats", &out[i]); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// tally folds an outcome's failures into the result and reports them.
func (b *bench) tally(label string, o *outcome) {
	b.res.Attempted += o.rec.attempted
	b.res.Failed += o.rec.failed + o.check.badOps + len(o.storeErrs)
	if o.rec.failed+o.check.badOps+len(o.storeErrs) > 0 {
		b.res.Correct = false
	}
	for _, e := range append(append(o.rec.errs, o.check.errs...), o.storeErrs...) {
		fmt.Printf("  %s FAILURE: %s\n", label, e)
	}
}

// endToEnd is the --trace 0 run: boot the daemons `setups` times, drive
// the measured load on the last boot, check it, report.
func (b *bench) endToEnd(seconds time.Duration) error {
	var setupS []float64
	var d *deployment
	for i := 0; i < setups; i++ {
		dep, took, err := b.boot(false, b.plan.nodes, nil)
		if err != nil {
			return fmt.Errorf("setup %d: %w", i+1, err)
		}
		setupS = append(setupS, took.Seconds())
		if i < setups-1 {
			dep.stop()
		} else {
			d = dep
		}
	}
	defer d.stop()
	o, err := b.measure(d, seconds, func() *client { return newClient(newTransport(), nil) })
	if err != nil {
		return err
	}
	d.stop()
	b.tally("e2e", o)
	b.reportE2E(median(setupS), setupS, o)
	return nil
}

// reportE2E sets the bounded end-to-end metrics and prints them with
// the unbounded ones: the latency tail, error_frac, the verdict-read
// latency (batch-cluster), the cache's share and the generator's
// lateness.
func (b *bench) reportE2E(setup float64, setups []float64, o *outcome) {
	rec, p := o.rec, b.plan
	lat, qlat := millis(rec.lat), millis(rec.qlat)
	cpus := o.sliceCPU()
	b.set("setup_s", setup, "s")
	b.set("verdicts_per_s", float64(rec.verdicts)/o.seconds, "1/s")
	b.set("latency_p50_ms", quantile(lat, 0.5), "ms")
	b.set("server_cpu_us_per_verdict", median(cpus), "us")
	b.set("server_rss_mb", float64(o.rssBytes)/(1<<20), "MB")
	b.set("unknown_reject_frac", frac(o.check.unknownReject, o.check.unknown), "frac")
	b.set("known_reject_frac", frac(o.check.knownReject, o.check.known), "frac")

	hits, misses := int64(0), int64(0)
	for i := range o.after {
		for j, sh := range o.after[i].Shards {
			hits += sh.CacheHits
			misses += sh.CacheMisses
			if j < len(o.before[i].Shards) {
				hits -= o.before[i].Shards[j].CacheHits
				misses -= o.before[i].Shards[j].CacheMisses
			}
		}
	}
	m := b.res.Metrics
	fmt.Printf("%-28s %12.4f s     (median of %d boots: %s)\n", "setup_s", m["setup_s"].Value, len(setups), fmtList(setups))
	fmt.Printf("%-28s %12.2f 1/s   (%d verdicts in %.0f s)\n", "verdicts_per_s", m["verdicts_per_s"].Value, rec.verdicts, o.seconds)
	fmt.Printf("%-28s %12.4f ms    (%d ops)\n", "latency_p50_ms", m["latency_p50_ms"].Value, len(lat))
	printTail("latency", lat)
	fmt.Printf("%-28s %12.2f us    (median of %d %v slices: %s; %.3f s CPU over %d daemon(s))\n", "server_cpu_us_per_verdict",
		m["server_cpu_us_per_verdict"].Value, len(cpus), o.phase.edge(1).Sub(o.phase.start), fmtList(cpus), o.serverCPU().Seconds(), p.nodes)
	fmt.Printf("%-28s %12.2f MB    (VmHWM summed)\n", "server_rss_mb", m["server_rss_mb"].Value)
	fmt.Printf("%-28s %12.4f       (%d of %d attempted ops failed or mismatched)\n", "error_frac", frac(b.res.Failed, b.res.Attempted), b.res.Failed, b.res.Attempted)
	fmt.Printf("%-28s %12.4f       (%d zero-day verdicts)\n", "unknown_reject_frac", m["unknown_reject_frac"].Value, o.check.unknown)
	fmt.Printf("%-28s %12.4f       (%d known-app verdicts)\n", "known_reject_frac", m["known_reject_frac"].Value, o.check.known)
	if len(qlat) > 0 {
		fmt.Printf("%-28s %12.4f ms    (%d reads)\n", "query_p50_ms", quantile(qlat, 0.5), len(qlat))
		printTail("query", qlat)
	}
	fmt.Printf("%-28s %12.4f       (%d hits, measured phase)\n", "cache_hit_share", frac64(hits, hits+misses), hits)
	fmt.Printf("%-28s %12.4f ms    (generator lateness, %d sends)\n", "gen_late_p99_ms", quantile(millis(rec.late), 0.99), len(rec.late))
}

// printTail prints a latency tail by the percentile rule: the p99 where
// at least minTail samples lie beyond it, else the highest percentile
// that has them; the printed name carries the percentile used.
func printTail(prefix string, sorted []float64) {
	q, v, ok := tail(sorted)
	if !ok {
		fmt.Printf("%-28s %12s       (%d samples: too few for a tail)\n", prefix+"_tail_ms", "-", len(sorted))
		return
	}
	fmt.Printf("%-28s %12.4f ms    (%d samples, %d beyond)\n", fmt.Sprintf("%s_p%.0f_ms", prefix, 100*q), v, len(sorted), beyond(len(sorted), q))
}

func frac(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

func frac64(a, b int64) float64 { return frac(int(a), int(b)) }

func fmtList(xs []float64) string {
	s := make([]string, len(xs))
	for i, x := range xs {
		s[i] = fmt.Sprintf("%.3f", x)
	}
	return strings.Join(s, " ")
}

// sortedKeys lists a metric map's names in order, for stable reports.
func sortedKeys(m map[string]metric) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}
