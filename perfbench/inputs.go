package main

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strconv"
	"time"

	"trusthmd/internal/dvfs"
	"trusthmd/internal/feature"
	"trusthmd/internal/gen"
	"trusthmd/internal/workload"
	"trusthmd/pkg/detector"
)

// Workload shape. Every tuning knob of the daemons stays at its default;
// these constants only shape the load the benchmark offers.
const (
	nDevices      = 64                    // device keys
	deviceZipfS   = 1.1                   // assess-single device-key skew
	assessRate    = 300.0                 // assess-single Poisson rate, ops/s (~40% of the MaxWait ceiling)
	queryEvery    = 20                    // batch-cluster: one op in queryEvery is a GET /v1/verdicts read
	queryLimit    = 100                   // records per verdict read
	batchRows     = 64                    // windows per /v1/assess/batch
	poolSize      = 8192                  // batch-cluster vector pool: twice the default per-shard cache
	poolZipfS     = 0.3                   // pool pick skew: the cache answers a partial share
	batchCycle    = queryEvery * nDevices // batch-cluster ops, cycled: reads visit each device once
	streamTraces  = 16384                 // pre-encoded stream chunks, cycled
	sessionTraces = 32                    // chunks per stream session before it reconnects
	warmup        = 3 * time.Second       // unmeasured load first: caches fill, idle vCPUs wake
	trainSeed     = 1                     // the served model is fixed; -seed drives the traffic
)

// streamCfg is the cmd/trusthmd demo configuration: 8 DVFS levels,
// one decision per non-overlapping 256-tick window.
var streamCfg = detector.StreamConfig{Levels: 8, Window: 256}

// window is one generated telemetry window: the raw trace, its feature
// vector and whether its app is a zero-day (unknown) one.
type window struct {
	trace   []int
	vec     []float64
	unknown bool
}

// opKind names what one operation sends.
type opKind int

const (
	opAssess  opKind = iota // POST /v1/assess, one window
	opBatch                 // POST /v1/assess/batch, batchRows windows
	opSession               // one NDJSON stream session, one chunk per window
	opQuery                 // GET /v1/verdicts?device=…&limit=100
)

// op is one pre-generated operation with its encoded request.
type op struct {
	kind   opKind
	due    time.Duration // open loop: send time after the loop starts
	device string
	body   []byte // assess/batch body; session header line; query URL path
	items  []int  // indices into plan.windows, in verdict order
}

// plan is everything one workload sends, generated from the seed before
// any timing starts.
type plan struct {
	workload string
	nodes    int // daemons; node 0 holds the model
	open     bool
	windows  []window
	ops      []op     // open loop: the schedule; closed loop: cycled
	lines    [][]byte // stream chunk line per window (stream-telemetry)
}

// workloads lists the benchmark's workloads in a fixed order.
var workloads = []string{"assess-single", "stream-telemetry", "batch-cluster"}

// trainModel trains the served detector the way `trusthmd -save` does
// (random forest, 25 members, Table I DVFS training split) and returns
// its gob bytes with the oracle: the same bytes loaded back.
func trainModel() ([]byte, *detector.Detector, error) {
	splits, err := gen.DVFS(trainSeed)
	if err != nil {
		return nil, nil, err
	}
	det, err := detector.New(splits.Train,
		detector.WithModel("rf"),
		detector.WithEnsembleSize(25),
		detector.WithSeed(trainSeed))
	if err != nil {
		return nil, nil, err
	}
	var buf bytes.Buffer
	if err := det.Save(&buf); err != nil {
		return nil, nil, err
	}
	oracle, err := detector.Load(bytes.NewReader(buf.Bytes()))
	if err != nil {
		return nil, nil, err
	}
	return buf.Bytes(), oracle, nil
}

// genWindows simulates n windows. Apps are drawn stratified — each run of
// len(DVFSApps()) windows holds every app once, in a seeded order — so
// the known/zero-day mix (4 of 18 apps are zero-day) is the same for
// every seed and only the traces vary. With unique set, a trace whose
// feature vector repeats an earlier one is redrawn, so no vector can be
// answered from a result cache.
func genWindows(rng *rand.Rand, n int, unique bool) ([]window, error) {
	sim, err := dvfs.NewSimulator(dvfs.DefaultConfig())
	if err != nil {
		return nil, err
	}
	apps := workload.DVFSApps()
	levels := sim.Config().Levels
	out := make([]window, n)
	seen := map[string]bool{}
	var order []int
	for i := range out {
		if len(order) == 0 {
			order = rng.Perm(len(apps))
		}
		app := apps[order[0]]
		order = order[1:]
		for attempt := 0; ; attempt++ {
			tr, err := sim.Trace(app, rng)
			if err != nil {
				return nil, err
			}
			vec, err := feature.DVFSVector(tr, levels)
			if err != nil {
				return nil, err
			}
			key := string(appendFloats(nil, vec))
			if unique && seen[key] {
				if attempt == 1000 {
					return nil, fmt.Errorf("app %s: no unique window in %d draws", app.Name, attempt)
				}
				continue
			}
			seen[key] = true
			out[i] = window{trace: tr, vec: vec, unknown: !app.Known}
			break
		}
	}
	return out, nil
}

// zipf draws ranks 0..n-1 with P(k) ∝ 1/(k+1)^s for any s > 0
// (math/rand's Zipf needs s > 1).
type zipf struct{ cdf []float64 }

func newZipf(n int, s float64) *zipf {
	cdf := make([]float64, n)
	sum := 0.0
	for k := range cdf {
		sum += math.Pow(float64(k+1), -s)
		cdf[k] = sum
	}
	return &zipf{cdf: cdf}
}

func (z *zipf) draw(rng *rand.Rand) int {
	u := rng.Float64() * z.cdf[len(z.cdf)-1]
	k := sort.SearchFloat64s(z.cdf, u)
	if k >= len(z.cdf) {
		k = len(z.cdf) - 1
	}
	return k
}

func deviceName(k int) string { return fmt.Sprintf("dev-%02d", k) }

// newPlan generates the workload's inputs from seed alone. seconds is the
// measured duration: the open loop's schedule covers warmup+seconds.
func newPlan(name string, seed int64, seconds float64) (*plan, error) {
	rng := rand.New(rand.NewSource(seed))
	devs := newZipf(nDevices, deviceZipfS)
	// roundRobin visits every device once per round, in a seeded order.
	// Verdict reads use it, and so do the closed loops' writers: a read's
	// cost depends on how many records its device has, so a fixed mix of
	// devices keeps read latency from swinging with the seed.
	roundRobin := func() func() string {
		var order []int
		return func() string {
			if len(order) == 0 {
				order = rng.Perm(nDevices)
			}
			d := deviceName(order[0])
			order = order[1:]
			return d
		}
	}
	p := &plan{workload: name, nodes: 1}
	switch name {
	case "assess-single":
		p.open = true
		end := (warmup + time.Duration(seconds*float64(time.Second))).Seconds()
		var due []float64
		for t := rng.ExpFloat64() / assessRate; t < end; t += rng.ExpFloat64() / assessRate {
			due = append(due, t)
		}
		ws, err := genWindows(rng, len(due), true)
		if err != nil {
			return nil, err
		}
		p.windows = ws
		for i, t := range due {
			d := deviceName(devs.draw(rng))
			p.ops = append(p.ops, op{kind: opAssess, due: time.Duration(t * float64(time.Second)),
				device: d, body: assessBody(d, ws[i].vec), items: []int{i}})
		}
	case "stream-telemetry":
		ws, err := genWindows(rng, streamTraces, false)
		if err != nil {
			return nil, err
		}
		p.windows = ws
		p.lines = make([][]byte, len(ws))
		for i, w := range ws {
			p.lines[i] = chunkLine(w.trace)
		}
		sessionDevice := roundRobin()
		for first := 0; first < len(ws); first += sessionTraces {
			d := sessionDevice()
			items := make([]int, 0, sessionTraces)
			for i := first; i < first+sessionTraces && i < len(ws); i++ {
				items = append(items, i)
			}
			hdr := fmt.Sprintf(`{"device":%q,"levels":%d,"window":%d}`+"\n", d, streamCfg.Levels, streamCfg.Window)
			p.ops = append(p.ops, op{kind: opSession, device: d, body: []byte(hdr), items: items})
		}
	case "batch-cluster":
		p.nodes = 3
		ws, err := genWindows(rng, poolSize, false)
		if err != nil {
			return nil, err
		}
		p.windows = ws
		picks := newZipf(poolSize, poolZipfS)
		// Every device has about 1/64 of the records, so a read's scan
		// for 100 of them does not grow with the store.
		batchDevice, readDevice := roundRobin(), roundRobin()
		for len(p.ops) < batchCycle {
			if len(p.ops)%queryEvery == queryEvery-1 {
				d := readDevice()
				p.ops = append(p.ops, op{kind: opQuery, device: d,
					body: []byte("/v1/verdicts?device=" + d + "&limit=" + strconv.Itoa(queryLimit))})
				continue
			}
			d := batchDevice()
			items := make([]int, batchRows)
			rows := make([][]float64, batchRows)
			for i := range items {
				items[i] = picks.draw(rng)
				rows[i] = ws[items[i]].vec
			}
			p.ops = append(p.ops, op{kind: opBatch, device: d, body: batchBody(d, rows), items: items})
		}
	default:
		return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloads)
	}
	return p, nil
}

func appendFloats(b []byte, xs []float64) []byte {
	b = append(b, '[')
	for i, x := range xs {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendFloat(b, x, 'g', -1, 64)
	}
	return append(b, ']')
}

func assessBody(device string, x []float64) []byte {
	b := []byte(`{"device":"` + device + `","features":`)
	b = appendFloats(b, x)
	return append(b, '}')
}

func batchBody(device string, rows [][]float64) []byte {
	b := []byte(`{"device":"` + device + `","batch":[`)
	for i, r := range rows {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendFloats(b, r)
	}
	return append(b, "]}"...)
}

func chunkLine(states []int) []byte {
	b := []byte(`{"states":[`)
	for i, s := range states {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, int64(s), 10)
	}
	return append(b, "]}\n"...)
}
