// Command trusthmdd is the trusted-HMD serving daemon: it loads one or
// more gob-saved detectors (train them with `trusthmd -save` or the
// pkg/detector Save API) into a hot-swappable serve.Fleet and serves
// assessment traffic over HTTP — single-sample requests, client batches,
// and NDJSON streams of raw DVFS states — while shards can be loaded,
// replaced and unloaded without restarting.
//
// Endpoints: POST /v1/assess, POST /v1/assess/batch, POST /v1/assess/stream,
// GET|POST /v1/models, GET|DELETE /v1/models/{name}, GET /v1/verdicts,
// POST /v1/ingest, GET /healthz, GET /stats.
//
// Usage:
//
//	trusthmd -save det.gob                          # train once
//	trusthmdd -load det.gob                         # serve it as "default"
//	trusthmdd -model dvfs=det.gob -model alt=b.gob  # named shard fleet
//	         [-addr :8080] [-default dvfs] [-max-inflight 1024]
//	         [-cache-size 4096] [-workers 0] [-threshold -1]
//	         [-admin-token secret] [-watch 5s]
//	         [-verdict-dir verdicts] [-ingest-dir drops]
//	         [-auto-retrain -retrain-data data/dvfs/train.csv]
//	         [-coordinator | -join http://peer:8080]
//	         [-advertise http://me:8080] [-node-id n1] [-heartbeat 1s]
//
//	curl -s localhost:8080/v1/assess -d '{"features":[...]}'
//
// Every request assesses on its own handler goroutine; -max-inflight is
// the one admission bound, capping the samples each shard assesses at
// once across /v1/assess and /v1/assess/batch — beyond it requests shed
// with 503 + Retry-After.
//
// With -admin-token set, POST /v1/models and DELETE /v1/models/{name}
// hot-manage the fleet (the token guards them; without the flag they are
// open). With -watch set, every shard given on the command line is
// reloaded automatically when its gob file's mtime changes — and both
// paths reapply the daemon's -workers/-threshold overrides to the
// incoming model, so a hot swap never silently drops the fleet-wide
// serving configuration.
//
// Clustering: -coordinator starts a new cluster, -join http://peer:8080
// joins a running one (either needs -advertise, the URL peers reach this
// node at; -node-id defaults to the hostname). Clustered nodes form one
// fleet: any node serves any request (non-local shards are forwarded to
// their owner), POST /v1/models on any node rolls the model out two-phase
// to every member, NDJSON streams survive the death of the node computing
// them, and a joiner may boot with no models at all — the cluster catalog
// supplies its shards on demand. GET /v1/cluster shows the node's view.
// The /cluster/v1/* node-to-node API shares -admin-token.
//
// The closed loop: -verdict-dir persists every served verdict to an
// embedded append-only segment store (queryable over GET /v1/verdicts,
// surviving restarts via crash-safe recovery); -ingest-dir polls a drop
// directory for CSV telemetry and assesses it through the fleet (and
// enables POST /v1/ingest for HTTP push); -auto-retrain tails the
// verdict store for per-device entropy drift and, on sustained drift,
// retrains in the background on the base set (-retrain-data) plus the
// drifting device's rejected-verdict forensics and hot-swaps the result
// in — zero downtime, no operator.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"sync"
	"syscall"
	"time"

	"trusthmd/pkg/cluster"
	"trusthmd/pkg/dataset"
	"trusthmd/pkg/detector"
	"trusthmd/pkg/ingest"
	"trusthmd/pkg/serve"
	"trusthmd/pkg/verdictstore"

	// Classifier families beyond the pkg/detector built-ins are enabled by
	// blank import: their init registers the family and its gob prototypes,
	// which Load needs before it can decode saved ensembles of that family.
	// Out-of-tree modules plug their own families into a custom daemon the
	// same way.
	_ "trusthmd/pkg/model/gbm"
)

func main() {
	var (
		addr       = flag.String("addr", ":8080", "listen address")
		loadPath   = flag.String("load", "", "serve a single saved detector under the name \"default\"")
		defName    = flag.String("default", "", "shard serving requests that omit \"model\" and \"device\"")
		maxInfl    = flag.Int("max-inflight", 0, "per-shard cap on samples assessing at once, both assessment endpoints; beyond it requests are shed with 503 + Retry-After (0 = default 1024, negative = unbounded)")
		maxBody    = flag.Int64("max-body", 8<<20, "request body size cap in bytes (JSON assessment endpoints)")
		maxAdmin   = flag.Int64("max-admin-body", 64<<20, "POST /v1/models body cap in bytes (inline model uploads)")
		maxBatchN  = flag.Int("max-batch-samples", 4096, "largest accepted client-side batch")
		maxLine    = flag.Int("max-stream-line", 256<<10, "largest accepted NDJSON line on /v1/assess/stream, in bytes")
		maxWindow  = flag.Int("max-stream-window", 1<<16, "largest per-session window a stream header may request")
		streamIdle = flag.Duration("stream-idle", 5*time.Minute, "cut an NDJSON stream whose client sends nothing for this long (negative disables)")
		cacheSize  = flag.Int("cache-size", 0, "per-shard cross-request result cache entries (0 = default 4096, negative disables)")
		workers    = flag.Int("workers", 0, "override assessment parallelism on every shard (0 keeps each model's saved setting)")
		threshold  = flag.Float64("threshold", -1, "override the rejection threshold on every shard (<0 keeps each model's saved threshold)")
		adminToken = flag.String("admin-token", "", "bearer token guarding POST /v1/models and DELETE /v1/models/{name} (empty leaves them open)")
		watch      = flag.Duration("watch", 0, "poll interval for hot-reloading command-line shards when their gob mtime changes (0 disables)")
		timeout    = flag.Duration("shutdown-timeout", 10*time.Second, "graceful drain budget on SIGINT/SIGTERM")

		verdictDir  = flag.String("verdict-dir", "", "persist every served verdict to this directory (append-only segment store; enables GET /v1/verdicts)")
		verdictSeg  = flag.Int64("verdict-segment-bytes", 4<<20, "verdict-store segment size before rotation, in bytes")
		verdictKeep = flag.Int("verdict-retain", 16, "sealed verdict segments retained; beyond it the oldest segment is dropped")
		verdictSync = flag.Int("verdict-sync-every", 0, "verdict-store durability: 0 group-commits appends off the serving path (a crash loses at most one uncommitted group), N>0 writes each record synchronously and fsyncs every N records")

		ingestDir     = flag.String("ingest-dir", "", "poll this directory for CSV telemetry drops and assess them through the fleet (enables POST /v1/ingest)")
		ingestPoll    = flag.Duration("ingest-poll", 2*time.Second, "ingest drop-directory poll interval")
		ingestQueue   = flag.Int("ingest-queue", 1024, "ingest pump queue depth; a full queue sheds HTTP pushes with 503")
		ingestWorkers = flag.Int("ingest-workers", 2, "goroutines draining the ingest queue into the fleet")

		nodeID      = flag.String("node-id", "", "cluster identity of this node (default: hostname; IDs order coordinator promotion)")
		advertise   = flag.String("advertise", "", "base URL other cluster nodes reach this node at, e.g. http://10.0.0.5:8080 (required with -coordinator or -join)")
		coordinator = flag.Bool("coordinator", false, "start this node as the cluster coordinator")
		joinAddr    = flag.String("join", "", "advertise URL of a running cluster member to join (exactly one of -coordinator/-join)")
		heartbeat   = flag.Duration("heartbeat", time.Second, "cluster heartbeat and membership-sweep interval")

		autoRetrain     = flag.Bool("auto-retrain", false, "tail the verdict store for per-device drift and hot-swap a background-retrained model (needs -verdict-dir and -retrain-data)")
		retrainData     = flag.String("retrain-data", "", "base training-set CSV (datagen/WriteCSV format) folded into every -auto-retrain round")
		retrainModel    = flag.String("retrain-model", "", "shard supervised by -auto-retrain (default: the -default shard, or the only one)")
		retrainEvery    = flag.Duration("retrain-interval", time.Second, "verdict-store tail cadence for -auto-retrain")
		retrainWindow   = flag.Int("retrain-window", 50, "per-device drift window (recent verdict entropies)")
		retrainSustain  = flag.Int("retrain-sustain", 3, "consecutive alarmed observations before the controller acts")
		retrainQuorum   = flag.Int("retrain-quorum", 25, "rejected-verdict forensics required before a retrain round fires")
		retrainCooldown = flag.Duration("retrain-cooldown", time.Minute, "minimum gap between drift-driven hot swaps")
	)
	var specs modelFlags
	flag.Var(&specs, "model", "name=path of a saved detector shard (repeatable)")
	flag.Parse()

	loop := loopConfig{
		verdictDir:      *verdictDir,
		verdictSegBytes: *verdictSeg,
		verdictRetain:   *verdictKeep,
		verdictSync:     *verdictSync,
		ingestDir:       *ingestDir,
		ingestPoll:      *ingestPoll,
		ingestQueue:     *ingestQueue,
		ingestWorkers:   *ingestWorkers,
		autoRetrain:     *autoRetrain,
		retrainData:     *retrainData,
		retrainModel:    *retrainModel,
		retrainInterval: *retrainEvery,
		retrainWindow:   *retrainWindow,
		retrainSustain:  *retrainSustain,
		retrainQuorum:   *retrainQuorum,
		retrainCooldown: *retrainCooldown,
	}

	cl := clusterFlags{
		nodeID:      *nodeID,
		advertise:   *advertise,
		coordinator: *coordinator,
		join:        *joinAddr,
		heartbeat:   *heartbeat,
	}

	if err := run(*addr, *loadPath, specs, cl, serve.Config{
		MaxInflight:        *maxInfl,
		MaxBodyBytes:       *maxBody,
		MaxAdminBodyBytes:  *maxAdmin,
		MaxBatchSamples:    *maxBatchN,
		MaxStreamLineBytes: *maxLine,
		MaxStreamWindow:    *maxWindow,
		StreamIdleTimeout:  *streamIdle,
		CacheSize:          *cacheSize,
		DefaultModel:       *defName,
		AdminToken:         *adminToken,
	}, *workers, *threshold, *watch, *timeout, loop); err != nil {
		fmt.Fprintln(os.Stderr, "trusthmdd:", err)
		os.Exit(1)
	}
}

// modelFlags collects repeated -model name=path specs. Duplicate shard
// names are rejected at flag-parse time: the last-one-wins behaviour of a
// plain map would silently serve the wrong model.
type modelFlags []modelSpec

type modelSpec struct{ name, path string }

func (m *modelFlags) String() string {
	parts := make([]string, len(*m))
	for i, s := range *m {
		parts[i] = s.name + "=" + s.path
	}
	return strings.Join(parts, ",")
}

func (m *modelFlags) Set(v string) error {
	name, path, ok := strings.Cut(v, "=")
	name, path = strings.TrimSpace(name), strings.TrimSpace(path)
	if !ok || name == "" || path == "" {
		return fmt.Errorf("want name=path, got %q", v)
	}
	for _, s := range *m {
		if s.name == name {
			return fmt.Errorf("duplicate model name %q", name)
		}
	}
	*m = append(*m, modelSpec{name: name, path: path})
	return nil
}

// overrides builds the detector-preparation hook applying the fleet-wide
// serving-time flags. It runs on boot-time loads, admin-endpoint loads and
// watch reloads alike, so a hot swap keeps the daemon's configuration.
func overrides(workers int, threshold float64) func(*detector.Detector) (*detector.Detector, error) {
	return func(det *detector.Detector) (*detector.Detector, error) {
		var opts []detector.Option
		if workers > 0 {
			opts = append(opts, detector.WithWorkers(workers))
		}
		if threshold >= 0 {
			opts = append(opts, detector.WithThreshold(threshold))
		}
		if len(opts) == 0 {
			return det, nil
		}
		return det.WithOptions(opts...)
	}
}

// allSpecs folds the -load shorthand into the spec list. A node joining a
// cluster may boot with no models at all: it installs shards on demand
// from the cluster catalog.
func allSpecs(loadPath string, specs modelFlags, allowEmpty bool) (modelFlags, error) {
	if loadPath != "" {
		for _, s := range specs {
			if s.name == "default" {
				return nil, fmt.Errorf("duplicate model name %q (-load serves under that name)", s.name)
			}
		}
		specs = append(modelFlags{{name: "default", path: loadPath}}, specs...)
	}
	if len(specs) == 0 && !allowEmpty {
		return nil, errors.New("no models: train one with `trusthmd -save det.gob`, then pass -load det.gob or -model name=det.gob")
	}
	return specs, nil
}

// clusterFlags bundles the multi-node flags.
type clusterFlags struct {
	nodeID      string
	advertise   string
	coordinator bool
	join        string
	heartbeat   time.Duration
}

func (c clusterFlags) enabled() bool { return c.coordinator || c.join != "" }

// agentConfig validates the cluster flags into a cluster.Config. The
// node-to-node surface inherits the admin token, so a cluster is never
// more open than its admin endpoints.
func (c clusterFlags) agentConfig(adminToken string) (cluster.Config, error) {
	if c.advertise == "" {
		return cluster.Config{}, errors.New("clustering needs -advertise (the URL other nodes reach this one at)")
	}
	id := c.nodeID
	if id == "" {
		host, err := os.Hostname()
		if err != nil || host == "" {
			return cluster.Config{}, errors.New("cannot derive -node-id from hostname; pass it explicitly")
		}
		id = host
	}
	return cluster.Config{
		NodeID:      id,
		Advertise:   strings.TrimRight(c.advertise, "/"),
		Coordinator: c.coordinator,
		Join:        c.join,
		Heartbeat:   c.heartbeat,
		Token:       adminToken,
		Logf: func(format string, args ...any) {
			fmt.Printf(format+"\n", args...)
		},
	}, nil
}

// loadModels opens every resolved shard spec through the prepare hook —
// the same hook admin loads and watch reloads run, so boot-time loading
// cannot diverge from the hot paths.
func loadModels(specs modelFlags, prepare func(*detector.Detector) (*detector.Detector, error)) (map[string]*detector.Detector, error) {
	out := make(map[string]*detector.Detector, len(specs))
	for _, s := range specs {
		det, err := loadShard(s, prepare)
		if err != nil {
			return nil, err
		}
		// Duplicate names cannot reach here: modelFlags.Set rejects them
		// at flag-parse time and allSpecs rejects -load vs -model
		// collisions on "default".
		out[s.name] = det
		info := det.Info()
		fmt.Printf("loaded shard %-12s %s (%d members, %d features, threshold %.2f)\n",
			s.name, info.Model, info.Members, info.InputDim, info.Threshold)
	}
	return out, nil
}

// loadShard opens, decodes and prepares one gob-saved detector.
func loadShard(s modelSpec, prepare func(*detector.Detector) (*detector.Detector, error)) (*detector.Detector, error) {
	f, err := os.Open(s.path)
	if err != nil {
		return nil, err
	}
	det, err := detector.Load(f)
	f.Close()
	if err != nil {
		return nil, fmt.Errorf("model %s: %w", s.name, err)
	}
	if det, err = prepare(det); err != nil {
		return nil, fmt.Errorf("model %s: %w", s.name, err)
	}
	return det, nil
}

// fileStamp identifies one observed gob file state. Size participates so
// a rewrite landing within the filesystem's mtime granularity (FAT 2s,
// coarse NFS/overlay timestamps) is still detected when it changes the
// file length.
type fileStamp struct {
	mtime time.Time
	size  int64
}

// changedFrom reports whether the file differs from the recorded state:
// any mtime difference counts (a restored backup may be older), as does a
// size change within the same timestamp tick.
func (a fileStamp) changedFrom(b fileStamp) bool {
	return !a.mtime.Equal(b.mtime) || a.size != b.size
}

// statStamps snapshots the shards' gob file stamps. The daemon takes it
// BEFORE loading the models, so a file rewritten between the boot-time
// load and the watcher's first tick still registers as changed.
func statStamps(specs modelFlags) map[string]fileStamp {
	stamps := make(map[string]fileStamp, len(specs))
	for _, s := range specs {
		if fi, err := os.Stat(s.path); err == nil {
			stamps[s.name] = fileStamp{mtime: fi.ModTime(), size: fi.Size()}
		}
	}
	return stamps
}

// watchShards polls every command-line shard's gob file and hot-swaps the
// fleet when the file changes — `trusthmd -save` over the file is all it
// takes to roll a new model out. Saves are atomic (detector.SaveFile and
// `trusthmd -save` write temp-file + rename), so a file that fails to
// decode is genuinely bad content, not a torn read: the watcher logs it
// and advances the stamp — the serving shard keeps answering, and the
// next rewrite (a newer stamp) is picked up normally. Installs go through
// LoadOrSwap, so a shard unloaded over the admin API is reinstated
// by the next save — the file on disk is the source of truth for
// command-line shards.
func watchShards(ctx context.Context, fleet *serve.Fleet, specs modelFlags, interval time.Duration,
	prepare func(*detector.Detector) (*detector.Detector, error), stamps map[string]fileStamp) {
	if stamps == nil {
		stamps = statStamps(specs)
	}
	tick := time.NewTicker(interval)
	defer tick.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-tick.C:
		}
		for _, s := range specs {
			fi, err := os.Stat(s.path)
			if err != nil {
				continue // mid-rename or removed: keep the serving shard
			}
			// The stat happens before the load: if the file changes in
			// between, the next tick sees a newer stamp and reconverges.
			stamp := fileStamp{mtime: fi.ModTime(), size: fi.Size()}
			if !stamp.changedFrom(stamps[s.name]) {
				continue
			}
			stamps[s.name] = stamp
			det, err := loadShard(s, prepare)
			if err != nil {
				fmt.Fprintf(os.Stderr, "trusthmdd: watch: reload %s: %v (keeping serving shard)\n", s.name, err)
				continue
			}
			v, _, err := fleet.LoadOrSwap(s.name, det, "watch")
			if err != nil {
				fmt.Fprintf(os.Stderr, "trusthmdd: watch: swap %s: %v\n", s.name, err)
				continue
			}
			fmt.Printf("watch: hot-swapped shard %s -> v%d (%s)\n", s.name, v, s.path)
		}
	}
}

// loopConfig bundles the closed-loop flags: verdict persistence,
// telemetry ingestion, and drift-driven auto-retrain.
type loopConfig struct {
	verdictDir      string
	verdictSegBytes int64
	verdictRetain   int
	verdictSync     int

	ingestDir     string
	ingestPoll    time.Duration
	ingestQueue   int
	ingestWorkers int

	autoRetrain     bool
	retrainData     string
	retrainModel    string
	retrainInterval time.Duration
	retrainWindow   int
	retrainSustain  int
	retrainQuorum   int
	retrainCooldown time.Duration
}

// supervisedShard resolves which shard -auto-retrain watches: the
// explicit -retrain-model, else the -default shard, else the only one.
func supervisedShard(explicit, defName string, resolved modelFlags) (string, error) {
	if explicit != "" {
		return explicit, nil
	}
	if defName != "" {
		return defName, nil
	}
	if len(resolved) == 1 {
		return resolved[0].name, nil
	}
	return "", errors.New("-auto-retrain needs -retrain-model (or -default) with more than one shard")
}

// loadBaseDataset reads the -retrain-data CSV (datagen / WriteCSV format).
func loadBaseDataset(path string) (*dataset.Dataset, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	d, err := dataset.ReadCSV(f)
	if err != nil {
		return nil, fmt.Errorf("retrain data %s: %w", path, err)
	}
	return d, nil
}

func run(addr, loadPath string, specs modelFlags, cl clusterFlags, cfg serve.Config, workers int, threshold float64,
	watch, shutdownTimeout time.Duration, loop loopConfig) error {
	if loop.autoRetrain && (loop.verdictDir == "" || loop.retrainData == "") {
		return errors.New("-auto-retrain needs -verdict-dir (the drift signal) and -retrain-data (the retraining base)")
	}
	prepare := overrides(workers, threshold)
	cfg.PrepareDetector = prepare
	// One spec resolution and one prepare hook feed boot-time loading,
	// the watcher and (via cfg) the admin endpoint alike. A cluster joiner
	// may boot empty — the cluster catalog supplies its shards.
	resolved, err := allSpecs(loadPath, specs, cl.join != "")
	if err != nil {
		return err
	}

	// The verdict store outlives the fleet (the fleet taps verdicts into
	// it until the last in-flight request finishes), so it opens first,
	// closes last.
	var store *verdictstore.Store
	if loop.verdictDir != "" {
		store, err = verdictstore.Open(loop.verdictDir, verdictstore.Config{
			SegmentBytes: loop.verdictSegBytes,
			MaxSegments:  loop.verdictRetain,
			SyncEvery:    loop.verdictSync,
		})
		if err != nil {
			return err
		}
		defer store.Close()
		st := store.Stats()
		fmt.Printf("verdict store %s: %d records recovered (%d segments, next seq %d)\n",
			loop.verdictDir, st.Records, st.Segments, st.NextSeq)
		cfg.Verdicts = store
	}

	// Baseline stamps are taken before the boot-time load so a save
	// racing the daemon's startup is still caught by the first tick.
	var baseline map[string]fileStamp
	if watch > 0 {
		baseline = statStamps(resolved)
	}
	models, err := loadModels(resolved, prepare)
	if err != nil {
		return err
	}
	fleet, err := serve.NewFleet(models, cfg)
	if err != nil {
		return err
	}
	srv := serve.NewServer(fleet)

	// Clustered: an Agent shares the listener with the serving mux (the
	// node-to-node API lives under /cluster/v1/) and hooks the server so
	// any node serves any request, swaps go fleet-wide, and streams
	// survive node death.
	var agent *cluster.Agent
	handler := http.Handler(srv)
	if cl.enabled() {
		acfg, err := cl.agentConfig(cfg.AdminToken)
		if err != nil {
			return err
		}
		if agent, err = cluster.New(acfg, fleet); err != nil {
			return err
		}
		srv.AttachCluster(agent)
		mux := http.NewServeMux()
		mux.Handle("/cluster/", agent.Handler())
		mux.Handle("/", srv)
		handler = mux
	}

	httpSrv := &http.Server{
		Addr:              addr,
		Handler:           handler,
		ReadHeaderTimeout: 5 * time.Second,
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if watch > 0 {
		go watchShards(ctx, fleet, resolved, watch, prepare, baseline)
	}

	// The ingest pump fans drop-directory (and HTTP push) telemetry into
	// the fleet's assess path, so every ingested window becomes a stored,
	// drift-monitored verdict.
	var loopWG sync.WaitGroup
	if loop.ingestDir != "" {
		pump := ingest.NewPump(func(ctx context.Context, ev ingest.Event) error {
			_, err := fleet.Assess(ctx, serve.AssessSpec{
				Model:    ev.Model,
				Device:   ev.Device,
				Features: ev.Features,
				Source:   "ingest",
			})
			return err
		}, ingest.Config{
			Queue:   loop.ingestQueue,
			Workers: loop.ingestWorkers,
			Logf: func(format string, args ...any) {
				fmt.Fprintf(os.Stderr, "trusthmdd: "+format+"\n", args...)
			},
		})
		src, err := ingest.NewDirSource(loop.ingestDir, ingest.DirConfig{Poll: loop.ingestPoll})
		if err != nil {
			return err
		}
		pump.Add(src)
		srv.AttachIngest(pump)
		loopWG.Add(1)
		go func() {
			defer loopWG.Done()
			if err := pump.Run(ctx); err != nil {
				fmt.Fprintf(os.Stderr, "trusthmdd: ingest: %v\n", err)
			}
		}()
		fmt.Printf("ingesting telemetry drops from %s (poll %v, queue %d, %d workers)\n",
			loop.ingestDir, loop.ingestPoll, loop.ingestQueue, loop.ingestWorkers)
	}

	if loop.autoRetrain {
		base, err := loadBaseDataset(loop.retrainData)
		if err != nil {
			return err
		}
		model, err := supervisedShard(loop.retrainModel, cfg.DefaultModel, resolved)
		if err != nil {
			return err
		}
		ctrl, err := serve.NewRetrainController(serve.RetrainConfig{
			Store:    store,
			Fleet:    fleet,
			Model:    model,
			Base:     base,
			Interval: loop.retrainInterval,
			Drift:    detector.DriftConfig{Window: loop.retrainWindow},
			Sustain:  loop.retrainSustain,
			Quorum:   loop.retrainQuorum,
			Cooldown: loop.retrainCooldown,
			Prepare:  prepare,
			Logf: func(format string, args ...any) {
				fmt.Printf(format+"\n", args...)
			},
		})
		if err != nil {
			return err
		}
		srv.AttachRetrain(ctrl)
		loopWG.Add(1)
		go func() {
			defer loopWG.Done()
			if err := ctrl.Run(ctx); err != nil && !errors.Is(err, context.Canceled) {
				fmt.Fprintf(os.Stderr, "trusthmdd: retrain: %v\n", err)
			}
		}()
		fmt.Printf("auto-retrain watching shard %s (window %d, sustain %d, quorum %d, cooldown %v)\n",
			model, loop.retrainWindow, loop.retrainSustain, loop.retrainQuorum, loop.retrainCooldown)
	}

	errc := make(chan error, 1)
	go func() {
		fmt.Printf("trusthmdd listening on %s (%d shard(s))\n", addr, fleet.Len())
		errc <- httpSrv.ListenAndServe()
	}()

	// The agent starts once the listener goroutine is up: a coordinator
	// publishes its first table, a joiner dials -join (retrying briefly),
	// and either way the background loops take over.
	if agent != nil {
		if err := agent.Start(); err != nil {
			httpSrv.Close()
			stop()
			loopWG.Wait()
			srv.Close()
			return err
		}
		fmt.Printf("cluster node %s (%s) up as %s\n", agent.NodeID(), cl.advertise, agent.Role())
	}

	// stopLoop winds down the cluster agent (heartbeats stop; peers will
	// declare this node dead and rebalance), then the pump (which finishes
	// every accepted event) and the retrain controller (which waits out an
	// in-flight round, possibly swapping the fleet) — the latter two need
	// the fleet alive, so it all runs BEFORE srv.Close.
	stopLoop := func() {
		if agent != nil {
			agent.Close()
		}
		stop()
		loopWG.Wait()
	}

	select {
	case err := <-errc:
		stopLoop()
		srv.Close()
		return err
	case <-ctx.Done():
	}

	// Graceful shutdown: wind down open NDJSON streams (each ends with its
	// summary line — without this, one connected stream client would pin
	// Shutdown for the whole budget), stop accepting connections and let
	// in-flight requests finish, then drain the closed loop and finally
	// close the fleet. The verdict store closes last (deferred).
	fmt.Println("\nshutting down...")
	srv.BeginDrain()
	shCtx, cancel := context.WithTimeout(context.Background(), shutdownTimeout)
	defer cancel()
	shutdownErr := httpSrv.Shutdown(shCtx)
	stopLoop()
	srv.Close()
	if shutdownErr != nil && !errors.Is(shutdownErr, context.DeadlineExceeded) {
		return shutdownErr
	}
	for _, st := range srv.Stats() {
		fmt.Printf("shard %-12s v%d: %d requests in %d batches (mean %.1f), %d batch requests, %d stream sessions, %d shed, rejection rate %.1f%%\n",
			st.Model, st.Version, st.Requests, st.Batches, st.MeanBatchSize, st.BatchRequests, st.StreamSessions, st.Shed, 100*st.RejectionRate)
	}
	if store != nil {
		st := store.Stats()
		fmt.Printf("verdict store: %d records live (%d appended this run, %d segments, %d bytes)\n",
			st.Records, st.Appended, st.Segments, st.Bytes)
	}
	return nil
}
