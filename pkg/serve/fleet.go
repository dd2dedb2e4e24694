package serve

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"trusthmd/pkg/cluster/ring"
	"trusthmd/pkg/detector"
)

// Fleet is the mutable, versioned shard registry at the heart of the
// serving layer: a set of named detectors that can be loaded, hot-swapped
// and unloaded while traffic flows. Server is a thin HTTP transport over
// it; embedders that want a different transport (gRPC, a queue consumer)
// drive the Fleet directly.
//
// Each name resolves to one shard: an immutable detector, its result
// cache and the name's counters. A Fleet owns no goroutines — every
// request assesses on its caller's goroutine, behind the shard's one
// in-flight cap (Config.MaxInflight).
//
// Mutations are RCU-style: Swap installs a fresh shard (new result cache,
// version+1) under the registry lock, and nothing else. A request that
// resolved the old shard finishes on the detector it resolved and reports
// that version; everything resolved after the swap reaches the
// replacement — no in-flight work is lost or retried. Each shard carries
// a monotonically increasing per-name version and the fleet an epoch that
// bumps on every mutation; both are surfaced in /v1/models, /stats and
// assessment responses so clients can observe exactly which model
// answered.
type Fleet struct {
	cfg Config

	mu     sync.RWMutex
	shards map[string]*shard
	names  []string // sorted shard names
	ring   *ring.Ring
	// versions and statsByName survive Unload so a name reloaded later
	// continues its version sequence and its cumulative counters instead
	// of restarting — and counters folded in late (a stream that outlived
	// its shard's unload) stay visible once the name serves again.
	versions    map[string]uint64
	statsByName map[string]*shardStats
	epoch       uint64
	closed      bool
	// lastSwapCause names what drove the most recent hot swap ("admin",
	// "watch", "drift-retrain", ...; empty until the first swap) — the
	// /stats answer to "why did the model just change?".
	lastSwapCause string

	// verdictAppendErrs counts verdict-store appends that failed (the tap
	// never fails serving, so the only trace is this counter).
	verdictAppendErrs atomic.Int64
}

// shard is one named detector version. The detector and the result cache
// belong to this version (a swap replaces both — a stale cache must never
// serve the old model's verdicts); the stats object, in-flight gauge
// included, is shared across versions of the same name, so counters stay
// cumulative and a swap does not reopen admission.
type shard struct {
	name    string
	version uint64
	det     *detector.Detector
	cache   *resultCache
	stats   *shardStats
	// maxInflight caps the name's concurrent work in samples; 0 means
	// unbounded.
	maxInflight int64
}

// admit reserves n samples of in-flight work, or sheds with ErrQueueFull
// when the shard is already at its cap. An idle shard always admits, so
// the cap bounds concurrency, not the size of one client batch.
func (s *shard) admit(n int) error {
	if v := s.stats.inflight.Add(int64(n)); s.maxInflight > 0 && v-int64(n) >= s.maxInflight {
		s.stats.inflight.Add(-int64(n))
		s.stats.shed.Add(1)
		return ErrQueueFull
	}
	return nil
}

// release retires a reservation made by admit.
func (s *shard) release(n int) { s.stats.inflight.Add(-int64(n)) }

// NewFleet builds a fleet over the given named detectors (which may be
// empty: an empty fleet serves 404s until Load or the admin endpoint
// populates it). Every detector must be trained; Config.DefaultModel, if
// set alongside initial models, must name one of them.
func NewFleet(models map[string]*detector.Detector, cfg Config) (*Fleet, error) {
	cfg = cfg.withDefaults()
	f := &Fleet{
		cfg:         cfg,
		shards:      make(map[string]*shard, len(models)),
		versions:    make(map[string]uint64, len(models)),
		statsByName: make(map[string]*shardStats, len(models)),
	}
	for name, det := range models {
		if _, err := f.Load(name, det); err != nil {
			f.Close()
			return nil, err
		}
	}
	if cfg.DefaultModel != "" && len(models) > 0 {
		if _, ok := f.shards[cfg.DefaultModel]; !ok {
			f.Close()
			return nil, fmt.Errorf("serve: default model %q not among loaded models", cfg.DefaultModel)
		}
	}
	return f, nil
}

// Load adds a new shard under a name not currently in the fleet and
// returns its version. Use Swap to replace an existing shard.
func (f *Fleet) Load(name string, det *detector.Detector) (uint64, error) {
	v, _, err := f.install(name, det, installNew, "")
	return v, err
}

// Swap atomically replaces the detector behind an existing shard name and
// returns the new version. The replacement starts with a new empty result
// cache; requests that resolved the old version finish on it, so a swap
// under load loses nothing. cause ("admin", "watch", "drift-retrain", ...)
// is recorded as the fleet's last swap cause and surfaced by /stats — so
// an operator reading a version bump can tell an operator-driven rollout
// from the auto-retrain loop.
func (f *Fleet) Swap(name string, det *detector.Detector, cause string) (uint64, error) {
	v, _, err := f.install(name, det, installReplace, cause)
	return v, err
}

// LoadOrSwap loads the shard if the name is new and swaps it otherwise,
// reporting which happened — the admin endpoint's upsert. cause is
// recorded only when the install actually replaced a shard (a fresh load
// is not a swap).
func (f *Fleet) LoadOrSwap(name string, det *detector.Detector, cause string) (version uint64, replaced bool, err error) {
	return f.install(name, det, installUpsert, cause)
}

// LastSwapCause names what drove the most recent hot swap (empty until
// the first one).
func (f *Fleet) LastSwapCause() string {
	f.mu.RLock()
	defer f.mu.RUnlock()
	return f.lastSwapCause
}

// Detector returns the live detector behind a shard name (resolved like
// an explicit-model request). The retraining controller uses it to seed
// baselines and training options from the exact model being served.
func (f *Fleet) Detector(name string) (*detector.Detector, error) {
	sh, err := f.resolve(name, "")
	if err != nil {
		return nil, err
	}
	return sh.det, nil
}

// maxRetiredNames bounds how many unloaded shard names keep their version
// and stats entries. Cross-reload continuity is a courtesy, not a ledger:
// without a bound, rolling date-stamped names (or an attacker driving an
// un-tokened admin endpoint with random names) would grow the registry
// maps for the process lifetime.
const maxRetiredNames = 1024

type installMode int

const (
	installNew installMode = iota
	installReplace
	installUpsert
)

// install is the single mutation path behind Load, Swap and LoadOrSwap;
// cause is recorded only when an existing shard is replaced.
func (f *Fleet) install(name string, det *detector.Detector, mode installMode, cause string) (uint64, bool, error) {
	if name == "" {
		return 0, false, errors.New("serve: empty model name")
	}
	if strings.Contains(name, "/") {
		// "/" would make the shard unaddressable on /v1/models/{name}.
		return 0, false, fmt.Errorf("serve: model name %q must not contain '/'", name)
	}
	if det == nil {
		return 0, false, fmt.Errorf("serve: model %q is nil", name)
	}
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return 0, false, ErrClosed
	}
	_, exists := f.shards[name]
	switch mode {
	case installNew:
		if exists {
			f.mu.Unlock()
			return 0, false, fmt.Errorf("serve: model %q already loaded (use Swap to replace it)", name)
		}
	case installReplace:
		if !exists {
			f.mu.Unlock()
			return 0, false, fmt.Errorf("serve: unknown model %q (use Load to add it)", name)
		}
	}
	v := f.versions[name] + 1
	f.versions[name] = v
	// Counters stay cumulative per name across swaps AND unload/reload
	// cycles (like the version sequence); only the caches restart, because
	// the caches themselves do.
	stats := f.statsByName[name]
	if stats == nil {
		stats = &shardStats{}
		f.statsByName[name] = stats
	}
	f.shards[name] = &shard{
		name:        name,
		version:     v,
		det:         det,
		cache:       newResultCache(f.cfg.CacheSize),
		stats:       stats,
		maxInflight: int64(f.cfg.MaxInflight),
	}
	if exists {
		// A swap keeps the membership: names and ring are unchanged, so
		// resolvers are only blocked for the pointer write + epoch bump.
		f.epoch++
		f.lastSwapCause = cause
	} else {
		f.rebuildLocked()
	}
	f.mu.Unlock()
	return v, exists, nil
}

// Unload removes a shard; requests that already resolved it still finish
// on it. The name's version counter and cumulative stats are retained (up
// to maxRetiredNames unloaded names), so reloading it later continues both
// sequences.
func (f *Fleet) Unload(name string) error {
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return ErrClosed
	}
	if _, ok := f.shards[name]; !ok {
		// Format while still holding the lock: f.names is mutated in
		// place by rebuildLocked, so reading it after Unlock races
		// concurrent membership changes.
		err := fmt.Errorf("serve: unknown model %q (loaded: %v)", name, f.names)
		f.mu.Unlock()
		return err
	}
	delete(f.shards, name)
	f.rebuildLocked()
	// Evict retired bookkeeping beyond the bound: entries for loaded
	// shards are always kept, unloaded names beyond maxRetiredNames lose
	// their version/stats continuity (a reload then restarts at v1).
	if len(f.versions) > len(f.shards)+maxRetiredNames {
		for n := range f.versions {
			if _, loaded := f.shards[n]; !loaded {
				delete(f.versions, n)
				delete(f.statsByName, n)
				if len(f.versions) <= len(f.shards)+maxRetiredNames {
					break
				}
			}
		}
	}
	f.mu.Unlock()
	return nil
}

// rebuildLocked refreshes the sorted name list, the routing ring and the
// fleet epoch after a membership change (swaps skip it — same names, same
// ring). Callers hold f.mu.
func (f *Fleet) rebuildLocked() {
	f.names = f.names[:0]
	for name := range f.shards {
		f.names = append(f.names, name)
	}
	sort.Strings(f.names)
	f.ring = ring.New(f.names, ring.DefaultVNodes)
	f.epoch++
}

// resolve picks the shard for a request. Precedence: an explicit model
// name wins; otherwise a non-empty device key routes through the
// consistent-hash ring; otherwise the default model serves.
func (f *Fleet) resolve(model, device string) (*shard, error) {
	f.mu.RLock()
	defer f.mu.RUnlock()
	if f.closed {
		return nil, ErrClosed
	}
	if len(f.names) == 0 {
		return nil, errors.New("no models loaded")
	}
	name := model
	if name == "" && device != "" {
		name = f.ring.Lookup(device)
	}
	if name == "" {
		name = f.defaultLocked()
		if name == "" {
			return nil, fmt.Errorf("request must name a model or device (loaded: %v)", f.names)
		}
	}
	sh, ok := f.shards[name]
	if !ok {
		return nil, fmt.Errorf("unknown model %q (loaded: %v)", name, f.names)
	}
	return sh, nil
}

// defaultLocked names the shard serving model-less, device-less requests:
// the configured DefaultModel when it is currently loaded, else the only
// shard. Callers hold f.mu (read or write).
func (f *Fleet) defaultLocked() string {
	if f.cfg.DefaultModel != "" {
		if _, ok := f.shards[f.cfg.DefaultModel]; ok {
			return f.cfg.DefaultModel
		}
		return ""
	}
	if len(f.names) == 1 {
		return f.names[0]
	}
	return ""
}

// Names returns the sorted shard names currently loaded.
func (f *Fleet) Names() []string {
	f.mu.RLock()
	defer f.mu.RUnlock()
	return append([]string(nil), f.names...)
}

// Len reports the number of loaded shards.
func (f *Fleet) Len() int {
	f.mu.RLock()
	defer f.mu.RUnlock()
	return len(f.shards)
}

// Epoch returns the fleet generation: it increments on every Load, Swap
// and Unload, so a client comparing epochs across /stats calls can tell
// whether the fleet changed in between.
func (f *Fleet) Epoch() uint64 {
	f.mu.RLock()
	defer f.mu.RUnlock()
	return f.epoch
}

// Models describes every loaded shard, sorted by name — the body of
// GET /v1/models.
func (f *Fleet) Models() []ModelInfo {
	_, models := f.ModelsWithEpoch()
	return models
}

// ModelsWithEpoch returns the shard listing together with the epoch of
// the same consistent view — the pair /v1/models reports. (Calling Epoch
// and Models separately can straddle a mutation and pair an epoch with
// the other generation's listing.)
func (f *Fleet) ModelsWithEpoch() (uint64, []ModelInfo) {
	f.mu.RLock()
	defer f.mu.RUnlock()
	def := f.defaultLocked()
	out := make([]ModelInfo, 0, len(f.names))
	for _, name := range f.names {
		sh := f.shards[name]
		out = append(out, ModelInfo{
			Name:    name,
			Version: sh.version,
			Default: name == def,
			Info:    sh.det.Info(),
		})
	}
	return f.epoch, out
}

// Stats snapshots every shard's serving counters, sorted by shard name.
func (f *Fleet) Stats() []ShardStats {
	_, stats := f.StatsWithEpoch()
	return stats
}

// StatsWithEpoch returns the counter snapshot together with the epoch of
// the same consistent view — the pair /stats reports. The live gauges (in
// flight, cache occupancy) are read under the same registry lock, so the
// whole snapshot describes one fleet generation.
func (f *Fleet) StatsWithEpoch() (uint64, []ShardStats) {
	f.mu.RLock()
	defer f.mu.RUnlock()
	out := make([]ShardStats, 0, len(f.names))
	for _, name := range f.names {
		sh := f.shards[name]
		st := sh.stats.snapshot(name)
		st.Version = sh.version
		st.CacheEntries = sh.cache.len()
		out = append(out, st)
	}
	return f.epoch, out
}

// Close rejects all future mutations and resolves; requests that already
// resolved a shard finish on it. Safe to call more than once. The HTTP
// listener should be shut down first so every accepted request completes
// (and reaches the verdict store) before its owner closes the store.
func (f *Fleet) Close() {
	f.mu.Lock()
	f.closed = true
	f.mu.Unlock()
}
