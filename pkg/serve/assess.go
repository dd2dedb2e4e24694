package serve

import (
	"context"
	"errors"
	"net/http"
	"sync"
	"time"

	"trusthmd/pkg/detector"
	"trusthmd/pkg/verdictstore"
)

// ErrQueueFull is returned when a shard refuses a request because its
// in-flight cap (Config.MaxInflight) is exhausted, so the daemon sheds
// load with 503 + Retry-After instead of piling up concurrent work.
var ErrQueueFull = errors.New("serve: assessment queue full")

// ErrClosed is returned for requests submitted after shutdown began.
var ErrClosed = errors.New("serve: server is shutting down")

// assessScratch recycles the single-sample assessment workspace across
// requests: every request assesses on its own goroutine, so the steady
// state borrows a warm arena instead of growing one per call.
var assessScratch = sync.Pool{New: func() any { return new(detector.BatchScratch) }}

// AssessSpec is one assessment request against the fleet: the routing
// keys and feature vector of the HTTP assess endpoint, usable by any
// embedder (the ingest pump drives it directly, no HTTP involved).
type AssessSpec struct {
	// Model / Device route like AssessRequest's fields: explicit model
	// wins, else consistent-hash on device, else the default shard.
	Model  string
	Device string
	// Features is the raw feature vector.
	Features []float64
	// Source tags the verdict's origin in the verdict store ("assess",
	// "batch", "stream", "ingest"; default "assess").
	Source string
	// VoteBuf, when non-nil, is a caller-owned buffer the verdict's vote
	// distribution is copied into (grown as needed) instead of a fresh
	// allocation. When the detector answered, the returned Result's
	// VoteDist is the possibly-regrown buffer; a cache hit or an error
	// leaves the buffer untouched.
	VoteBuf []float64
}

// AssessOutcome is one served verdict with its provenance.
type AssessOutcome struct {
	// Model / Version identify the shard version that answered.
	Model   string
	Version uint64
	// Result is the trusted verdict.
	Result detector.Result
	// Cached reports whether the cross-request result cache answered.
	Cached bool
}

// routeError marks a resolve failure (unknown model, empty fleet,
// ambiguous default, closed fleet) so transports can map it onto their
// not-found/unavailable vocabulary. It renders as the inner message.
type routeError struct{ err error }

func (e *routeError) Error() string { return e.err.Error() }
func (e *routeError) Unwrap() error { return e.err }

// validationError marks a malformed feature vector — a caller error, not
// a serving failure.
type validationError struct{ err error }

func (e *validationError) Error() string { return e.err.Error() }
func (e *validationError) Unwrap() error { return e.err }

// Assess routes one feature vector to a shard and returns its verdict —
// the transport-independent core of POST /v1/assess. The full serving
// path applies: resolve (model/device/default precedence), input
// validation, the cross-request result cache, then admission against the
// shard's in-flight cap and assessment on the caller's goroutine. A
// request racing a hot swap answers from the version it resolved. When a
// verdict store is attached, every outcome — cache hits included, they
// are served verdicts — is persisted with its latency.
func (f *Fleet) Assess(ctx context.Context, spec AssessSpec) (AssessOutcome, error) {
	start := time.Now()
	sh, err := f.resolve(spec.Model, spec.Device)
	if err != nil {
		return AssessOutcome{}, &routeError{err}
	}
	if err := validateFeatures(spec.Features, sh.det.InputDim()); err != nil {
		return AssessOutcome{}, &validationError{err}
	}
	var key uint64
	if sh.cache != nil { // disabled caches pay no hashing and keep zero counters
		key = hashVec(spec.Features)
		if res, ok := sh.cache.get(key, spec.Features); ok {
			// Cross-request memo hit: same vector, same (deterministic)
			// verdict — answered without admission or assessment.
			sh.stats.requests.Add(1)
			sh.stats.cacheHits.Add(1)
			sh.stats.cacheHitsSingle.Add(1)
			sh.stats.observeOne(res.Decision)
			f.recordVerdict(spec.Device, spec.Source, sh.name, sh.version, res, spec.Features, time.Since(start))
			return AssessOutcome{Model: sh.name, Version: sh.version, Result: res, Cached: true}, nil
		}
		sh.stats.cacheMisses.Add(1)
	}
	if err := ctx.Err(); err != nil {
		return AssessOutcome{}, err
	}
	if err := sh.admit(1); err != nil {
		return AssessOutcome{}, err
	}
	res, err := sh.assessOne(spec.Features, spec.VoteBuf)
	sh.release(1)
	if err != nil {
		return AssessOutcome{}, err
	}
	sh.cache.put(key, spec.Features, res)
	f.recordVerdict(spec.Device, spec.Source, sh.name, sh.version, res, spec.Features, time.Since(start))
	return AssessOutcome{Model: sh.name, Version: sh.version, Result: res}, nil
}

// assessOne assesses one admitted vector in a pooled scratch arena and
// copies the verdict's vote distribution out of the arena into votes
// (grown as needed) before the arena goes back to the pool.
func (s *shard) assessOne(x, votes []float64) (detector.Result, error) {
	sc := assessScratch.Get().(*detector.BatchScratch)
	res, err := s.det.AssessInto(sc, x)
	if err == nil {
		res.VoteDist = append(votes[:0], res.VoteDist...)
	}
	assessScratch.Put(sc)
	s.stats.batches.Add(1)
	if err != nil {
		s.stats.errors.Add(1)
		return detector.Result{}, err
	}
	s.stats.requests.Add(1)
	s.stats.observeOne(res.Decision)
	return res, nil
}

// recordVerdict persists one served verdict when a store is attached.
// Features are kept only for rejections — they are the forensic evidence
// the retraining loop feeds back into training; accepted verdicts stay
// compact. Append failures are counted, never propagated: persistence
// must not fail serving.
func (f *Fleet) recordVerdict(device, source, model string, version uint64, res detector.Result, features []float64, lat time.Duration) {
	st := f.cfg.Verdicts
	if st == nil {
		return
	}
	if source == "" {
		source = "assess"
	}
	rec := verdictstore.Record{
		Device:        device,
		Model:         model,
		Version:       version,
		Source:        source,
		Prediction:    res.Prediction,
		Decision:      res.Decision.String(),
		Entropy:       res.Entropy,
		Votes:         append([]float64(nil), res.VoteDist...),
		LatencyMicros: lat.Microseconds(),
	}
	if res.Decision == detector.Reject && features != nil {
		rec.Features = append([]float64(nil), features...)
	}
	if _, err := st.Append(rec); err != nil {
		f.verdictAppendErrs.Add(1)
	}
}

// writeAssessError maps an Assess failure onto the HTTP wire, preserving
// the status vocabulary of the original handler: route errors follow
// writeResolveError (404, or 503 for a closed fleet), validation is 400,
// overload and shutdown shed with 503 + Retry-After, a vanished client
// gets the 503 formality, anything else is a 500.
func writeAssessError(w http.ResponseWriter, err error) {
	var route *routeError
	var invalid *validationError
	switch {
	case errors.As(err, &route):
		writeResolveError(w, route.err)
	case errors.As(err, &invalid):
		writeError(w, http.StatusBadRequest, err.Error())
	case err == ErrQueueFull:
		// The exact sentinel is the hot shed path: precomputed body, no
		// formatting — overload rejection must itself be cheap.
		w.Header()["Retry-After"] = retryAfterOne
		writeBytes(w, http.StatusServiceUnavailable, bodyQueueFull)
	case err == ErrClosed:
		w.Header()["Retry-After"] = retryAfterOne
		writeBytes(w, http.StatusServiceUnavailable, bodyClosed)
	case errors.Is(err, ErrQueueFull), errors.Is(err, ErrClosed):
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusServiceUnavailable, err.Error())
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		// The client is gone; the status code is a formality.
		writeError(w, http.StatusServiceUnavailable, err.Error())
	default:
		writeError(w, http.StatusInternalServerError, err.Error())
	}
}
