package detector

import (
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"trusthmd/internal/core"
	"trusthmd/internal/hmd"
	"trusthmd/pkg/linalg"
)

// BatchScratch is the reusable workspace of every assessment path:
// projection matrices, vote histograms, member-subset input and the
// returned results all live in one caller-owned arena that is regrown on
// demand and never shrunk. AssessInto uses it for one vector and
// AssessBatchInto for a batch; a steady-state caller assessing same-sized
// inputs performs zero heap allocations per call.
//
// A BatchScratch may be used by one goroutine at a time, and the results
// returned by AssessInto and AssessBatchInto (including their VoteDist
// slices) remain valid only until the scratch's next use. Callers that
// hand results to other goroutines or retain them across calls must copy
// them first, or use Assess / AssessBatch, which return
// independently-owned results.
type BatchScratch struct {
	work    *linalg.Matrix // scaled input, one row per sample
	reduced *linalg.Matrix // PCA projection, when that stage exists
	workT   *linalg.Matrix // transpose of the projected batch, when members want it
	counts  []int          // row-major n x classes vote histograms
	votes   []int          // per-member batched vote scratch
	input   []float64      // member feature-subset scratch
	dists   []float64      // VoteDist backing for scratch-owned results
	results []Result

	// Per-worker private histograms for the parallel member partition;
	// integer merges keep the parallel accumulation bit-identical.
	partCounts [][]int
	partVotes  [][]int
	partInput  [][]float64
	errs       []error
}

// batchScratchPool recycles scratches behind Assess and AssessBatch.
// Scratches are shape-agnostic (every buffer is resized per call), so one
// pool serves every detector.
var batchScratchPool = sync.Pool{New: func() any { return new(BatchScratch) }}

func (s *BatchScratch) init() {
	if s.work == nil {
		s.work = linalg.New(0, 0)
	}
	if s.reduced == nil {
		s.reduced = linalg.New(0, 0)
	}
}

// growInts returns b resized to n, reallocating only on growth.
func growInts(b []int, n int) []int {
	if cap(b) < n {
		return make([]int, n)
	}
	return b[:n]
}

// growFloats returns b resized to n, reallocating only on growth.
func growFloats(b []float64, n int) []float64 {
	if cap(b) < n {
		return make([]float64, n)
	}
	return b[:n]
}

// AssessInto is Assess with caller-owned memory: the projection, vote and
// result buffers all live in s, so a steady-state caller assessing one
// sample at a time allocates nothing (see TestAllocsAssessInto). The
// returned Result (including its VoteDist) is valid only until the
// scratch's next use. It runs the same scalar member walk as Assess and
// Online.Push, so results are element-wise identical to both and to the
// batch paths. The zero BatchScratch is ready to use. Detectors built
// WithDecomposition allocate: the per-member posterior walk is not
// scratch-managed.
func (d *Detector) AssessInto(s *BatchScratch, x []float64) (Result, error) {
	z, err := d.projectVec(s, x)
	if err != nil {
		return Result{}, err
	}
	r, err := d.assessVec(s, z)
	if err != nil {
		return Result{}, fmt.Errorf("detector: %w", err)
	}
	return r, nil
}

// projectVec scales and PCA-projects one raw vector into the first rows of
// s's projection matrices. The returned slice aliases s until its next
// use.
func (d *Detector) projectVec(s *BatchScratch, x []float64) ([]float64, error) {
	s.init()
	s.work.ResizeUnset(1, d.pipe.InputDim())        // ProjectInto writes every cell
	s.reduced.ResizeUnset(1, d.pipe.ProjectedDim()) // likewise, when PCA is fitted
	z, err := d.pipe.ProjectInto(s.work.Row(0), s.reduced.Row(0), x)
	if err != nil {
		return nil, fmt.Errorf("detector: %w", err)
	}
	return z, nil
}

// assessVec is the single-vector path behind Assess, AssessInto and
// Online.Push: member votes, vote histogram, entropy and the rejection
// threshold over one projected vector z, with the histogram, member-subset
// input and vote distribution in s. The returned VoteDist aliases s until
// its next use. Decomposing detectors take the allocating posterior walk.
func (d *Detector) assessVec(s *BatchScratch, z []float64) (Result, error) {
	if d.cfg.decompose {
		a, dc, err := d.pipe.AssessDecomposeProjected(z)
		if err != nil {
			return Result{}, err
		}
		dec := Decomposition(dc)
		return d.finishResult(a, &dec)
	}
	k := d.pipe.Classes()
	s.counts = growInts(s.counts, k)
	s.dists = growFloats(s.dists, k)
	s.input = growFloats(s.input, d.pipe.MemberScratchDim())
	a, err := d.pipe.AssessProjectedInto(z, s.input, s.dists, s.counts)
	if err != nil {
		return Result{}, err
	}
	return d.finishResult(a, nil)
}

// AssessBatchInto is AssessBatch with caller-owned memory: every buffer —
// including the returned results and their VoteDist slices — lives in s
// and is reused by the next call, so steady-state batched assessment
// allocates nothing (see TestAllocsAssessBatchInto). Results are
// element-wise identical to AssessBatch. The zero BatchScratch is ready to
// use. Detectors built WithDecomposition take the allocating path: the
// per-member posterior walk is not scratch-managed.
func (d *Detector) AssessBatchInto(s *BatchScratch, X [][]float64) ([]Result, error) {
	return d.assessBatch(s, X, false)
}

// assessBatch is the batch path behind AssessBatch, AssessBatchInto and
// AssessDataset: one matrix projection of the raw rows into s, then the
// scratch vote tail (assessZ), or the per-row walk (assessRows) for
// decomposing detectors. With fresh set, the results and their VoteDist
// backing are independently allocated (they escape to the caller of
// AssessBatch); otherwise both live in s.
func (d *Detector) assessBatch(s *BatchScratch, X [][]float64, fresh bool) ([]Result, error) {
	if len(X) == 0 {
		return nil, errors.New("detector: empty batch")
	}
	s.init()
	Z, err := d.pipe.ProjectRowsScratch(X, s.work, s.reduced)
	if err != nil {
		return nil, fmt.Errorf("detector: %w", err)
	}
	if d.cfg.decompose {
		// The decomposition walk needs every member's posterior; it stays
		// on the allocating per-row path.
		return d.assessRows(Z)
	}
	return d.assessZ(s, Z, fresh)
}

// workers returns the detector's assessment parallelism, capped at limit.
func (d *Detector) workers(limit int) int {
	w := d.cfg.workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	return min(w, limit)
}

// assessZ is the member-vote + summarize tail of the batch path, running
// over the already-projected batch Z.
func (d *Detector) assessZ(s *BatchScratch, Z *linalg.Matrix, fresh bool) ([]Result, error) {
	n, k := Z.Rows(), d.pipe.Classes()
	members := d.pipe.Members()

	// The vectorized tree kernel reads one feature across 32 samples, so
	// members that want it share a single feature-major copy of the
	// projected batch — one transpose per batch, read-only afterwards
	// (race-free under the parallel member partition below).
	var ZT *linalg.Matrix
	if d.pipe.WantsCols() {
		if s.workT == nil {
			s.workT = linalg.New(0, 0)
		}
		s.workT.ResizeUnset(Z.Cols(), Z.Rows()) // TInto writes every cell
		if err := Z.TInto(s.workT); err != nil {
			return nil, fmt.Errorf("detector: %w", err)
		}
		ZT = s.workT
	}

	s.counts = growInts(s.counts, n*k)
	clear(s.counts)
	s.votes = growInts(s.votes, n)
	s.input = growFloats(s.input, d.pipe.MemberScratchDim())

	var err error
	if workers := d.workers(members); workers <= 1 {
		err = d.pipe.AccumulateVotes(Z, ZT, s.counts, 0, members, s.votes, s.input)
	} else {
		err = d.accumulateParallel(s, Z, ZT, workers, members, k)
	}
	if err != nil {
		if !errors.Is(err, hmd.ErrVoteRange) {
			return nil, fmt.Errorf("detector: %w", err)
		}
		// A member voted outside the class histogram: take the allocating
		// per-row path, which grows its histogram defensively.
		return d.assessRows(Z)
	}

	var results []Result
	var dists []float64
	if fresh {
		results = make([]Result, n)
		dists = make([]float64, n*k)
	} else {
		if cap(s.results) < n {
			s.results = make([]Result, n)
		}
		s.results = s.results[:n]
		results = s.results
		s.dists = growFloats(s.dists, n*k)
		dists = s.dists
	}
	rej := core.Rejector{Threshold: d.cfg.threshold}
	for i := 0; i < n; i++ {
		// Full slice expressions cap each VoteDist at its own window so a
		// caller appending to one result cannot overwrite its neighbour.
		a, err := d.pipe.SummarizeCounts(s.counts[i*k:(i+1)*k], dists[i*k:(i+1)*k:(i+1)*k])
		if err != nil {
			return nil, fmt.Errorf("detector: sample %d: %w", i, err)
		}
		decision, err := rej.Decide(a.Prediction, a.Entropy)
		if err != nil {
			return nil, fmt.Errorf("detector: sample %d: %w", i, err)
		}
		results[i] = Result{
			Prediction: a.Prediction,
			Entropy:    a.Entropy,
			VoteDist:   a.VoteDist,
			Decision:   Decision(decision),
		}
	}
	return results, nil
}

// accumulateParallel partitions the ensemble's members across workers,
// each filling a private vote histogram, and integer-merges the partials —
// counts are order-independent, so the result is bit-identical to the
// serial accumulation.
func (d *Detector) accumulateParallel(s *BatchScratch, Z, ZT *linalg.Matrix, workers, members, k int) error {
	n := Z.Rows()
	for len(s.partCounts) < workers {
		s.partCounts = append(s.partCounts, nil)
		s.partVotes = append(s.partVotes, nil)
		s.partInput = append(s.partInput, nil)
	}
	if cap(s.errs) < workers {
		s.errs = make([]error, workers)
	}
	s.errs = s.errs[:workers]
	clear(s.errs)
	inputDim := d.pipe.MemberScratchDim()

	var wg sync.WaitGroup
	chunk := (members + workers - 1) / workers
	launched := 0
	for w := 0; w < workers; w++ {
		from := w * chunk
		to := from + chunk
		if to > members {
			to = members
		}
		if from >= to {
			break
		}
		s.partCounts[w] = growInts(s.partCounts[w], n*k)
		clear(s.partCounts[w])
		s.partVotes[w] = growInts(s.partVotes[w], n)
		s.partInput[w] = growFloats(s.partInput[w], inputDim)
		wg.Add(1)
		launched++
		go func(w, from, to int) {
			defer wg.Done()
			s.errs[w] = d.pipe.AccumulateVotes(Z, ZT, s.partCounts[w], from, to, s.partVotes[w], s.partInput[w])
		}(w, from, to)
	}
	wg.Wait()
	for _, err := range s.errs {
		if err != nil {
			return err
		}
	}
	for w := 0; w < launched; w++ {
		for i, v := range s.partCounts[w] {
			s.counts[i] += v
		}
	}
	return nil
}

// assessRows is the allocating per-row path over an already-projected
// batch: decomposing detectors, and the defensive fallback when a member
// votes outside the class histogram. Rows fan out over the detector's
// worker pool, each worker running assessVec in a private workspace, and
// every result owns its VoteDist.
func (d *Detector) assessRows(Z *linalg.Matrix) ([]Result, error) {
	n := Z.Rows()
	out := make([]Result, n)
	workers := d.workers(n)
	var (
		next atomic.Int64
		wg   sync.WaitGroup
		errs = make([]error, workers)
	)
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var s BatchScratch
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				r, err := d.assessVec(&s, Z.Row(i))
				if err != nil {
					errs[w] = fmt.Errorf("detector: sample %d: %w", i, err)
					return
				}
				r.VoteDist = slices.Clone(r.VoteDist)
				out[i] = r
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}
