// Package detector is the public, serving-oriented front door to the
// trusted hardware-based malware detector (HMD) of the source paper. It
// wraps the implementation core in internal/hmd behind one coherent API:
//
//   - New builds a Detector from a training split with functional options
//     (WithModel, WithPCA, WithThreshold, WithWorkers, ...).
//   - Assess produces a Result — prediction, vote-entropy uncertainty, vote
//     distribution, Benign/Malware/Reject decision and (optionally) the
//     aleatoric/epistemic decomposition — in one pass over member outputs.
//   - AssessBatch / AssessDataset amortise feature scaling and PCA across
//     a whole batch (one matrix projection instead of n vector
//     projections) and fan member inference out over a worker pool.
//   - Register plugs new base-classifier families into the open model
//     registry without touching internal/hmd.
//   - Save / Load serialize trained pipelines so a service can train once
//     and serve many.
//   - Online, Retrainer and DriftMonitor provide the deployment loop of
//     the paper's Fig. 1: streaming decisions, forensic retraining and
//     drift alarms.
//
// A trained Detector is immutable and safe for concurrent use.
package detector

import (
	"errors"
	"fmt"
	"slices"

	"trusthmd/internal/core"
	"trusthmd/internal/hmd"
	"trusthmd/internal/ml/linear"
	"trusthmd/pkg/dataset"
)

// Decision is a trusted-HMD verdict: accept the prediction as Benign or
// Malware, or Reject and route the input to an analyst.
type Decision int

// The three trusted decisions. Values mirror internal/core's decision
// encoding (asserted by a package test) so Save/Load and the serving wire
// formats are unaffected by the exported type.
const (
	Benign Decision = iota
	Malware
	Reject
)

// String implements fmt.Stringer.
func (d Decision) String() string {
	switch d {
	case Benign:
		return "benign"
	case Malware:
		return "malware"
	case Reject:
		return "reject"
	default:
		return fmt.Sprintf("decision(%d)", int(d))
	}
}

// Decomposition splits a prediction's total uncertainty into aleatoric
// (data noise) and epistemic (model disagreement) components. All values
// are in bits; Total = Aleatoric + Epistemic.
type Decomposition struct {
	Total     float64
	Aleatoric float64
	Epistemic float64
}

// DominantSource names the larger component of the decomposition:
// "epistemic" for out-of-distribution-style uncertainty (actionable by
// collecting data and retraining), "aleatoric" for class overlap
// (actionable only by changing sensors/features), or "none" when the
// prediction is confident (total below the given floor).
func (d Decomposition) DominantSource(confidentBelow float64) string {
	return core.Decomposition(d).DominantSource(confidentBelow)
}

// Result is the detector's per-input output.
type Result struct {
	// Prediction is the ensemble's plurality label (0 benign, 1 malware).
	Prediction int
	// Entropy is the vote-entropy uncertainty in bits.
	Entropy float64
	// VoteDist is the normalised member-vote distribution.
	VoteDist []float64
	// Decision applies the detector's rejection threshold to the
	// prediction: Benign, Malware, or Reject.
	Decision Decision
	// Decomposition is the aleatoric/epistemic split of the uncertainty;
	// nil unless the detector was built WithDecomposition(true).
	Decomposition *Decomposition
}

// Detector is a trained trusted HMD ready to serve traffic.
type Detector struct {
	cfg  config
	pipe *hmd.Pipeline
}

// New trains a detector on the training split. Options default to the
// paper's deployment configuration: a 25-member random forest, no PCA,
// rejection threshold 0.40.
func New(train *dataset.Dataset, opts ...Option) (*Detector, error) {
	cfg, err := resolve(opts)
	if err != nil {
		return nil, err
	}
	builder, err := builderFor(cfg.model)
	if err != nil {
		return nil, err
	}
	pipe, err := hmd.Train(train, hmd.Config{
		NewMember:     builder(cfg.params),
		M:             cfg.m,
		PCAComponents: cfg.pca,
		Seed:          cfg.seed,
		Diversity:     cfg.diversity,
		MaxSamples:    cfg.maxSamples,
		MaxFeatures:   cfg.maxFeatures,
		Workers:       cfg.workers,
	})
	if err != nil {
		return nil, fmt.Errorf("detector: train %s: %w", cfg.model, err)
	}
	return &Detector{cfg: cfg, pipe: pipe}, nil
}

// Model returns the registry name of the detector's base-classifier family.
func (d *Detector) Model() string { return d.cfg.model }

// Threshold returns the entropy rejection threshold in use.
func (d *Detector) Threshold() float64 { return d.cfg.threshold }

// Members returns the number of trained ensemble members.
func (d *Detector) Members() int { return d.pipe.Members() }

// InputDim returns the raw feature dimensionality the pipeline was fitted
// on — the length Assess expects of its input vectors. Serving layers use
// it to reject malformed requests before they reach the pipeline.
func (d *Detector) InputDim() int { return d.pipe.InputDim() }

// Info is an exported snapshot of a detector's configuration: everything a
// serving layer needs to describe a loaded model, and everything Save
// persists about how the pipeline was trained.
type Info struct {
	// Model is the registry name of the base-classifier family.
	Model string `json:"model"`
	// Members is the trained ensemble size.
	Members int `json:"members"`
	// InputDim is the raw feature dimensionality Assess expects.
	InputDim int `json:"input_dim"`
	// PCA is the number of principal components (0 = no PCA stage).
	PCA int `json:"pca,omitempty"`
	// Seed fixed the training-time randomness.
	Seed int64 `json:"seed"`
	// Threshold is the entropy rejection threshold in bits.
	Threshold float64 `json:"threshold"`
	// Workers caps assessment parallelism (0 = GOMAXPROCS).
	Workers int `json:"workers,omitempty"`
	// Diversity names the member-diversification scheme.
	Diversity string `json:"diversity"`
	// MaxSamples / MaxFeatures are the bagging subsample fractions
	// (0 = full size / all features).
	MaxSamples  float64 `json:"max_samples,omitempty"`
	MaxFeatures float64 `json:"max_features,omitempty"`
	// Decompose reports whether results carry the aleatoric/epistemic
	// uncertainty split.
	Decompose bool `json:"decompose,omitempty"`
}

// Info returns the detector's configuration snapshot.
func (d *Detector) Info() Info {
	return Info{
		Model:       d.cfg.model,
		Members:     d.pipe.Members(),
		InputDim:    d.pipe.InputDim(),
		PCA:         d.cfg.pca,
		Seed:        d.cfg.seed,
		Threshold:   d.cfg.threshold,
		Workers:     d.cfg.workers,
		Diversity:   d.cfg.diversity.String(),
		MaxSamples:  d.cfg.maxSamples,
		MaxFeatures: d.cfg.maxFeatures,
		Decompose:   d.cfg.decompose,
	}
}

// Options reconstructs the option list that reproduces this
// configuration through New — the bridge from a served model's snapshot
// back to training: a retraining loop reads the live shard's Info and
// trains the replacement with the same family, ensemble shape and
// decision policy (callers append e.g. WithSeed to vary what they must).
func (i Info) Options() []Option {
	opts := []Option{
		WithModel(i.Model),
		WithEnsembleSize(i.Members),
		WithPCA(i.PCA),
		WithSeed(i.Seed),
		WithThreshold(i.Threshold),
		WithDiversity(i.Diversity),
		WithMaxSamples(i.MaxSamples),
		WithMaxFeatures(i.MaxFeatures),
		WithDecomposition(i.Decompose),
	}
	if i.Workers > 0 {
		opts = append(opts, WithWorkers(i.Workers))
	}
	return opts
}

// WithOptions returns a detector sharing this one's trained pipeline but
// with decision-time options (threshold, workers, decomposition) replaced.
// Training-time options are ignored: the pipeline is not refitted and the
// trained configuration (model, ensemble shape, seeds) is kept as-is.
func (d *Detector) WithOptions(opts ...Option) (*Detector, error) {
	cfg := d.cfg
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.err != nil {
		return nil, cfg.err
	}
	// Training-time fields cannot change without refitting; restore them so
	// the returned detector never misreports (or mis-saves) its pipeline.
	cfg.model, cfg.m, cfg.pca, cfg.seed = d.cfg.model, d.cfg.m, d.cfg.pca, d.cfg.seed
	cfg.diversity, cfg.maxSamples, cfg.maxFeatures = d.cfg.diversity, d.cfg.maxSamples, d.cfg.maxFeatures
	cfg.params = d.cfg.params
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	return &Detector{cfg: cfg, pipe: d.pipe}, nil
}

// Assess runs the trusted path on one raw feature vector: AssessInto over
// a pooled workspace, with the VoteDist copied out so the result is
// independently owned. That copy is the steady state's only allocation.
func (d *Detector) Assess(x []float64) (Result, error) {
	s := batchScratchPool.Get().(*BatchScratch)
	defer batchScratchPool.Put(s)
	r, err := d.AssessInto(s, x)
	if err != nil {
		return Result{}, err
	}
	r.VoteDist = slices.Clone(r.VoteDist)
	return r, nil
}

// Predict runs the untrusted path: the plain majority-vote label without
// uncertainty bookkeeping.
func (d *Detector) Predict(x []float64) (int, error) {
	p, err := d.pipe.Predict(x)
	if err != nil {
		return 0, fmt.Errorf("detector: %w", err)
	}
	return p, nil
}

// Posterior returns the averaged member posterior (the paper's Eq. 3).
func (d *Detector) Posterior(x []float64) ([]float64, error) {
	p, err := d.pipe.Posterior(x)
	if err != nil {
		return nil, fmt.Errorf("detector: %w", err)
	}
	return p, nil
}

// AssessBatch assesses a batch of raw feature vectors. Scaling and PCA run
// once over the whole batch as matrix operations into pooled scratch, and
// member inference walks the batch member-by-member (fanned out over the
// detector's worker pool) so each member's model state stays cache-hot
// across every sample; results are element-wise identical to calling
// Assess on each vector. The returned results are independently owned —
// callers that can reuse one workspace across calls should prefer
// AssessBatchInto, which drives the same path with zero steady-state
// allocations.
func (d *Detector) AssessBatch(X [][]float64) ([]Result, error) {
	s := batchScratchPool.Get().(*BatchScratch)
	defer batchScratchPool.Put(s)
	return d.assessBatch(s, X, true)
}

// AssessDataset assesses every sample of a dataset through the batched
// path.
func (d *Detector) AssessDataset(ds *dataset.Dataset) ([]Result, error) {
	if ds == nil || ds.Len() == 0 {
		return nil, errors.New("detector: empty dataset")
	}
	M := ds.X()
	rows := make([][]float64, M.Rows())
	for i := range rows {
		rows[i] = M.Row(i)
	}
	return d.AssessBatch(rows)
}

// finishResult applies the rejection threshold to an assessment.
func (d *Detector) finishResult(a hmd.Assessment, dec *Decomposition) (Result, error) {
	decision, err := core.Rejector{Threshold: d.cfg.threshold}.Decide(a.Prediction, a.Entropy)
	if err != nil {
		return Result{}, err
	}
	return Result{
		Prediction:    a.Prediction,
		Entropy:       a.Entropy,
		VoteDist:      a.VoteDist,
		Decision:      Decision(decision),
		Decomposition: dec,
	}, nil
}

// Truncated returns a detector view restricted to the first m ensemble
// members, sharing the trained pipeline stages with the receiver. It powers
// entropy-vs-ensemble-size sweeps (the paper's Fig. 9a) without refitting.
func (d *Detector) Truncated(m int) (*Detector, error) {
	pipe, err := d.pipe.Truncated(m)
	if err != nil {
		return nil, fmt.Errorf("detector: %w", err)
	}
	return &Detector{cfg: d.cfg, pipe: pipe}, nil
}

// Predictions extracts the per-sample predictions from a batch of results.
func Predictions(rs []Result) []int {
	out := make([]int, len(rs))
	for i, r := range rs {
		out[i] = r.Prediction
	}
	return out
}

// Entropies extracts the per-sample entropies from a batch of results.
func Entropies(rs []Result) []float64 {
	out := make([]float64, len(rs))
	for i, r := range rs {
		out[i] = r.Entropy
	}
	return out
}

// IsNoConvergence reports whether err stems from an ensemble member that
// failed to converge during training (the paper's SVM-on-HPC observation).
// Experiment harnesses use it to exclude a family rather than abort.
func IsNoConvergence(err error) bool {
	var nc *linear.ErrNoConvergence
	return errors.As(err, &nc)
}
