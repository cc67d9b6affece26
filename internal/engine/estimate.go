package engine

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"time"

	"ohminer/internal/dal"
	"ohminer/internal/pattern"
)

// Estimate holds an approximate embedding count (the sampling-based
// direction of ASAP/Arya from the paper's related work, applied to the
// overlap-centric engine as an extension).
type Estimate struct {
	// Ordered is the estimated ordered-embedding count.
	Ordered float64
	// Unique is Ordered / automorphisms.
	Unique float64
	// StdErr is the standard error of the Ordered estimate under uniform
	// root sampling.
	StdErr float64
	// SampledRoots / TotalRoots describe the sample.
	SampledRoots int
	TotalRoots   int
	Elapsed      time.Duration
}

// EstimateCount approximates the embedding count by mining the complete
// subtrees of a uniform sample of first-hyperedge candidates ("roots") and
// scaling by the inverse sampling fraction. fraction ∈ (0, 1]; fraction 1
// degenerates to an exact count. Deterministic in seed.
//
// The context stops the estimate as it stops a mine, through the shared stop
// flag. A stopped estimate scales over the sampled roots whose subtrees were
// finished before the stop (SampledRoots of them) and returns ctx.Err().
func EstimateCount(ctx context.Context, store *dal.Store, p *pattern.Pattern, fraction float64, seed int64, opts Options) (Estimate, error) {
	if fraction <= 0 || fraction > 1 {
		return Estimate{}, errors.New("engine: fraction must be in (0, 1]")
	}
	// The estimator's per-root scaling and variance math are defined over
	// ordered tuples, so the plan is always compiled without
	// symmetry-breaking restrictions — in the order Mine would run, so the
	// sampled subtrees are the ones Mine explores.
	plan, err := CompilePlan(store, p, Options{NoSymmetryBreak: true})
	if err != nil {
		return Estimate{}, err
	}
	if err := validateRun(store, plan, opts); err != nil {
		return Estimate{}, err
	}
	start := time.Now()

	// Limits would interact with the scaling; estimation always mines the
	// sampled subtrees to completion.
	opts.Limit = 0
	e := newShared(store, plan, opts)
	if ctx.Done() != nil {
		defer context.AfterFunc(ctx, func() { e.stopped.Store(true) })()
	}
	if ctx.Err() != nil {
		e.stopped.Store(true)
	}
	roots := firstCandidates(store, plan, opts)
	n := len(roots)
	est := Estimate{TotalRoots: n}
	aut := plan.Pattern.Automorphisms()
	if n == 0 {
		est.Elapsed = time.Since(start)
		return est, nil
	}

	k := int(math.Ceil(fraction * float64(n)))
	if k > n {
		k = n
	}
	rng := rand.New(rand.NewSource(seed))
	// Partial Fisher–Yates: uniform sample without replacement.
	sample := append([]uint32(nil), roots...)
	for i := 0; i < k; i++ {
		j := i + rng.Intn(n-i)
		sample[i], sample[j] = sample[j], sample[i]
	}
	sample = sample[:k]

	// Mine each sampled root's complete subtree; a root the stop cut short
	// is no sample, and ends the estimate.
	w := newWorker(e, nil)
	perRoot := make([]float64, 0, k)
	var total uint64
	for i := range sample {
		before := w.count
		w.explore(0, sample[i:i+1])
		if w.stop {
			err = ctx.Err()
			break
		}
		perRoot = append(perRoot, float64(w.count-before))
		total = w.count
	}
	k = len(perRoot)
	est.SampledRoots = k
	est.Elapsed = time.Since(start)
	if k == 0 {
		return est, err
	}

	scale := float64(n) / float64(k)
	est.Ordered = float64(total) * scale
	est.Unique = est.Ordered / float64(aut)
	if k > 1 {
		mean := float64(total) / float64(k)
		var ss float64
		for _, c := range perRoot {
			d := c - mean
			ss += d * d
		}
		variance := ss / float64(k-1)
		// Finite-population correction for sampling without replacement.
		fpc := float64(n-k) / float64(n-1)
		est.StdErr = float64(n) * math.Sqrt(variance*fpc/float64(k))
	}
	return est, err
}
