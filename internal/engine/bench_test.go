package engine

import (
	"context"
	"math/rand"
	"testing"

	"ohminer/internal/dal"
	"ohminer/internal/gen"
	"ohminer/internal/pattern"
)

func benchFixture(b *testing.B) (*dal.Store, *pattern.Pattern) {
	b.Helper()
	h := gen.MustGenerate(gen.Config{Name: "b", NumVertices: 400, NumEdges: 2500,
		Communities: 18, MemberOverlap: 1.2, EdgeSizeMin: 3, EdgeSizeMax: 16, EdgeSizeMean: 9, Seed: 103})
	store := dal.Build(h)
	rng := rand.New(rand.NewSource(11))
	p, err := pattern.Sample(h, 3, 8, 25, rng)
	if err != nil {
		b.Fatal(err)
	}
	return store, p
}

// BenchmarkEstimateFractions shows the estimator's time/accuracy dial.
func BenchmarkEstimateFractions(b *testing.B) {
	store, p := benchFixture(b)
	for _, f := range []float64{0.05, 0.25, 1.0} {
		b.Run(intsetName(f), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := EstimateCount(context.Background(), store, p, f, int64(i), Options{Workers: 1}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func intsetName(f float64) string {
	switch {
	case f >= 1:
		return "exact"
	case f >= 0.25:
		return "quarter"
	default:
		return "5pct"
	}
}
