package mpipredict

// Corpus acceptance for the adaptive meta-strategy: across the golden
// corpus the router must stay within one accuracy point of the best
// single strategy. The corpus traces are short (two iterations), so this
// is the worst case for an online router — every stream starts with a
// cold scoring window — and the bound still has to hold.

import (
	"testing"

	"mpipredict/internal/core"
	"mpipredict/internal/evalx"
	"mpipredict/internal/strategy"
)

// TestMetaWithinOnePointOfBestSingleOnCorpus aggregates hits over every
// stream (sender and size, logical and physical) of every corpus trace,
// per strategy, and requires the meta router's corpus-wide mean accuracy
// to be at least the best single strategy's minus one point.
func TestMetaWithinOnePointOfBestSingleOnCorpus(t *testing.T) {
	mean := map[string]float64{}
	for _, name := range strategy.Names() {
		hits, total := 0, 0
		factory := func() strategy.Strategy {
			s, err := strategy.New(name, core.DefaultConfig())
			if err != nil {
				t.Fatal(err)
			}
			return s
		}
		for _, c := range corpusSpecs() {
			for _, stream := range corpusStreams(t, c.File) {
				acc := evalx.EvaluateStream(stream, factory, 5)
				for k := range acc.Hits {
					hits += acc.Hits[k]
					total += acc.Total[k]
				}
			}
		}
		if total == 0 {
			t.Fatalf("no scored predictions for %s", name)
		}
		mean[name] = float64(hits) / float64(total)
	}
	best, bestName := 0.0, ""
	for name, m := range mean {
		t.Logf("%-10s corpus mean accuracy %.4f", name, m)
		if name != strategy.MetaName && m > best {
			best, bestName = m, name
		}
	}
	if mean[strategy.MetaName] < best-0.01 {
		t.Fatalf("meta corpus accuracy %.4f is more than 1pt below the best single strategy %s's %.4f",
			mean[strategy.MetaName], bestName, best)
	}
}
