package mpipredict

// The dpd-strategy equivalence suite: the tentpole refactor moved the
// paper's predictor behind the Strategy interface with a zero-behavior-
// change contract, and this file pins that contract against the full
// golden corpus (testdata/corpus/*.mpts). Every recorded stream of every
// workload — sender and size, logical and physical — is driven through a
// hand-held core.StreamPredictor and through strategy.New("dpd") side by
// side, comparing every +1..+5 prediction before every observation. Any
// divergence, however small, fails here before it can skew a figure or a
// served forecast.

import (
	"testing"

	"mpipredict/internal/core"
	"mpipredict/internal/evalx"
	"mpipredict/internal/strategy"
	"mpipredict/internal/trace"
)

// corpusStreams yields every (stream, label) pair of one corpus trace.
func corpusStreams(t *testing.T, file string) map[string][]int64 {
	t.Helper()
	tr, err := trace.Load(corpusPath(file))
	if err != nil {
		t.Fatal(err)
	}
	streams := make(map[string][]int64)
	for _, receiver := range tr.Receivers() {
		for _, level := range []trace.Level{trace.Logical, trace.Physical} {
			if s := tr.SenderStreamShared(receiver, level); len(s) > 0 {
				streams[level.String()+"/sender"] = s
			}
			if s := tr.SizeStreamShared(receiver, level); len(s) > 0 {
				streams[level.String()+"/size"] = s
			}
		}
	}
	return streams
}

// TestDPDStrategyMatchesCoreOnCorpus requires hit-for-hit equality between
// the interface-dispatched dpd strategy and the bare core predictor on
// every corpus stream.
func TestDPDStrategyMatchesCoreOnCorpus(t *testing.T) {
	for _, c := range corpusSpecs() {
		t.Run(c.File, func(t *testing.T) {
			for label, stream := range corpusStreams(t, c.File) {
				direct := core.NewStreamPredictor(core.DefaultConfig())
				viaStrategy, err := strategy.New("dpd", core.DefaultConfig())
				if err != nil {
					t.Fatal(err)
				}
				for i, x := range stream {
					for k := 1; k <= 5; k++ {
						dv, dok := direct.Predict(k)
						sv, sok := viaStrategy.Predict(k)
						if dv != sv || dok != sok {
							t.Fatalf("%s step %d +%d: core (%d,%v) vs strategy (%d,%v)",
								label, i, k, dv, dok, sv, sok)
						}
					}
					direct.Observe(x)
					viaStrategy.Observe(x)
				}
			}
		})
	}
}

// TestDPDStrategyScoresIdenticallyOnCorpus runs the evaluation harness's
// own scoring loop both ways: the accuracy tables the figures are built
// from must not move by a single hit between the harness's default
// predictor (a nil factory) and the DPD selected through the strategy
// registry.
func TestDPDStrategyScoresIdenticallyOnCorpus(t *testing.T) {
	dpdFactory := func() strategy.Strategy {
		s, err := strategy.New("dpd", core.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	for _, c := range corpusSpecs() {
		t.Run(c.File, func(t *testing.T) {
			for label, stream := range corpusStreams(t, c.File) {
				want := evalx.EvaluateStream(stream, nil, 5)
				got := evalx.EvaluateStream(stream, dpdFactory, 5)
				for k := 0; k < 5; k++ {
					if want.Hits[k] != got.Hits[k] || want.Total[k] != got.Total[k] {
						t.Fatalf("%s horizon +%d: direct %d/%d hits, via strategy %d/%d",
							label, k+1, want.Hits[k], want.Total[k], got.Hits[k], got.Total[k])
					}
				}
			}
		})
	}
}
