// Package evalx is the evaluation harness: it measures prediction accuracy
// the way Section 5 of the paper does and packages the sweeps behind the
// paper's figures and tables.
//
// The measurement protocol is: the predictor observes the stream one value
// at a time; before each observation it is asked for the next `horizons`
// future values (+1 … +5 in the paper). A prediction for +k made before
// observing element i refers to element i+k-1; it is a hit when it equals
// that element. Abstentions — the predictor has not learned a pattern yet
// — count as misses, which is why short streams such as IS on 4 processes
// stay below the others in Figure 3 ("a sample of the pattern has to be
// seen by the predictor for learning").
package evalx

import (
	"fmt"

	"mpipredict/internal/core"
	"mpipredict/internal/strategy"
)

// DefaultHorizons is the number of future values the paper predicts.
const DefaultHorizons = 5

// PredictorFactory builds a fresh prediction strategy for one stream
// evaluation.
type PredictorFactory func() strategy.Strategy

// DefaultPredictor returns the paper's predictor: the DPD with the default
// configuration.
func DefaultPredictor() strategy.Strategy {
	return strategy.NewDPD(core.DefaultConfig())
}

// StreamAccuracy is the result of evaluating one stream.
type StreamAccuracy struct {
	// Samples is the stream length.
	Samples int
	// Hits[k-1] and Total[k-1] count correct and attempted predictions
	// for horizon +k. Total includes abstentions.
	Hits  []int
	Total []int
}

// Accuracy returns the hit fraction for horizon +k (1-based). It returns
// 0 when no prediction for that horizon was scored.
func (a StreamAccuracy) Accuracy(k int) float64 {
	if k < 1 || k > len(a.Hits) || a.Total[k-1] == 0 {
		return 0
	}
	return float64(a.Hits[k-1]) / float64(a.Total[k-1])
}

// Mean returns the average accuracy across all horizons.
func (a StreamAccuracy) Mean() float64 {
	if len(a.Hits) == 0 {
		return 0
	}
	var s float64
	for k := 1; k <= len(a.Hits); k++ {
		s += a.Accuracy(k)
	}
	return s / float64(len(a.Hits))
}

// String renders the accuracies as percentages.
func (a StreamAccuracy) String() string {
	s := ""
	for k := 1; k <= len(a.Hits); k++ {
		if k > 1 {
			s += " "
		}
		s += fmt.Sprintf("+%d:%.1f%%", k, 100*a.Accuracy(k))
	}
	return s
}

// EvaluateStream replays the stream through a fresh predictor and scores
// +1..+horizons predictions. A nil factory selects the paper's DPD
// predictor.
func EvaluateStream(stream []int64, factory PredictorFactory, horizons int) StreamAccuracy {
	if horizons < 1 {
		horizons = DefaultHorizons
	}
	if factory == nil {
		factory = DefaultPredictor
	}
	p := factory()
	acc := StreamAccuracy{
		Samples: len(stream),
		Hits:    make([]int, horizons),
		Total:   make([]int, horizons),
	}
	for i := range stream {
		for k := 1; k <= horizons; k++ {
			idx := i + k - 1
			if idx >= len(stream) {
				continue
			}
			acc.Total[k-1]++
			if v, ok := p.Predict(k); ok && v == stream[idx] {
				acc.Hits[k-1]++
			}
		}
		p.Observe(stream[i])
	}
	return acc
}

// MismatchFraction returns the fraction of positions at which two streams
// of equal length disagree. It quantifies the logical-vs-physical
// reordering that Figure 2 of the paper illustrates. Streams of different
// lengths compare only the common prefix and count the excess as
// mismatches.
func MismatchFraction(a, b []int64) float64 {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	longest := len(a)
	if len(b) > longest {
		longest = len(b)
	}
	if longest == 0 {
		return 0
	}
	diff := longest - n
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			diff++
		}
	}
	return float64(diff) / float64(longest)
}
