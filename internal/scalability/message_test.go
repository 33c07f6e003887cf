package scalability

import (
	"testing"

	"mpipredict/internal/core"
	"mpipredict/internal/strategy"
)

func TestMessagePredictorForecast(t *testing.T) {
	mp := NewDPDMessagePredictor(core.Config{WindowSize: 64, MaxLag: 32})
	senders := []int64{1, 2, 5, 7, 9}
	sizes := []int64{3240, 10240, 19440, 3240, 10240}
	for i := 0; i < 200; i++ {
		mp.Observe(int(senders[i%len(senders)]), sizes[i%len(sizes)])
	}
	fc := mp.ForecastInto(nil, 5)
	if len(fc) != 5 {
		t.Fatalf("forecast length=%d want 5", len(fc))
	}
	for i, f := range fc {
		if !f.OK {
			t.Fatalf("forecast %d not OK", i)
		}
		wantSender := int(senders[(200+i)%len(senders)])
		wantSize := sizes[(200+i)%len(sizes)]
		if f.Sender != wantSender || f.Size != wantSize {
			t.Errorf("forecast %d = %+v, want sender %d size %d", i, f, wantSender, wantSize)
		}
		if f.Ahead != i+1 {
			t.Errorf("forecast %d Ahead=%d want %d", i, f.Ahead, i+1)
		}
	}
}

// TestMessagePredictorJoinsStreams checks that each stream goes to its own
// strategy and that a forecast is OK only when both strategies answer.
func TestMessagePredictorJoinsStreams(t *testing.T) {
	mp := NewMessagePredictor(strategy.NewLastValue(), strategy.NewLastValue())
	mp.Observe(3, 100)
	fc := mp.ForecastInto(nil, 2)
	for _, f := range fc {
		if !f.OK || f.Sender != 3 || f.Size != 100 {
			t.Errorf("forecast %+v, want sender 3 size 100", f)
		}
	}
	// A DPD that has not learned a pattern abstains, and so does the joint
	// forecast.
	mp = NewMessagePredictor(strategy.NewLastValue(), strategy.NewDPD(core.DefaultConfig()))
	mp.Observe(3, 100)
	if f := mp.ForecastInto(nil, 1)[0]; f.OK || f.Sender != 3 {
		t.Errorf("forecast %+v, want sender 3 and OK false", f)
	}
}

func TestForecastIntoMatchesForecastAndDoesNotAllocate(t *testing.T) {
	mp := NewDPDMessagePredictor(core.DefaultConfig())
	// Lock both streams on a simple periodic pattern.
	for i := 0; i < 4*core.DefaultConfig().WindowSize; i++ {
		mp.Observe(i%6, int64(100*(i%6)+8))
	}
	// A reused buffer still holding an older, longer forecast yields the
	// same forecast as a fresh one.
	plain := mp.ForecastInto(nil, 5)
	into := mp.ForecastInto(make([]MessageForecast, 7), 5)[7:]
	if len(plain) != len(into) {
		t.Fatalf("length mismatch: %d vs %d", len(plain), len(into))
	}
	for i := range plain {
		if plain[i] != into[i] {
			t.Errorf("forecast %d differs: %+v vs %+v", i, plain[i], into[i])
		}
	}
	buf := make([]MessageForecast, 0, 5)
	allocs := testing.AllocsPerRun(1000, func() {
		buf = mp.ForecastInto(buf[:0], 5)
	})
	if allocs != 0 {
		t.Errorf("ForecastInto with a reused buffer allocates %.2f objects per call, want 0", allocs)
	}
}
