package scalability

import (
	"testing"

	"mpipredict/internal/simnet"
	"mpipredict/internal/trace"
	"mpipredict/internal/workloads"
)

// periodicTrace builds a synthetic trace whose physical stream repeats a
// fixed (sender, size) pattern — perfectly predictable, which makes the
// expected behaviour of the three mechanisms easy to assert.
func periodicTrace(procs int, pattern []trace.SynthMessage, reps int) *trace.Trace {
	return trace.Synthesize(trace.SynthConfig{
		App: "synthetic", Procs: procs, Receiver: 0,
		Pattern: pattern, Events: len(pattern) * reps,
	})
}

func TestStaticBufferMemory(t *testing.T) {
	if got := StaticBufferMemory(10000, DefaultPerPeerBufferBytes); got != int64(9999)*16*1024 {
		t.Errorf("static memory for 10000 procs = %d", got)
	}
	if StaticBufferMemory(0, 16384) != 0 {
		t.Error("no procs, no memory")
	}
	// The paper's headline: ~160 MB per process at 10 000 nodes.
	gb := float64(StaticBufferMemory(10000, DefaultPerPeerBufferBytes)) / (1024 * 1024)
	if gb < 150 || gb > 170 {
		t.Errorf("static memory at 10000 nodes = %.1f MB, expected ~160 MB", gb)
	}
}

func TestBufferManagerFastPathOnPredictableStream(t *testing.T) {
	pattern := []trace.SynthMessage{
		{Sender: 1, Size: 1024}, {Sender: 2, Size: 2048}, {Sender: 3, Size: 1024},
	}
	tr := periodicTrace(64, pattern, 200)
	stats, err := ReplayBuffers(tr, 0, BufferConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Messages != 600 {
		t.Fatalf("messages=%d want 600", stats.Messages)
	}
	if rate := stats.FastPathRate(); rate < 0.9 {
		t.Errorf("fast-path rate=%.3f want >= 0.9 on a perfectly periodic stream", rate)
	}
	if stats.PeakBuffers == 0 || stats.PeakBuffers > 5 {
		t.Errorf("peak buffers=%d want a small positive number", stats.PeakBuffers)
	}
	if stats.StaticMemory != StaticBufferMemory(64, DefaultPerPeerBufferBytes) {
		t.Errorf("static memory=%d", stats.StaticMemory)
	}
	if stats.MemoryReductionFactor() < 10 {
		t.Errorf("memory reduction factor=%.1f want >= 10 (3 active senders out of 63 peers)", stats.MemoryReductionFactor())
	}
}

func TestBufferManagerValidation(t *testing.T) {
	if _, err := NewBufferManager(1, BufferConfig{}); err == nil {
		t.Error("fewer than 2 processes should be rejected")
	}
	tr := trace.New("empty", 4)
	if _, err := ReplayBuffers(tr, 0, BufferConfig{}); err == nil {
		t.Error("empty trace should be rejected")
	}
}

func TestBufferStatsZeroValues(t *testing.T) {
	var s BufferStats
	if s.FastPathRate() != 0 || s.MemoryReductionFactor() != 0 {
		t.Error("zero stats should report zero rates")
	}
}

func TestCreditManagerOnPredictableStream(t *testing.T) {
	pattern := []trace.SynthMessage{
		{Sender: 1, Size: 8 * 1024}, {Sender: 2, Size: 8 * 1024},
		{Sender: 3, Size: 4 * 1024}, {Sender: 1, Size: 8 * 1024},
	}
	tr := periodicTrace(128, pattern, 150)
	stats, err := ReplayCredits(tr, 0, 8*1024, CreditConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if rate := stats.CreditedRate(); rate < 0.9 {
		t.Errorf("credited rate=%.3f want >= 0.9", rate)
	}
	if stats.UncontrolledExposureBytes != IncastExposure(128, 8*1024) {
		t.Errorf("uncontrolled exposure=%d", stats.UncontrolledExposureBytes)
	}
	if stats.PeakReservedBytes == 0 {
		t.Error("some memory should have been reserved")
	}
	if stats.PeakReservedBytes >= stats.UncontrolledExposureBytes {
		t.Errorf("credited reservation (%d) should be far below the incast exposure (%d)",
			stats.PeakReservedBytes, stats.UncontrolledExposureBytes)
	}
	if stats.ExposureReductionFactor() < 10 {
		t.Errorf("exposure reduction=%.1f want >= 10", stats.ExposureReductionFactor())
	}
}

func TestCreditManagerDefaultsAndValidation(t *testing.T) {
	if _, err := NewCreditManager(1, 1024, CreditConfig{}); err == nil {
		t.Error("fewer than 2 processes should be rejected")
	}
	if IncastExposure(0, 100) != 0 {
		t.Error("incast exposure of 0 procs should be 0")
	}
	var s CreditStats
	if s.CreditedRate() != 0 || s.ExposureReductionFactor() != 0 {
		t.Error("zero stats should report zero rates")
	}
	tr := trace.New("empty", 4)
	if _, err := ReplayCredits(tr, 0, 0, CreditConfig{}); err == nil {
		t.Error("empty trace should be rejected")
	}
}

func TestReplayCreditsInfersEagerBytes(t *testing.T) {
	pattern := []trace.SynthMessage{{Sender: 1, Size: 3000}, {Sender: 2, Size: 500}}
	tr := periodicTrace(16, pattern, 50)
	stats, err := ReplayCredits(tr, 0, 0, CreditConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if stats.UncontrolledExposureBytes != 15*3000 {
		t.Errorf("inferred exposure=%d want %d (largest observed message)", stats.UncontrolledExposureBytes, 15*3000)
	}
}

func TestProtocolAdvisorEliminatesRendezvous(t *testing.T) {
	big := int64(64 * 1024) // above the 16 KB eager limit
	pattern := []trace.SynthMessage{
		{Sender: 1, Size: big}, {Sender: 2, Size: 512}, {Sender: 3, Size: big},
	}
	tr := periodicTrace(8, pattern, 200)
	stats, err := ReplayProtocol(tr, 0, ProtocolConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Messages != 600 || stats.LargeMessages != 400 {
		t.Fatalf("messages=%d large=%d want 600/400", stats.Messages, stats.LargeMessages)
	}
	if rate := stats.EliminationRate(); rate < 0.9 {
		t.Errorf("elimination rate=%.3f want >= 0.9 on a predictable stream", rate)
	}
	if stats.PredictedLatencyUS >= stats.BaselineLatencyUS {
		t.Error("predicted latency should be below the baseline")
	}
	saving := stats.LatencySavingFraction()
	if saving <= 0 || saving >= 1 {
		t.Errorf("latency saving fraction=%.3f out of range", saving)
	}
}

func TestProtocolAdvisorSmallMessagesUnaffected(t *testing.T) {
	pattern := []trace.SynthMessage{{Sender: 1, Size: 512}, {Sender: 2, Size: 1024}}
	tr := periodicTrace(4, pattern, 100)
	stats, err := ReplayProtocol(tr, 0, ProtocolConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if stats.LargeMessages != 0 || stats.Eliminated != 0 {
		t.Errorf("no large messages expected, got %d/%d", stats.LargeMessages, stats.Eliminated)
	}
	if stats.PredictedLatencyUS != stats.BaselineLatencyUS {
		t.Error("latency must be unchanged when no rendezvous can be eliminated")
	}
	if stats.EliminationRate() != 0 || stats.LatencySavingFraction() != 0 {
		t.Error("rates should be zero without large messages")
	}
}

func TestProtocolAdvisorValidation(t *testing.T) {
	tr := trace.New("empty", 4)
	if _, err := ReplayProtocol(tr, 0, ProtocolConfig{}); err == nil {
		t.Error("empty trace should be rejected")
	}
	var s ProtocolStats
	if s.LatencySavingFraction() != 0 {
		t.Error("zero stats should report zero saving")
	}
}

func TestMechanismsOnRealWorkloadTrace(t *testing.T) {
	// End-to-end: run a reduced BT.4 simulation and feed its physical
	// stream to all three mechanisms. The stream is strongly periodic, so
	// every mechanism should do well.
	tr, err := workloads.Run(workloads.RunConfig{
		Spec: workloads.Spec{Name: "bt", Procs: 4, Iterations: 40},
		Net:  simnet.DefaultConfig(),
		Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	recv, _ := workloads.TypicalReceiver("bt", 4)

	buf, err := ReplayBuffers(tr, recv, BufferConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if buf.FastPathRate() < 0.7 {
		t.Errorf("buffer fast-path rate on BT.4=%.3f want >= 0.7", buf.FastPathRate())
	}

	cred, err := ReplayCredits(tr, recv, 0, CreditConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if cred.CreditedRate() < 0.6 {
		t.Errorf("credited rate on BT.4=%.3f want >= 0.6", cred.CreditedRate())
	}

	prot, err := ReplayProtocol(tr, recv, ProtocolConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if prot.LargeMessages == 0 {
		t.Fatal("BT.4 faces are larger than the eager limit; expected rendezvous traffic")
	}
	if prot.EliminationRate() < 0.5 {
		t.Errorf("rendezvous elimination rate on BT.4=%.3f want >= 0.5", prot.EliminationRate())
	}
}
