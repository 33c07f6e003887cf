package simnet

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestConfigValidate(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Config)
		ok     bool
	}{
		{"default", func(c *Config) {}, true},
		{"noiseless", func(c *Config) { *c = NoiselessConfig() }, true},
		{"negative latency", func(c *Config) { c.LatencyUS = -1 }, false},
		{"zero bandwidth", func(c *Config) { c.BandwidthBytesPerUS = 0 }, false},
		{"negative overhead", func(c *Config) { c.SendOverheadUS = -1 }, false},
		{"negative recv overhead", func(c *Config) { c.RecvOverheadUS = -0.5 }, false},
		{"negative jitter", func(c *Config) { c.JitterFrac = -0.1 }, false},
		{"negative imbalance", func(c *Config) { c.ImbalanceFrac = -0.1 }, false},
		{"negative eager limit", func(c *Config) { c.EagerLimitBytes = -1 }, false},
		{"negative rendezvous", func(c *Config) { c.RendezvousExtraUS = -1 }, false},
	}
	for _, c := range cases {
		cfg := DefaultConfig()
		c.mutate(&cfg)
		err := cfg.Validate()
		if (err == nil) != c.ok {
			t.Errorf("%s: Validate()=%v want ok=%v", c.name, err, c.ok)
		}
	}
}

func TestNewModelRejectsInvalidConfig(t *testing.T) {
	cfg := DefaultConfig()
	cfg.BandwidthBytesPerUS = -5
	if _, err := NewModel(cfg); err == nil {
		t.Error("NewModel should reject an invalid config")
	}
}

func TestTransferTimeDeterministicWithoutJitter(t *testing.T) {
	m := mustModel(t, NoiselessConfig())
	rng := rand.New(rand.NewSource(1))
	want := 30 + 1000.0/100
	if got := m.TransferTime(rng, 1000); got != want {
		t.Errorf("TransferTime(1000)=%g want %g", got, want)
	}
	if got := m.TransferTime(nil, 1000); got != want {
		t.Errorf("TransferTime with nil rng=%g want %g", got, want)
	}
	if got := m.TransferTime(rng, -50); got != 30 {
		t.Errorf("negative sizes clamp to zero payload, got %g", got)
	}
}

func TestTransferTimeGrowsWithSize(t *testing.T) {
	m := mustModel(t, NoiselessConfig())
	small := m.TransferTime(nil, 1024)
	large := m.TransferTime(nil, 1024*1024)
	if large <= small {
		t.Errorf("transfer time must grow with size: %g vs %g", small, large)
	}
}

func TestTransferTimeJitterIsBoundedAndPositive(t *testing.T) {
	cfg := DefaultConfig()
	cfg.JitterFrac = 0.5
	m := mustModel(t, cfg)
	rng := rand.New(rand.NewSource(7))
	base := m.TransferTime(nil, 4096)
	for i := 0; i < 5000; i++ {
		v := m.TransferTime(rng, 4096)
		if v <= 0 {
			t.Fatalf("transfer time must stay positive, got %g", v)
		}
		if v < base*0.1-1e-9 || v > base*3+1e-9 {
			t.Fatalf("jittered transfer time %g outside clamp [%g, %g]", v, base*0.1, base*3)
		}
	}
}

func TestComputeTime(t *testing.T) {
	m := mustModel(t, NoiselessConfig())
	if got := m.ComputeTime(nil, 500); got != 500 {
		t.Errorf("noiseless compute time=%g want 500", got)
	}
	if got := m.ComputeTime(nil, -10); got != 0 {
		t.Errorf("negative base clamps to 0, got %g", got)
	}
	noisy := mustModel(t, DefaultConfig())
	rng := rand.New(rand.NewSource(3))
	var different bool
	for i := 0; i < 100; i++ {
		if noisy.ComputeTime(rng, 500) != 500 {
			different = true
			break
		}
	}
	if !different {
		t.Error("with ImbalanceFrac > 0 compute times should vary")
	}
}

func TestProtocolSelection(t *testing.T) {
	m := mustModel(t, DefaultConfig())
	if m.UsesRendezvous(16 * 1024) {
		t.Error("a message exactly at the eager limit should be eager")
	}
	if !m.UsesRendezvous(16*1024 + 1) {
		t.Error("a message above the eager limit should use rendezvous")
	}
	if m.EagerLimit() != 16*1024 {
		t.Errorf("EagerLimit=%d want 16384", m.EagerLimit())
	}
}

func TestRendezvousHandshakeCost(t *testing.T) {
	m := mustModel(t, NoiselessConfig())
	got := m.RendezvousHandshake(nil)
	want := 2*30.0 + 10.0
	if got != want {
		t.Errorf("handshake=%g want %g", got, want)
	}
}

func TestPointToPointLatencyRendezvousVsEager(t *testing.T) {
	m := mustModel(t, NoiselessConfig())
	size := int64(64 * 1024)
	rdv := m.PointToPointLatency(size, false)
	eager := m.PointToPointLatency(size, true)
	if rdv <= eager {
		t.Errorf("rendezvous latency (%g) must exceed forced-eager latency (%g)", rdv, eager)
	}
	if rdv-eager != 2*30.0+10.0 {
		t.Errorf("latency gap=%g want exactly the handshake cost", rdv-eager)
	}
	small := int64(1024)
	if m.PointToPointLatency(small, false) != m.PointToPointLatency(small, true) {
		t.Error("below the eager limit the protocol flag must not matter")
	}
}

func TestSendRecvOverheadAccessors(t *testing.T) {
	m := mustModel(t, DefaultConfig())
	if m.SendOverhead() != 15 || m.RecvOverhead() != 10 {
		t.Errorf("overheads=%g/%g want 15/10", m.SendOverhead(), m.RecvOverhead())
	}
}

// Property: transfer time is always positive and monotone in expectation:
// the noiseless time for a larger message is never smaller.
func TestTransferTimeProperties(t *testing.T) {
	m := mustModel(t, NoiselessConfig())
	f := func(a, b uint32) bool {
		sa, sb := int64(a%(1<<20)), int64(b%(1<<20))
		ta, tb := m.TransferTime(nil, sa), m.TransferTime(nil, sb)
		if ta <= 0 || tb <= 0 {
			return false
		}
		if sa <= sb {
			return ta <= tb
		}
		return tb <= ta
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// mustModel is NewModel for configurations the test knows are valid.
func mustModel(t *testing.T, cfg Config) *Model {
	t.Helper()
	m, err := NewModel(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m
}
