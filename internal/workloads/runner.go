package workloads

import (
	"fmt"

	"mpipredict/internal/simmpi"
	"mpipredict/internal/simnet"
	"mpipredict/internal/stream"
	"mpipredict/internal/trace"
)

// RunConfig bundles everything needed to simulate one workload instance.
type RunConfig struct {
	// Spec selects the workload, the process count and optionally an
	// iteration override.
	Spec Spec
	// Net is the interconnect model; the zero value selects
	// simnet.DefaultConfig (jitter and imbalance on).
	Net simnet.Config
	// Seed drives the simulation's stochastic elements.
	Seed int64
	// TraceAllReceivers records the streams of every rank. By default only
	// the workload's typical receiver (the rank the paper's experiments
	// trace) is recorded, which keeps memory bounded for the large runs.
	TraceAllReceivers bool
	// TraceReceivers records the streams of exactly these ranks. It
	// overrides the default single-receiver behaviour; it is ignored when
	// TraceAllReceivers is set.
	TraceReceivers []int
}

// resolve validates the run configuration and builds the simulator
// config and rank program it selects.
func resolve(rc RunConfig) (simmpi.Config, simmpi.Program, error) {
	if err := Validate(rc.Spec); err != nil {
		return simmpi.Config{}, nil, err
	}
	program, err := Program(rc.Spec)
	if err != nil {
		return simmpi.Config{}, nil, err
	}
	net := rc.Net
	if net == (simnet.Config{}) {
		net = simnet.DefaultConfig()
	}
	receivers := rc.TraceReceivers
	if rc.TraceAllReceivers {
		receivers = nil
	} else if len(receivers) == 0 {
		recv, err := TypicalReceiver(rc.Spec.Name, rc.Spec.Procs)
		if err != nil {
			return simmpi.Config{}, nil, err
		}
		receivers = []int{recv}
	}
	return simmpi.Config{
		App:            rc.Spec.Name,
		Procs:          rc.Spec.Procs,
		Net:            net,
		Seed:           rc.Seed,
		TraceReceivers: receivers,
	}, program, nil
}

// Run simulates the workload and returns its trace. The trace contains
// logical and physical receive streams for the selected receivers.
func Run(rc RunConfig) (*trace.Trace, error) {
	cfg, program, err := resolve(rc)
	if err != nil {
		return nil, err
	}
	tr, err := simmpi.Run(cfg, program)
	if err != nil {
		return nil, fmt.Errorf("workloads: running %s on %d procs: %w", rc.Spec.Name, rc.Spec.Procs, err)
	}
	return tr, nil
}

// RunToSink simulates the workload and streams its events into the sink
// as blocks, never materializing the trace — the export path tracegen
// -stream uses. The emitted event order is identical to the order Run
// stores, so a streamed export is byte-identical to an in-memory one.
func RunToSink(rc RunConfig, sink stream.Sink) error {
	cfg, program, err := resolve(rc)
	if err != nil {
		return err
	}
	if err := simmpi.RunToSink(cfg, program, sink); err != nil {
		return fmt.Errorf("workloads: running %s on %d procs: %w", rc.Spec.Name, rc.Spec.Procs, err)
	}
	return nil
}

// PickReplayReceiver picks the receiver to evaluate when replaying a trace
// loaded from disk: the workload's typical receiver when the trace's app
// is in the catalog and that rank was traced, otherwise the trace's sole
// traced receiver. Traces of unknown applications with several traced
// receivers are ambiguous and rejected — the caller must choose. The
// caller supplies the header metadata and the set of traced receivers
// (sorted, as a one-pass scan or trace.Receivers yields them).
func PickReplayReceiver(app string, procs int, receivers []int) (int, error) {
	if len(receivers) == 0 {
		return 0, fmt.Errorf("workloads: trace %q holds no receive events", app)
	}
	if _, err := Lookup(app); err == nil {
		if typical, err := TypicalReceiver(app, procs); err == nil {
			for _, r := range receivers {
				if r == typical {
					return typical, nil
				}
			}
		}
	}
	if len(receivers) == 1 {
		return receivers[0], nil
	}
	return 0, fmt.Errorf("workloads: trace %q has %d traced receivers %v and no recognisable typical one; pick a receiver explicitly",
		app, len(receivers), receivers)
}
