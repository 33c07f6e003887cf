package main

import (
	"fmt"

	"mpipredict/internal/trace"
	"mpipredict/internal/workloads"
)

// session is one served session's input: the typical receiver's logical
// or physical message stream of one paper-grid cell.
type session struct {
	tenant, stream string
	senders, sizes []int64
}

// gridStreams simulates every paper-grid cell for each seed, on workers
// goroutines, and returns the typical receiver's logical and physical
// streams of each cell as sessions of tenant, in PaperSpecs order per
// seed.
func gridStreams(tenant string, seeds []int64, iterations, workers int) ([]session, error) {
	type cell struct {
		seed int64
		spec workloads.Spec
	}
	var cells []cell
	for _, seed := range seeds {
		for _, spec := range workloads.PaperSpecs() {
			spec.Iterations = iterations
			cells = append(cells, cell{seed, spec})
		}
	}
	levels := []trace.Level{trace.Logical, trace.Physical}
	out := make([]session, len(levels)*len(cells))
	err := forEach(len(cells), workers, func(i int) error {
		c := cells[i]
		recv, err := workloads.TypicalReceiver(c.spec.Name, c.spec.Procs)
		if err != nil {
			return err
		}
		tr, err := workloads.Run(workloads.RunConfig{Spec: c.spec, Seed: c.seed, TraceReceivers: []int{recv}})
		if err != nil {
			return err
		}
		for j, level := range levels {
			s := session{
				tenant:  tenant,
				stream:  fmt.Sprintf("%s.%d.%s", c.spec.Name, c.spec.Procs, level),
				senders: tr.SenderStream(recv, level),
				sizes:   tr.SizeStream(recv, level),
			}
			if len(seeds) > 1 {
				s.stream += fmt.Sprintf(".s%d", c.seed)
			}
			if len(s.senders) == 0 {
				return fmt.Errorf("simulating %s.%d seed %d: receiver %d has no %s events", c.spec.Name, c.spec.Procs, c.seed, recv, level)
			}
			out[len(levels)*i+j] = s
		}
		return nil
	})
	return out, err
}

// roundRobin is a load schedule over sessions: operation k goes to
// session k mod n and carries that session's next chunk of events. Each
// session cycles through its own stream, so every window of the schedule
// has the same session mix however far a run gets.
type roundRobin struct {
	sessions []*session
	chunk    int
}

// at returns the session of operation k, the sequence number of its batch
// (1, 2, ... per session) and the stream position its chunk starts at.
func (r *roundRobin) at(k int) (s *session, seq int64, pos int) {
	n := len(r.sessions)
	round := k / n
	return r.sessions[k%n], int64(round + 1), round * r.chunk
}

// events copies the chunk of operation k into the scratch columns.
func (r *roundRobin) events(k int, senders, sizes []int64) (*session, int64, []int64, []int64) {
	s, seq, pos := r.at(k)
	senders, sizes = senders[:0], sizes[:0]
	for i := 0; i < r.chunk; i++ {
		j := (pos + i) % len(s.senders)
		senders = append(senders, s.senders[j])
		sizes = append(sizes, s.sizes[j])
	}
	return s, seq, senders, sizes
}
