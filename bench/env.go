package main

import (
	"fmt"
	"io"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"

	"mpipredict/internal/buildinfo"
)

// printHeader prints the run's environment as comment lines. Runs whose
// host reference differs were made on hosts of different speed and are
// flagged, not compared.
func printHeader(w io.Writer, name string, p params) {
	fmt.Fprintf(w, "# bench workload=%s seed=%d seconds=%g trace=%t\n", name, p.seed, p.seconds.Seconds(), p.trace)
	fmt.Fprintf(w, "# go=%s GOMAXPROCS=%d nproc=%d build=%s\n",
		runtime.Version(), runtime.GOMAXPROCS(0), runtime.NumCPU(), buildinfo.Get())
	fmt.Fprintf(w, "# host-reference=%.1f ns/op (fixed integer-mix loop, median of %d batches)\n", hostReferenceNs(), hostRefBatches)
}

const (
	hostRefBatches = 5
	hostRefOps     = 1000
)

var hostRefSink uint64

// hostReferenceNs times the fixed host-reference loop of cmd/benchjson: a
// few thousand rounds of integer mixing per op, pure CPU and cache-local,
// so the number tracks the machine's single-thread speed and nothing
// about this repository's code.
func hostReferenceNs() float64 {
	batches := make([]float64, hostRefBatches)
	for b := range batches {
		start := time.Now()
		acc := uint64(0x9e3779b97f4a7c15)
		for i := 0; i < hostRefOps; i++ {
			for j := 0; j < 4096; j++ {
				acc = (acc ^ uint64(j)) * 1099511628211
				acc ^= acc >> 33
			}
		}
		hostRefSink = acc
		batches[b] = float64(time.Since(start).Nanoseconds()) / hostRefOps
	}
	return median(batches)
}

// maxRSSMiB is the process's peak resident set size (getrusage maxrss,
// which Linux reports in KiB).
func maxRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// memCounters is the part of runtime.MemStats the layer metrics use.
type memCounters struct {
	allocBytes uint64
	mallocs    uint64
	gcCycles   uint32
}

func readMem() memCounters {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return memCounters{allocBytes: ms.TotalAlloc, mallocs: ms.Mallocs, gcCycles: ms.NumGC}
}

// setRuntimeLayer reports the allocation and GC deltas of a measured
// phase of ops operations.
func setRuntimeLayer(rep *report, before, after memCounters, ops int) {
	if ops < 1 {
		ops = 1
	}
	rep.set("runtime.alloc_bytes_per_op", float64(after.allocBytes-before.allocBytes)/float64(ops), ops)
	rep.set("runtime.gc_cycles", float64(after.gcCycles-before.gcCycles), ops)
}

// percentile returns the p-th percentile (0..100) of ascending samples,
// interpolating linearly between the two nearest ranks.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := p / 100 * float64(len(sorted)-1)
	lo := int(pos)
	if lo+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	return sorted[lo] + (pos-float64(lo))*(sorted[lo+1]-sorted[lo])
}

func median(xs []float64) float64 { return percentile(sortedCopy(xs), 50) }

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// dist summarizes a latency sample.
type dist struct {
	n                  int
	p50, p90, p99, max float64
}

func summarize(xs []float64) dist {
	s := sortedCopy(xs)
	d := dist{n: len(s), p50: percentile(s, 50), p90: percentile(s, 90), p99: percentile(s, 99)}
	if len(s) > 0 {
		d.max = s[len(s)-1]
	}
	return d
}

// rateWindow is the window a closed-loop rate is measured over; a phase
// reports the median window, so a stall of the host moves one window, not
// the result.
const rateWindow = 500 * time.Millisecond

// rateMeter samples a growing count during a phase and keeps, for every
// whole window, the last sample taken before the window ended.
type rateMeter struct {
	start time.Time
	ends  []rateSample
	last  rateSample
}

type rateSample struct {
	at time.Time
	n  int64
}

// observe records that the count reached n at time now.
func (m *rateMeter) observe(now time.Time, n int64) {
	if m.last.at.IsZero() {
		m.last.at = m.start
	}
	for w := int(now.Sub(m.start) / rateWindow); len(m.ends) < w; {
		m.ends = append(m.ends, m.last)
	}
	m.last = rateSample{now, n}
}

// setRate reports the median per-second rate over the windows every
// meter completed, summing the meters window by window, and notes the
// spread of the windows. A window's rate is measured between the samples
// that close it and the window before, so it does not depend on where in
// a burst of acknowledgements the boundary fell. A phase shorter than one
// window reports its overall rate.
func setRate(rep *report, name string, scale float64, meters ...*rateMeter) float64 {
	windows := len(meters[0].ends)
	for _, m := range meters {
		windows = min(windows, len(m.ends))
	}
	if windows == 0 {
		rate := 0.0
		for _, m := range meters {
			rate += scale * float64(m.last.n) / m.last.at.Sub(m.start).Seconds()
		}
		rep.set(name, rate, 1)
		return rate
	}
	rates := make([]float64, windows)
	for _, m := range meters {
		prev := rateSample{m.start, 0}
		for w := 0; w < windows; w++ {
			cur := m.ends[w]
			if dt := cur.at.Sub(prev.at).Seconds(); dt > 0 {
				rates[w] += scale * float64(cur.n-prev.n) / dt
			}
			prev = cur
		}
	}
	d := summarize(rates)
	rep.set(name, d.p50, d.n)
	rep.note("%s over %d windows of %v: min=%.0f p50=%.0f max=%.0f", name, d.n, rateWindow, sortedCopy(rates)[0], d.p50, d.max)
	return d.p50
}

// setLatency reports a latency sample as the end-to-end p50 and p90; p99
// and the maximum are printed as diagnostics only.
func setLatency(rep *report, what string, d dist) {
	rep.set("latency_p50_ms", d.p50, d.n)
	rep.set("latency_p90_ms", d.p90, d.n)
	rep.note("%s latency: p99=%.4f ms max=%.4f ms (n=%d, diagnostic)", what, d.p99, d.max, d.n)
}

// timedSetups runs setup setupReps times, keeping the last environment
// and releasing the others, and reports the median set-up time.
func timedSetups[E any](rep *report, setup func() (E, error), release func(E)) (E, error) {
	var env E
	times := make([]float64, 0, setupReps)
	for i := 0; i < setupReps; i++ {
		if i > 0 {
			release(env)
			// Collect the released environment now, so its garbage is
			// not charged to the next set-up.
			runtime.GC()
		}
		start := time.Now()
		var err error
		if env, err = setup(); err != nil {
			return env, err
		}
		times = append(times, time.Since(start).Seconds())
	}
	rep.set("setup_s", median(times), len(times))
	runtime.GC() // measure from a collected heap
	return env, nil
}

// forEach runs fn(0..n-1) on at most workers goroutines and returns the
// first error by index.
func forEach(n, workers int, fn func(i int) error) error {
	errs := make([]error, n)
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < min(workers, n); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				errs[i] = fn(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
