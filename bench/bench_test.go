package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"
)

// testParams shrinks every workload so that the whole file runs in a few
// seconds: two-iteration grids, one seed, one tenant, a small store and
// short phases and replays.
func testParams(trace bool) params {
	return params{
		seed:    1,
		seconds: 400 * time.Millisecond,
		trace:   trace,
		workers: runtime.NumCPU(),
		sizes: sizes{
			iterations:   2,
			dpdSeeds:     1,
			gwTenants:    1,
			gwWarmup:     100 * time.Millisecond,
			storeEvents:  4096,
			replayFrames: 50,
			replaySteps:  20,
			allocSteps:   5,
		},
	}
}

// benchmarkFile is the part of BENCHMARK.json the program must agree with.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name  string  `json:"name"`
		Unit  string  `json:"unit"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

func TestBenchmarkFileMatchesProgram(t *testing.T) {
	bf := readBenchmarkFile(t)
	if len(bf.Workloads) != len(benchWorkloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program runs %d", len(bf.Workloads), len(benchWorkloads))
	}
	for i, w := range bf.Workloads {
		if w.Name != benchWorkloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json says %q, the program %q", i, w.Name, benchWorkloads[i].name)
		}
	}
	var e2e, layers []metricDef
	for _, m := range bf.EndToEnd {
		e2e = append(e2e, metricDef{m.Name, m.Unit})
	}
	for _, m := range bf.PerLayer {
		layers = append(layers, metricDef{m.Name, m.Unit})
	}
	if !equalDefs(e2e, endToEnd) {
		t.Errorf("end-to-end metrics differ:\nBENCHMARK.json %v\nprogram        %v", e2e, endToEnd)
	}
	if !equalDefs(layers, perLayer) {
		t.Errorf("per-layer metrics differ:\nBENCHMARK.json %v\nprogram        %v", layers, perLayer)
	}
}

func equalDefs(a, b []metricDef) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// waitGoroutines waits for the goroutine count to fall back to base:
// servers and transports finish their connection goroutines shortly after
// they are closed.
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines left after the workload, %d before:\n%s",
				runtime.NumGoroutine(), base, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestWorkloads(t *testing.T) {
	bf := readBenchmarkFile(t)
	for _, w := range benchWorkloads {
		for _, trace := range []bool{false, true} {
			name := w.name
			if trace {
				name += "/trace"
			}
			t.Run(name, func(t *testing.T) {
				base := runtime.NumGoroutine()
				rep, err := w.run(context.Background(), testParams(trace))
				if err != nil {
					t.Fatal(err)
				}
				waitGoroutines(t, base)

				res, err := rep.result(trace)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("correct=%v attempted=%d failed=%d problems=%v", res.Correct, res.Attempted, res.Failed, rep.problems)
				}
				if trace {
					for _, m := range bf.PerLayer {
						checkMetric(t, res, m.Name, m.Unit, false)
					}
					checkSpans(t, rep.spans)
				} else {
					for _, m := range bf.EndToEnd {
						checkMetric(t, res, m.Name, m.Unit, true)
					}
				}

				var out bytes.Buffer
				rep.printDiagnostics(&out, trace)
				for _, d := range endToEnd {
					if !trace && !strings.Contains(out.String(), d.name) {
						t.Errorf("diagnostics do not print %s", d.name)
					}
				}
			})
		}
	}
}

func checkMetric(t *testing.T, res result, name, unit string, positive bool) {
	t.Helper()
	m, ok := res.Metrics[name]
	switch {
	case !ok:
		t.Errorf("metric %s is not printed", name)
	case m.Unit != unit:
		t.Errorf("metric %s is printed in %q, BENCHMARK.json says %q", name, m.Unit, unit)
	case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
		t.Errorf("metric %s is %v", name, m.Value)
	case positive && m.Value <= 0:
		t.Errorf("end-to-end metric %s is %v, want > 0", name, m.Value)
	}
}

// checkSpans checks that the recorded spans nest and that every layer's
// self time is at least zero.
func checkSpans(t *testing.T, spans []Span) {
	t.Helper()
	if len(spans) == 0 {
		t.Fatal("the traced replay recorded no spans")
	}
	if err := checkNesting(spans); err != nil {
		t.Fatal(err)
	}
	for name, l := range totals(spans) {
		if l.self < 0 {
			t.Errorf("layer %s has self time %.0f ns over %d spans", name, l.self, l.spans)
		}
	}
}

func TestCheckNestingRejectsEscapingChild(t *testing.T) {
	tr := newTracer(true)
	root := tr.begin("root", -1, 0, 0)
	child := tr.begin("child", root, 0, 1)
	tr.end(child)
	tr.end(root)
	if err := checkNesting(tr.spans); err != nil {
		t.Fatalf("well-nested spans rejected: %v", err)
	}
	tr.spans[child].End = tr.spans[root].End + 1
	if checkNesting(tr.spans) == nil {
		t.Fatal("a child ending after its parent was accepted")
	}
	tr.spans[child].Shadow = true
	if err := checkNesting(tr.spans); err != nil {
		t.Fatalf("a shadow child outside its parent was rejected: %v", err)
	}
}

func TestTotalsSelfTime(t *testing.T) {
	spans := []Span{
		{ID: 0, Parent: -1, Name: "a", Start: 0, End: 100},
		{ID: 1, Parent: 0, Name: "b", Calls: 4, Start: 10, End: 40},
		{ID: 2, Parent: 0, Name: "b", Calls: 4, Start: 50, End: 70},
		{ID: 3, Parent: 2, Name: "c", Shadow: true, Start: 80, End: 85},
	}
	tt := totals(spans)
	if a := tt["a"]; a.dur != 100 || a.self != 50 {
		t.Errorf("a: dur %v self %v, want 100 and 50", a.dur, a.self)
	}
	if b := tt["b"]; b.dur != 50 || b.self != 45 || b.perSpan() != 25 || b.perCall() != 6.25 {
		t.Errorf("b: dur %v self %v per span %v per call %v", b.dur, b.self, b.perSpan(), b.perCall())
	}
}

func TestPercentile(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		p    float64
		want float64
	}{
		{nil, 50, 0},
		{[]float64{7}, 90, 7},
		{[]float64{1, 2, 3, 4}, 0, 1},
		{[]float64{1, 2, 3, 4}, 50, 2.5},
		{[]float64{1, 2, 3, 4}, 90, 3.7},
		{[]float64{1, 2, 3, 4}, 100, 4},
		{[]float64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100, 110}, 90, 100},
		{[]float64{1, 1, 2, 3, 5, 8, 13, 21, 34, 55}, 50, 6.5},
	} {
		if got := percentile(c.xs, c.p); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("percentile(%v, %v) = %v, want %v", c.xs, c.p, got, c.want)
		}
	}
	d := summarize([]float64{5, 1, 4, 2, 3})
	if d.n != 5 || d.p50 != 3 || d.max != 5 || math.Abs(d.p90-4.6) > 1e-12 {
		t.Errorf("summarize = %+v", d)
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "store-scan", "--seconds", "0"},
		{"--workload", "store-scan", "--trace", "2"},
		{"--workload", "store-scan", "extra"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 2 || stdout.Len() != 0 {
			t.Errorf("run(%q) = %d with stdout %q, want 2 and nothing printed", args, code, stdout.String())
		}
	}
}
