package main

import (
	"os"
	"path/filepath"
	"testing"
)

// TestStreamedStoreExportByteIdentical extends the byte-identity
// guarantee to the columnar format: -stream (block pipeline, constant
// memory) writes the byte-identical .mpts that the in-memory path does,
// for both the synthetic generator and a simulated workload.
func TestStreamedStoreExportByteIdentical(t *testing.T) {
	dir := t.TempDir()
	for _, tt := range []struct {
		name string
		args []string
	}{
		{name: "synthetic", args: []string{"-events", "500", "-period", "7", "-swap", "0.1", "-seed", "5"}},
		{name: "workload", args: []string{"-workload", "bt", "-procs", "4", "-iterations", "2", "-seed", "3"}},
	} {
		t.Run(tt.name, func(t *testing.T) {
			mem := filepath.Join(dir, tt.name+"-mem.mpts")
			str := filepath.Join(dir, tt.name+"-str.mpts")
			if _, _, err := runCLI(t, append(tt.args, "-o", mem)...); err != nil {
				t.Fatal(err)
			}
			if _, _, err := runCLI(t, append(tt.args, "-stream", "-o", str)...); err != nil {
				t.Fatal(err)
			}
			a, err := os.ReadFile(mem)
			if err != nil {
				t.Fatal(err)
			}
			b, err := os.ReadFile(str)
			if err != nil {
				t.Fatal(err)
			}
			if string(a) != string(b) {
				t.Error("streamed store export differs from the in-memory one")
			}
			// Exporting twice must be byte-deterministic as well.
			again := filepath.Join(dir, tt.name+"-again.mpts")
			if _, _, err := runCLI(t, append(tt.args, "-o", again)...); err != nil {
				t.Fatal(err)
			}
			c, err := os.ReadFile(again)
			if err != nil {
				t.Fatal(err)
			}
			if string(a) != string(c) {
				t.Error("two identical exports produced different bytes")
			}
		})
	}
}
