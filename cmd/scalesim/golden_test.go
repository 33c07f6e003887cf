package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "regenerate golden files under testdata/")

// TestReplayGoldenFromCorpus replays the committed bt.4 corpus trace
// through every mechanism with every registered strategy and pins the
// reports against a golden file, so a change to how the replays reach
// their strategies cannot move a single number.
func TestReplayGoldenFromCorpus(t *testing.T) {
	corpus := filepath.Join("..", "..", "testdata", "corpus", "bt.4.mpts")
	var got strings.Builder
	for _, s := range []string{"dpd", "lastvalue", "markov1", "meta"} {
		for _, mode := range []string{"memory", "credits", "protocol"} {
			stdout, _, err := runCLI(t, "-trace", corpus, "-predictor", s, "-mode", mode)
			if err != nil {
				t.Fatalf("-predictor %s -mode %s: %v", s, mode, err)
			}
			fmt.Fprintf(&got, "=== -predictor %s -mode %s\n%s", s, mode, stdout)
		}
	}
	golden := filepath.Join("testdata", "replay_bt4_strategies.golden")
	if *update {
		if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden file (regenerate with -update): %v", err)
	}
	if got.String() != string(want) {
		t.Errorf("replay output drifted from the golden file\n--- got ---\n%s--- want ---\n%s", got.String(), want)
	}
}
