package benchdefs

import (
	"reflect"
	"testing"
)

// TestStoreBenchScanMatchesBaseline pins what the store benchmark pair
// actually compares: the parallel projected scan and the
// load-then-iterate baseline must return the identical top-K ranking
// over the identical fixture, or the speedup ratio would be meaningless.
func TestStoreBenchScanMatchesBaseline(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the 1M-event store fixture")
	}
	env, err := StoreBench()
	if err != nil {
		t.Fatal(err)
	}
	if env.Events < 1_000_000 {
		t.Fatalf("fixture holds %d events, the headline claims ≥1M", env.Events)
	}
	scan, err := env.ScanTopK(0)
	if err != nil {
		t.Fatal(err)
	}
	base, err := env.LoadIterateTopK()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(scan, base) {
		t.Errorf("scan top-K %+v differs from load-iterate baseline %+v", scan, base)
	}
	if n, err := env.RecordStream(); err != nil || n != env.Events {
		t.Errorf("record stream read %d records (%v), want %d", n, err, env.Events)
	}
	sum, err := env.ScanProjectedSizeSum(0)
	if err != nil {
		t.Fatal(err)
	}
	if sum <= 0 {
		t.Errorf("projected size sum = %d, want positive", sum)
	}
}
