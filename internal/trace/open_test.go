package trace

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// fakeFormat is a registered format for the sniffing tests: its opener
// ignores the file body and replays fixed records.
type fakeFormat struct {
	records []Record
	closed  *bool
}

func (f *fakeFormat) App() string { return "fake" }
func (f *fakeFormat) Procs() int  { return 3 }
func (f *fakeFormat) Read() (Record, error) {
	if len(f.records) == 0 {
		return Record{}, io.EOF
	}
	rec := f.records[0]
	f.records = f.records[1:]
	return rec, nil
}
func (f *fakeFormat) Close() error { *f.closed = true; return nil }

var (
	fakeMagic     = [4]byte{'T', 'S', 'T', 0x01}
	fakeOpenErr   = [4]byte{'T', 'S', 'T', 0x02}
	errFakeOpener = errors.New("fake opener failed")
	fakeClosed    bool
)

func init() {
	RegisterFormat(fakeMagic, func(path string) (FormatReader, error) {
		fakeClosed = false
		return &fakeFormat{records: sampleTrace().Records, closed: &fakeClosed}, nil
	})
	RegisterFormat(fakeOpenErr, func(path string) (FormatReader, error) { return nil, errFakeOpener })
}

func writeFile(t *testing.T, name string, data []byte) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestOpenDelegatesToRegisteredFormat pins the sniffing contract: a file
// whose first four bytes match a registered magic is handed to that
// format's opener, and File forwards every call to its reader.
func TestOpenDelegatesToRegisteredFormat(t *testing.T) {
	path := writeFile(t, "t.fake", append(fakeMagic[:], "body"...))
	of, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if of.App() != "fake" || of.Procs() != 3 {
		t.Errorf("header = (%q, %d), want (fake, 3)", of.App(), of.Procs())
	}
	if err := of.Close(); err != nil || !fakeClosed {
		t.Errorf("Close = %v, reader closed = %v", err, fakeClosed)
	}

	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	want := sampleTrace()
	if got.App != "fake" || !reflect.DeepEqual(got.Records, want.Records) {
		t.Errorf("Load through the registered format = %s with %d records, want fake with %d", got.App, got.Len(), want.Len())
	}

	if _, err := Open(writeFile(t, "t.bad", append(fakeOpenErr[:], "body"...))); !errors.Is(err, errFakeOpener) {
		t.Errorf("opener error = %v, want it propagated", err)
	}
}

// TestOpenFallsBackToJSONL covers the built-in format: anything without
// a registered magic — including files shorter than a magic — is read as
// JSONL, and a file that is not JSONL either fails with its path named.
func TestOpenFallsBackToJSONL(t *testing.T) {
	var jsonl strings.Builder
	if err := WriteJSONL(&jsonl, sampleTrace()); err != nil {
		t.Fatal(err)
	}
	path := writeFile(t, "t.jsonl", []byte(jsonl.String()))
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Records, sampleTrace().Records) {
		t.Error("JSONL records differ after Open")
	}

	for name, data := range map[string]string{
		"short":   "{}",
		"empty":   "",
		"garbage": "not a trace at all",
	} {
		path := writeFile(t, name, []byte(data))
		if _, err := Open(path); err == nil || !strings.Contains(err.Error(), path) {
			t.Errorf("%s: Open = %v, want an error naming %s", name, err, path)
		}
	}
	if _, err := Open(filepath.Join(t.TempDir(), "missing")); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("missing file: Open = %v, want ErrNotExist", err)
	}
}
