package trace

// trace.Open is the single place that knows how to tell the on-disk
// trace formats apart. Every consumer that accepts "a trace file" — the
// evaluation replays, the serve ingester, all CLIs — goes through it
// (directly or via Load), so the magic sniffing logic exists exactly
// once. JSONL, the human-readable form, is built in; binary formats hook
// in via RegisterFormat (the columnar .mpts store in internal/tracestore
// does) without this package importing them.

import (
	"bufio"
	"fmt"
	"io"
	"os"
)

// FormatReader is the record-at-a-time surface a trace format exposes
// through Open: the same contract File itself offers. Read returns
// events in stream order until io.EOF; Close releases the underlying
// file.
type FormatReader interface {
	App() string
	Procs() int
	Read() (Record, error)
	Close() error
}

// registeredFormat is one externally owned trace format: its 4-byte file
// magic and an opener that takes over the path when the magic matches.
type registeredFormat struct {
	magic [4]byte
	open  func(path string) (FormatReader, error)
}

var formats []registeredFormat

// RegisterFormat hooks a trace format into Open's sniffing: when the
// first four bytes of a file equal magic, Open closes its handle and
// delegates to open. Call it from an init function only; the registry is
// not synchronized.
func RegisterFormat(magic [4]byte, open func(path string) (FormatReader, error)) {
	formats = append(formats, registeredFormat{magic: magic, open: open})
}

// File is an open trace file being read record by record, in any
// supported format. It is the streaming sibling of Load: App and Procs
// come from the file header, Read returns events in stream order until
// io.EOF, and nothing beyond the format's read buffer is held in memory.
type File struct {
	r FormatReader
}

// jsonlFile is a JSONL reader together with the file it owns.
type jsonlFile struct {
	*JSONLReader
	f *os.File
}

func (j jsonlFile) Close() error { return j.f.Close() }

// Open opens the named trace file, sniffs the leading magic to pick the
// format, consumes the header and returns a File positioned at the first
// record. The caller must Close it. Registered formats (.mpts) reopen
// the path through their own reader, which then owns the file handle;
// anything else is read as JSONL.
func Open(path string) (*File, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("trace: opening %s: %w", path, err)
	}
	br := bufio.NewReader(f)
	if head, err := br.Peek(4); err == nil {
		for _, rf := range formats {
			if [4]byte(head) == rf.magic {
				f.Close()
				r, err := rf.open(path)
				if err != nil {
					return nil, err
				}
				return &File{r: r}, nil
			}
		}
	}
	jr, err := NewJSONLReader(br)
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("trace: reading %s: %w", path, err)
	}
	return &File{r: jsonlFile{jr, f}}, nil
}

// App returns the workload name from the file header.
func (of *File) App() string { return of.r.App() }

// Procs returns the rank count from the file header.
func (of *File) Procs() int { return of.r.Procs() }

// Read returns the next record, or io.EOF after the last one.
func (of *File) Read() (Record, error) { return of.r.Read() }

// Close closes the underlying file.
func (of *File) Close() error { return of.r.Close() }

// Load reads a trace from the named file in any supported format,
// materializing it in memory. Streaming consumers use Open instead.
func Load(path string) (*Trace, error) {
	of, err := Open(path)
	if err != nil {
		return nil, err
	}
	defer of.Close()
	t := New(of.App(), of.Procs())
	for {
		rec, err := of.Read()
		if err == io.EOF {
			return t, nil
		}
		if err != nil {
			return nil, err
		}
		t.Append(rec)
	}
}
