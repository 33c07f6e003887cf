package stream

import (
	"io"

	"mpipredict/internal/trace"
	// Registers the .mpts store with trace.Open, so every file source
	// reads the repository's binary trace format.
	_ "mpipredict/internal/tracestore"
)

// FileSource streams a trace file (a .mpts store or JSONL, sniffed by
// trace.Open) block by block. It holds the open file; callers Close it —
// Copy/Gather and the evalx/serve consumers do so through stream.Close.
type FileSource struct {
	meta
	f    *trace.File
	done bool
}

// OpenFile opens the named trace file as a block source.
func OpenFile(path string) (*FileSource, error) {
	f, err := trace.Open(path)
	if err != nil {
		return nil, err
	}
	return &FileSource{
		meta: meta{md: Metadata{App: f.App(), Procs: f.Procs()}, haveM: true},
		f:    f,
	}, nil
}

// FileOpener returns an OpenFunc that opens the named file afresh on
// every call — the multi-pass handle evalx.EvaluateSource consumes.
func FileOpener(path string) OpenFunc {
	return func() (Source, error) { return OpenFile(path) }
}

// Next implements Source.
func (s *FileSource) Next(b *EventBlock) error {
	b.Reset()
	if s.done {
		return io.EOF
	}
	for b.Len() < BlockLen {
		rec, err := s.f.Read()
		if err == io.EOF {
			s.done = true
			if b.Len() == 0 {
				return io.EOF
			}
			return nil
		}
		if err != nil {
			return err
		}
		b.Append(rec)
	}
	return nil
}

// Close closes the underlying file.
func (s *FileSource) Close() error { return s.f.Close() }
