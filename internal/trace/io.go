package trace

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// header is the first line of a JSONL trace file; it carries the run
// metadata so the per-record lines only need the event fields.
type header struct {
	Format string `json:"format"`
	App    string `json:"app"`
	Procs  int    `json:"procs"`
}

// formatName identifies the on-disk format; bump it if Record changes
// incompatibly.
const formatName = "mpipredict-trace-v1"

// JSONLWriter streams a trace to an io.Writer as one JSON object per
// line, record by record — the streaming sibling of WriteJSONL for
// producers that never hold a whole trace in memory (the block pipeline,
// tracegen -stream). The header is written by NewJSONLWriter; Close
// flushes but does not close the underlying writer.
type JSONLWriter struct {
	bw   *bufio.Writer
	enc  *json.Encoder
	seqs map[streamKey]int64
}

// NewJSONLWriter writes the header line for a trace with the given
// metadata and returns a writer ready to accept records.
func NewJSONLWriter(w io.Writer, app string, procs int) (*JSONLWriter, error) {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	if err := enc.Encode(header{Format: formatName, App: app, Procs: procs}); err != nil {
		return nil, fmt.Errorf("trace: writing header: %w", err)
	}
	return &JSONLWriter{bw: bw, enc: enc, seqs: make(map[streamKey]int64)}, nil
}

// WriteRecord appends one record line. The record's Seq is reassigned
// from per-(receiver, level) stream order — the same numbering Append
// and the readers produce — so block-pipeline producers (whose blocks
// carry no Seq) and whole-trace writers emit identical lines.
func (w *JSONLWriter) WriteRecord(r Record) error {
	k := streamKey{r.Receiver, r.Level}
	r.Seq = w.seqs[k]
	w.seqs[k]++
	return w.enc.Encode(&r)
}

// Close flushes the buffer. It does not close the underlying writer.
func (w *JSONLWriter) Close() error { return w.bw.Flush() }

// WriteJSONL streams the trace to w as one JSON object per line: a header
// line followed by one line per record. The format is deliberately
// trivial so traces can be inspected, grepped and post-processed with
// standard tools.
func WriteJSONL(w io.Writer, t *Trace) error {
	jw, err := NewJSONLWriter(w, t.App, t.Procs)
	if err != nil {
		return err
	}
	for i := range t.Records {
		if err := jw.WriteRecord(t.Records[i]); err != nil {
			return fmt.Errorf("trace: writing record %d: %w", i, err)
		}
	}
	return jw.Close()
}

// JSONLReader streams a trace written by WriteJSONL from an io.Reader, one
// record at a time. The header is consumed by NewJSONLReader; Read
// returns records until io.EOF.
type JSONLReader struct {
	dec   *json.Decoder
	app   string
	procs int
	count int
}

// NewJSONLReader consumes the header line and returns a reader positioned
// at the first record.
func NewJSONLReader(r io.Reader) (*JSONLReader, error) {
	dec := json.NewDecoder(bufio.NewReader(r))
	var h header
	if err := dec.Decode(&h); err != nil {
		return nil, fmt.Errorf("trace: reading header: %w", err)
	}
	if h.Format != formatName {
		return nil, fmt.Errorf("trace: unsupported format %q (want %q)", h.Format, formatName)
	}
	return &JSONLReader{dec: dec, app: h.App, procs: h.Procs}, nil
}

// App returns the workload name from the header.
func (r *JSONLReader) App() string { return r.app }

// Procs returns the rank count from the header.
func (r *JSONLReader) Procs() int { return r.procs }

// Read returns the next record, or io.EOF after the last one.
func (r *JSONLReader) Read() (Record, error) {
	var rec Record
	if err := r.dec.Decode(&rec); err != nil {
		if err == io.EOF {
			return Record{}, io.EOF
		}
		return Record{}, fmt.Errorf("trace: reading record %d: %w", r.count, err)
	}
	r.count++
	return rec, nil
}

// SaveFile writes the trace to the named file, creating or truncating it.
func SaveFile(path string, t *Trace) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("trace: creating %s: %w", path, err)
	}
	if err := WriteJSONL(f, t); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
