package serve

import (
	"bytes"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"mpipredict/internal/core"
	"mpipredict/internal/strategy"
)

// sampleSessions builds a deterministic set of session snapshots covering
// locked, learning and fresh predictor states.
func sampleSessions(t testing.TB) []SessionSnapshot {
	t.Helper()
	r := NewRegistry(Config{})
	feedPeriodic(r, "bt.4", "r1/logical", 6, 300)   // locked
	feedPeriodic(r, "bt.4", "r1/physical", 12, 250) // locked, longer period
	for i := 0; i < 40; i++ {                       // learning, aperiodic
		observe(r, "cg.8", "r3/logical", "", Event{Sender: int64(i), Size: int64(i * i)})
	}
	observe(r, "is.4", "r0/logical", "", Event{Sender: 2, Size: 1 << 20}) // nearly fresh
	return r.SnapshotSessions()
}

// emptyDPDSessions is one dpd session whose payloads are empty
// predictors with the given window.
func emptyDPDSessions(window int) []SessionSnapshot {
	cfg := core.DefaultConfig()
	cfg.WindowSize = window
	payload := strategy.EncodeDPDState(core.PredictorSnapshot{Config: cfg})
	return []SessionSnapshot{{Tenant: "t", Stream: "s", Strategy: "dpd", Sender: payload, Size: payload}}
}

// hugeWindowSessions is a well-formed snapshot whose predictors have a
// window of 1<<22 samples; before WindowSize was capped, a restore of it
// allocated 84 MB.
func hugeWindowSessions() []SessionSnapshot { return emptyDPDSessions(1 << 22) }

// TestReadSnapshotRefusesHugeWindow checks that the crafted payload is
// refused by the dpd strategy's Restore and so by ReadSnapshot, which
// trial-restores every session, while the same session with the default
// window reads back.
func TestReadSnapshotRefusesHugeWindow(t *testing.T) {
	if _, err := ReadSnapshot(bytes.NewReader(encodeSnapshot(t, emptyDPDSessions(core.DefaultConfig().WindowSize)))); err != nil {
		t.Fatalf("ReadSnapshot refused an empty default dpd session: %v", err)
	}
	sessions := hugeWindowSessions()
	if _, err := strategy.Restore("dpd", sessions[0].Sender); !errors.Is(err, strategy.ErrBadPayload) {
		t.Fatalf("dpd Restore of a 1<<22 window: %v, want ErrBadPayload", err)
	}
	if _, err := ReadSnapshot(bytes.NewReader(encodeSnapshot(t, sessions))); err == nil {
		t.Fatal("ReadSnapshot accepted a session with a 1<<22 window")
	}
}

func encodeSnapshot(t testing.TB, sessions []SessionSnapshot) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteSnapshot(&buf, sessions); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestSnapshotCodecRoundTrip(t *testing.T) {
	want := sampleSessions(t)
	data := encodeSnapshot(t, want)
	got, err := ReadSnapshot(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, want)
	}
}

func TestSnapshotCodecEmpty(t *testing.T) {
	data := encodeSnapshot(t, nil)
	got, err := ReadSnapshot(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("empty snapshot decoded to %d sessions", len(got))
	}
}

// TestSnapshotCodecRoundTripProperty round-trips randomly generated
// predictor states driven through real observation streams, the snapshot
// analogue of the trace codec's property test.
func TestSnapshotCodecRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 25; trial++ {
		r := NewRegistry(Config{})
		sessions := 1 + rng.Intn(5)
		for s := 0; s < sessions; s++ {
			tenant := string(rune('a' + rng.Intn(3)))
			stream := string(rune('x' + rng.Intn(3)))
			n := rng.Intn(500)
			period := 1 + rng.Intn(20)
			noise := rng.Intn(4) == 0
			for i := 0; i < n; i++ {
				ev := Event{Sender: int64(i % period), Size: int64((i * 37) % period)}
				if noise && rng.Intn(8) == 0 {
					ev.Sender = int64(rng.Intn(period + 3))
				}
				observe(r, tenant, stream, "", ev)
			}
		}
		want := r.SnapshotSessions()
		data := encodeSnapshot(t, want)
		got, err := ReadSnapshot(bytes.NewReader(data))
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: round trip mismatch", trial)
		}
		// Stability: re-encoding the decoded sessions must be
		// byte-identical (the warm-restart contract).
		if again := encodeSnapshot(t, got); !bytes.Equal(again, data) {
			t.Fatalf("trial %d: re-encode is not byte-identical", trial)
		}
	}
}

// TestSnapshotCodecRejectsEveryTruncation mirrors the trace codec suite:
// every proper prefix of a valid file must be rejected.
func TestSnapshotCodecRejectsEveryTruncation(t *testing.T) {
	data := encodeSnapshot(t, sampleSessions(t))
	for n := 0; n < len(data); n++ {
		if _, err := ReadSnapshot(bytes.NewReader(data[:n])); err == nil {
			t.Fatalf("truncation to %d of %d bytes was accepted", n, len(data))
		} else if !errors.Is(err, ErrCorruptSnapshot) {
			t.Fatalf("truncation to %d bytes: error %v does not wrap ErrCorruptSnapshot", n, err)
		}
	}
}

// TestSnapshotCodecRejectsEveryBitFlip flips every bit of a valid file and
// requires the reader to reject (or, never, silently accept) each one.
func TestSnapshotCodecRejectsEveryBitFlip(t *testing.T) {
	data := encodeSnapshot(t, sampleSessions(t))
	mutated := make([]byte, len(data))
	for i := 0; i < len(data); i++ {
		for bit := 0; bit < 8; bit++ {
			copy(mutated, data)
			mutated[i] ^= 1 << bit
			if _, err := ReadSnapshot(bytes.NewReader(mutated)); err == nil {
				t.Fatalf("bit flip at byte %d bit %d was accepted", i, bit)
			}
		}
	}
}

func TestSnapshotCodecRejectsTrailingGarbage(t *testing.T) {
	data := encodeSnapshot(t, sampleSessions(t))
	if _, err := ReadSnapshot(bytes.NewReader(append(data, 0x00))); err == nil {
		t.Fatal("trailing byte was accepted")
	}
}

// TestSnapshotCodecRejectsWrongVersion covers future versions and the
// retired versions 1 (DPD-only) and 2 (no batch sequence) alike: only
// the current version is read.
func TestSnapshotCodecRejectsWrongVersion(t *testing.T) {
	for _, version := range []byte{1, 2, 99} {
		data := encodeSnapshot(t, sampleSessions(t))
		data[4] = version // version byte follows the 4-byte magic
		_, err := ReadSnapshot(bytes.NewReader(data))
		if !errors.Is(err, ErrCorruptSnapshot) || !strings.Contains(err.Error(), "unsupported version") {
			t.Fatalf("version %d: got %v, want an unsupported-version ErrCorruptSnapshot", version, err)
		}
	}
}

func TestSnapshotCodecRejectsDuplicateSessions(t *testing.T) {
	sessions := sampleSessions(t)[:1]
	dup := append(sessions, sessions[0])
	var buf bytes.Buffer
	if err := WriteSnapshot(&buf, dup); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadSnapshot(bytes.NewReader(buf.Bytes())); !errors.Is(err, ErrCorruptSnapshot) {
		t.Fatalf("duplicate session keys: got %v, want ErrCorruptSnapshot", err)
	}
}

func TestSaveLoadSnapshotFile(t *testing.T) {
	want := sampleSessions(t)
	path := filepath.Join(t.TempDir(), "state.mps")
	if err := SaveSnapshotFile(path, want); err != nil {
		t.Fatal(err)
	}
	got, err := LoadSnapshotFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("file round trip mismatch")
	}
	// Atomicity: the directory must hold only the snapshot, no temp debris.
	entries, err := os.ReadDir(filepath.Dir(path))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("snapshot dir holds %d entries, want just the snapshot", len(entries))
	}
}

func TestSaveSnapshotFileReplacesAtomically(t *testing.T) {
	path := filepath.Join(t.TempDir(), "state.mps")
	if err := SaveSnapshotFile(path, nil); err != nil {
		t.Fatal(err)
	}
	want := sampleSessions(t)
	if err := SaveSnapshotFile(path, want); err != nil {
		t.Fatal(err)
	}
	got, err := LoadSnapshotFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("replacement lost sessions: got %d, want %d", len(got), len(want))
	}
}

func TestLoadSnapshotFileMissing(t *testing.T) {
	if _, err := LoadSnapshotFile(filepath.Join(t.TempDir(), "absent.mps")); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("missing file: got %v, want fs.ErrNotExist", err)
	}
}

// FuzzSnapshotCodec drives the decoder with arbitrary bytes: it must never
// panic, and any input it accepts must re-encode to a byte-identical file
// (the decode/encode fixpoint that makes warm restarts stable).
func FuzzSnapshotCodec(f *testing.F) {
	f.Add(encodeSnapshot(f, nil))
	f.Add(encodeSnapshot(f, sampleSessions(f)))
	short := sampleSessions(f)[:1]
	f.Add(encodeSnapshot(f, short))
	f.Add(encodeSnapshot(f, hugeWindowSessions()))
	f.Add([]byte("MPS\x01"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		sessions, err := ReadSnapshot(bytes.NewReader(data))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := WriteSnapshot(&buf, sessions); err != nil {
			t.Fatalf("re-encoding accepted input failed: %v", err)
		}
		// Current-version files re-encode byte-identically (the
		// warm-restart fixpoint); accepted legacy version-1/2 files come
		// back as version 3, so for those the fixpoint is checked one
		// conversion later: read(write(read(legacy))) must equal
		// read(legacy) and the version-3 bytes must be a fixpoint
		// themselves.
		if len(data) > 4 && data[4] == SnapshotVersion {
			if !bytes.Equal(buf.Bytes(), data) {
				t.Fatalf("accepted input does not re-encode identically")
			}
		} else {
			again, err := ReadSnapshot(bytes.NewReader(buf.Bytes()))
			if err != nil {
				t.Fatalf("re-encoded legacy snapshot does not read back: %v", err)
			}
			if !reflect.DeepEqual(again, sessions) {
				t.Fatalf("legacy snapshot changed across a re-encode cycle")
			}
			var fix bytes.Buffer
			if err := WriteSnapshot(&fix, again); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(fix.Bytes(), buf.Bytes()) {
				t.Fatalf("converted legacy snapshot is not a re-encode fixpoint")
			}
		}
		// Every accepted session must restore into a working strategy.
		for _, s := range sessions {
			if _, err := strategy.Restore(s.Strategy, s.Sender); err != nil {
				t.Fatalf("accepted sender state does not restore: %v", err)
			}
			if _, err := strategy.Restore(s.Strategy, s.Size); err != nil {
				t.Fatalf("accepted size state does not restore: %v", err)
			}
		}
	})
}

// TestWriteSnapshotRejectsEmptyKeys mirrors the reader's validation on
// the write side: producing a file the reader would call corrupt helps
// nobody (a library user can create empty-key sessions directly on a
// Registry; the HTTP layer cannot).
func TestWriteSnapshotRejectsEmptyKeys(t *testing.T) {
	r := NewRegistry(Config{})
	observe(r, "", "s", "", Event{Sender: 1, Size: 2})
	var buf bytes.Buffer
	if err := WriteSnapshot(&buf, r.SnapshotSessions()); err == nil {
		t.Fatal("WriteSnapshot accepted an empty session key")
	}
}

// TestSnapshotLastSeqRoundTrip pins the crash-recovery half of the
// idempotency contract: the last applied batch sequence rides the
// snapshot file and a registry restore, so re-delivered batches are
// still recognized as duplicates after a warm restart.
func TestSnapshotLastSeqRoundTrip(t *testing.T) {
	r := NewRegistry(Config{})
	for seq := int64(1); seq <= 7; seq++ {
		if _, _, err := r.ObserveBlockSeq("bt.4", "r1/logical", "", seq,
			[]int64{seq % 3}, []int64{100 * seq}); err != nil {
			t.Fatal(err)
		}
	}
	want := r.SnapshotSessions()
	if len(want) != 1 || want[0].LastSeq != 7 {
		t.Fatalf("snapshot = %+v, want one session with LastSeq 7", want)
	}
	data := encodeSnapshot(t, want)
	got, err := ReadSnapshot(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("LastSeq round trip mismatch")
	}
	// Restore into a fresh registry: a replay of an already applied batch
	// must be dropped, and the re-snapshot must be byte-identical.
	fresh := NewRegistry(Config{})
	if err := fresh.RestoreSessions(got); err != nil {
		t.Fatal(err)
	}
	total, dup, err := fresh.ObserveBlockSeq("bt.4", "r1/logical", "", 7, []int64{1}, []int64{700})
	if err != nil {
		t.Fatal(err)
	}
	if !dup {
		t.Fatal("restored registry re-applied an already observed batch")
	}
	if total != want[0].Observed {
		t.Fatalf("duplicate drop reported total %d, want %d", total, want[0].Observed)
	}
	if again := encodeSnapshot(t, fresh.SnapshotSessions()); !bytes.Equal(again, data) {
		t.Fatal("restore + duplicate replay + snapshot is not byte-identical")
	}
}

func TestWriteSnapshotRejectsNegativeLastSeq(t *testing.T) {
	sessions := sampleSessions(t)[:1]
	sessions[0].LastSeq = -1
	var buf bytes.Buffer
	if err := WriteSnapshot(&buf, sessions); err == nil {
		t.Fatal("WriteSnapshot accepted a negative batch sequence")
	}
}

// heterogeneousSessions builds a registry hosting one locked/warmed
// session per registered strategy plus a DPD session, snapshots it, and
// returns the sorted snapshots.
func heterogeneousSessions(t testing.TB) []SessionSnapshot {
	t.Helper()
	r := NewRegistry(Config{})
	for i, name := range strategy.Names() {
		stream := "r" + string(rune('0'+i)) + "/logical"
		for j := 0; j < 300; j++ {
			ev := Event{Sender: int64(j % 5), Size: int64(10 * (j % 5))}
			if _, err := observe(r, "mix", stream, name, ev); err != nil {
				t.Fatal(err)
			}
		}
	}
	return r.SnapshotSessions()
}

// TestSnapshotHeterogeneousSessions pins the tentpole's serving claim: a
// single registry checkpoint holding sessions of different strategies
// round-trips through the file format and a restore byte-for-byte.
func TestSnapshotHeterogeneousSessions(t *testing.T) {
	want := heterogeneousSessions(t)
	if len(want) != len(strategy.Names()) {
		t.Fatalf("got %d sessions, want one per strategy (%d)", len(want), len(strategy.Names()))
	}
	data := encodeSnapshot(t, want)
	got, err := ReadSnapshot(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("heterogeneous snapshot round trip mismatch")
	}
	// Restore into a fresh registry and snapshot again: the bytes must be
	// identical (warm-restart fixpoint across mixed strategies).
	fresh := NewRegistry(Config{})
	if err := fresh.RestoreSessions(got); err != nil {
		t.Fatal(err)
	}
	if again := encodeSnapshot(t, fresh.SnapshotSessions()); !bytes.Equal(again, data) {
		t.Fatal("restore + snapshot of a heterogeneous registry is not byte-identical")
	}
	// Each restored session still reports its strategy.
	for _, info := range fresh.Sessions() {
		if !strategy.Known(info.Strategy) {
			t.Fatalf("restored session %s/%s lost its strategy: %+v", info.Tenant, info.Stream, info)
		}
	}
}

func TestSnapshotCodecRejectsUnknownStrategy(t *testing.T) {
	sessions := heterogeneousSessions(t)
	sessions[0].Strategy = "no-such-strategy"
	var buf bytes.Buffer
	if err := WriteSnapshot(&buf, sessions); err == nil {
		t.Fatal("WriteSnapshot accepted an unregistered strategy")
	}
}
