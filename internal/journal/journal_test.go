package journal

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// memWS is an in-memory WriteSyncer counting syncs.
type memWS struct {
	buf   bytes.Buffer
	syncs int
}

func (m *memWS) Write(p []byte) (int, error) { return m.buf.Write(p) }
func (m *memWS) Sync() error                 { m.syncs++; return nil }

func TestWriterScanRoundTrip(t *testing.T) {
	ws := &memWS{}
	w := NewWriter(ws, 0)
	type payload struct {
		Name string `json:"name"`
	}
	for i := 1; i <= 5; i++ {
		seq, err := w.Append("op", payload{Name: fmt.Sprintf("rec-%d", i)})
		if err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
		if seq != uint64(i) {
			t.Fatalf("seq = %d, want %d", seq, i)
		}
	}
	if ws.syncs != 5 {
		t.Errorf("syncs = %d, want 5 (one per record)", ws.syncs)
	}
	recs, valid, err := scanAll(ws.buf.Bytes())
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if valid != int64(ws.buf.Len()) {
		t.Errorf("valid prefix %d != %d written", valid, ws.buf.Len())
	}
	if len(recs) != 5 {
		t.Fatalf("decoded %d records, want 5", len(recs))
	}
	var p payload
	if err := json.Unmarshal(recs[2].Data, &p); err != nil || p.Name != "rec-3" {
		t.Errorf("record 3 payload = %+v, %v", p, err)
	}
}

func TestScanTornTailTruncates(t *testing.T) {
	ws := &memWS{}
	w := NewWriter(ws, 0)
	for i := 0; i < 3; i++ {
		if _, err := w.Append("op", map[string]int{"i": i}); err != nil {
			t.Fatal(err)
		}
	}
	whole := ws.buf.Len()
	// Chop the final record at every possible byte boundary: header torn,
	// payload torn — each must recover exactly the first two records.
	recs, _, err := scanAll(ws.buf.Bytes())
	if err != nil || len(recs) != 3 {
		t.Fatalf("setup decode: %d recs, %v", len(recs), err)
	}
	// Find offset where record 3 begins by re-encoding records 1-2.
	var prefix []byte
	for _, r := range recs[:2] {
		b, err := EncodeRecord(r)
		if err != nil {
			t.Fatal(err)
		}
		prefix = append(prefix, b...)
	}
	for cut := len(prefix) + 1; cut < whole; cut++ {
		got, valid, err := scanAll(ws.buf.Bytes()[:cut])
		if err != nil {
			t.Fatalf("cut %d: unexpected error %v", cut, err)
		}
		if len(got) != 2 {
			t.Fatalf("cut %d: recovered %d records, want 2", cut, len(got))
		}
		if valid != int64(len(prefix)) {
			t.Fatalf("cut %d: valid = %d, want %d", cut, valid, len(prefix))
		}
	}
}

func TestScanCorruptInteriorRefused(t *testing.T) {
	ws := &memWS{}
	w := NewWriter(ws, 0)
	for i := 0; i < 3; i++ {
		if _, err := w.Append("op", map[string]int{"i": i}); err != nil {
			t.Fatal(err)
		}
	}
	data := append([]byte(nil), ws.buf.Bytes()...)
	// Flip a byte in the middle of the first record's payload.
	data[headerSize+4] ^= 0xFF
	_, _, err := scanAll(data)
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("interior corruption error = %v, want ErrCorrupt", err)
	}

	// The same flip in the final record is a torn tail, not corruption.
	data = append([]byte(nil), ws.buf.Bytes()...)
	data[len(data)-3] ^= 0xFF
	recs, _, err := scanAll(data)
	if err != nil {
		t.Fatalf("final-record corruption: %v, want clean truncation", err)
	}
	if len(recs) != 2 {
		t.Fatalf("recovered %d records, want 2", len(recs))
	}
}

func TestScanAbsurdLengthIsCorrupt(t *testing.T) {
	ws := &memWS{}
	w := NewWriter(ws, 0)
	if _, err := w.Append("op", map[string]int{"i": 1}); err != nil {
		t.Fatal(err)
	}
	data := append([]byte(nil), ws.buf.Bytes()...)
	// Overwrite the length field with a value no Writer can produce.
	data[0], data[1], data[2], data[3] = 0xFF, 0xFF, 0xFF, 0x7F
	_, _, err := scanAll(data)
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("absurd length error = %v, want ErrCorrupt", err)
	}
}

func TestScanNonIncreasingSeqIsCorrupt(t *testing.T) {
	r1, err := EncodeRecord(Record{Seq: 2, Op: "a"})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := EncodeRecord(Record{Seq: 2, Op: "b"})
	if err != nil {
		t.Fatal(err)
	}
	_, _, err = scanAll(append(r1, r2...))
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("duplicate seq error = %v, want ErrCorrupt", err)
	}
}

func TestWriterStickyFailure(t *testing.T) {
	ws := &memWS{}
	fw := NewFaultWriter(ws, 10, false)
	w := NewWriter(fw, 0)
	if _, err := w.Append("op", map[string]string{"k": "a long enough payload"}); !errors.Is(err, ErrFault) {
		t.Fatalf("append past budget = %v, want ErrFault", err)
	}
	if _, err := w.Append("op", map[string]int{"i": 1}); err == nil {
		t.Fatal("second append after failure succeeded; writer must be sticky")
	}
	if ws.buf.Len() != 10 {
		t.Errorf("underlying got %d bytes, want exactly the 10-byte budget", ws.buf.Len())
	}
}

func TestFaultWriterSyncFailure(t *testing.T) {
	ws := &memWS{}
	fw := NewFaultWriter(ws, -1, true)
	w := NewWriter(fw, 0)
	if _, err := w.Append("op", map[string]int{"i": 1}); !errors.Is(err, ErrFault) {
		t.Fatalf("append with failing sync = %v, want ErrFault", err)
	}
	if !fw.Failed() {
		t.Error("fault writer not marked failed")
	}
}

func TestStoreAppendReplayCheckpoint(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Append("x", nil); err == nil {
		t.Fatal("append before Replay succeeded")
	}
	if n, err := st.Replay(nil); err != nil || n != 0 {
		t.Fatalf("empty replay = %d, %v", n, err)
	}
	for i := 0; i < 4; i++ {
		if _, err := st.Append("op", map[string]int{"i": i}); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
	if err := st.WriteCheckpoint(func(w io.Writer) error {
		_, err := w.Write([]byte(`{"state":"four"}`))
		return err
	}); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	if _, err := st.Append("op", map[string]int{"i": 4}); err != nil {
		t.Fatal(err)
	}
	stats := st.Stats()
	if stats.Seq != 5 || stats.CheckpointSeq != 4 || stats.WALRecords != 1 {
		t.Errorf("stats = %+v, want seq 5, checkpoint 4, 1 wal record", stats)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen: checkpoint payload intact, only the post-checkpoint record
	// replays.
	st2, err := Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	payload, ok, err := st2.Checkpoint()
	if err != nil || !ok {
		t.Fatalf("checkpoint read = %v, ok=%v", err, ok)
	}
	if string(payload) != `{"state":"four"}` {
		t.Errorf("checkpoint payload = %q", payload)
	}
	var seqs []uint64
	n, err := st2.Replay(func(rec Record) error {
		seqs = append(seqs, rec.Seq)
		return nil
	})
	if err != nil || n != 1 || len(seqs) != 1 || seqs[0] != 5 {
		t.Fatalf("replay = %d records %v, err %v; want just seq 5", n, seqs, err)
	}
	// Sequence numbering continues past the recovered state.
	if seq, err := st2.Append("op", nil); err != nil || seq != 6 {
		t.Fatalf("post-recovery append seq = %d, %v; want 6", seq, err)
	}
	st2.Close()
}

func TestStoreCheckpointIsAtomic(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Replay(nil); err != nil {
		t.Fatal(err)
	}
	if err := st.WriteCheckpoint(func(w io.Writer) error {
		_, _ = w.Write([]byte("good"))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	// A failing snapshot writer must leave the previous checkpoint intact
	// and no temp file behind.
	boom := errors.New("boom")
	if err := st.WriteCheckpoint(func(w io.Writer) error {
		_, _ = w.Write([]byte("partial"))
		return boom
	}); !errors.Is(err, boom) {
		t.Fatalf("failed checkpoint err = %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, checkpointTemp)); !os.IsNotExist(err) {
		t.Errorf("temp checkpoint left behind: %v", err)
	}
	payload, ok, err := st.Checkpoint()
	if err != nil || !ok || string(payload) != "good" {
		t.Errorf("surviving checkpoint = %q, ok=%v, err=%v", payload, ok, err)
	}
	st.Close()
}

func TestStoreTornWALRecordDiscardedOnReplay(t *testing.T) {
	dir := t.TempDir()
	var fw *FaultWriter
	opts := &Options{WrapWAL: func(ws WriteSyncer) WriteSyncer {
		fw = NewFaultWriter(ws, -1, false)
		return fw
	}}
	st, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Replay(nil); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Append("keep", map[string]int{"i": 1}); err != nil {
		t.Fatal(err)
	}
	// Sever the writer mid-record: allow 5 more bytes, then cut.
	fw.mu.Lock()
	fw.limited, fw.remaining = true, 5
	fw.mu.Unlock()
	if _, err := st.Append("lost", map[string]int{"i": 2}); !errors.Is(err, ErrFault) {
		t.Fatalf("severed append = %v, want ErrFault", err)
	}
	st.Close()

	st2, err := Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	var ops []string
	if _, err := st2.Replay(func(rec Record) error {
		ops = append(ops, rec.Op)
		return nil
	}); err != nil {
		t.Fatalf("replay after tear: %v", err)
	}
	if strings.Join(ops, ",") != "keep" {
		t.Fatalf("replayed ops = %v, want only the committed record", ops)
	}
	// The torn bytes were truncated from disk.
	fi, err := os.Stat(filepath.Join(dir, walFile))
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size() != st2.Stats().WALBytes {
		t.Errorf("wal size %d != stats %d", fi.Size(), st2.Stats().WALBytes)
	}
	st2.Close()
}

func TestStoreCorruptInteriorRefusesOpen(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Replay(nil); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := st.Append("op", map[string]int{"i": i}); err != nil {
			t.Fatal(err)
		}
	}
	st.Close()
	path := filepath.Join(dir, walFile)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[headerSize+2] ^= 0xFF
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	st2, err := Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st2.Replay(nil); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("replay over corrupt interior = %v, want ErrCorrupt", err)
	}
}
