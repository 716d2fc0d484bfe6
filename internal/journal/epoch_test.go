package journal

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// legacyRecord is Record exactly as it was encoded before epochs existed:
// same fields, same order, same tags, no Epoch. Marshaling through it
// produces the historical bytes the compatibility claim is about.
type legacyRecord struct {
	Seq    uint64          `json:"seq"`
	Tenant string          `json:"tenant,omitempty"`
	Op     string          `json:"op"`
	Data   json.RawMessage `json:"data,omitempty"`
}

// TestEpochZeroFilesByteIdentical proves the compatibility contract from
// the raw bytes up: a WAL and a checkpoint written by an epoch-aware store
// that never failed over (epoch 0) are byte-for-byte identical to files
// framed with the pre-epoch record shape. A byte-level diff here is what
// would break old followers and old WAL archives, so the test compares
// files, not parsed structs.
func TestEpochZeroFilesByteIdentical(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.Replay(nil); err != nil {
		t.Fatal(err)
	}
	ops := []string{"a", "b", "c"}
	for _, op := range ops {
		if _, err := s.Append(op, map[string]string{"op": op}); err != nil {
			t.Fatal(err)
		}
	}
	got, err := os.ReadFile(filepath.Join(dir, walFile))
	if err != nil {
		t.Fatal(err)
	}

	var want []byte
	for i, op := range ops {
		data, err := json.Marshal(map[string]string{"op": op})
		if err != nil {
			t.Fatal(err)
		}
		payload, err := json.Marshal(legacyRecord{Seq: uint64(i) + 1, Op: op, Data: data})
		if err != nil {
			t.Fatal(err)
		}
		want = appendFrame(want, payload)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("epoch-0 WAL differs from legacy framing:\n got: %q\nwant: %q", got, want)
	}
	if bytes.Contains(got, []byte(`"epoch"`)) {
		t.Fatalf("epoch-0 WAL mentions epoch: %q", got)
	}

	snapshot := []byte(`{"snapshot":"abc"}`)
	if err := s.WriteCheckpoint(func(w io.Writer) error {
		_, err := w.Write(snapshot)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	ckpt, err := os.ReadFile(filepath.Join(dir, checkpointFile))
	if err != nil {
		t.Fatal(err)
	}
	meta, err := json.Marshal(struct {
		Seq uint64 `json:"seq"`
	}{3})
	if err != nil {
		t.Fatal(err)
	}
	wantCkpt := append(append(meta, '\n'), snapshot...)
	if !bytes.Equal(ckpt, wantCkpt) {
		t.Fatalf("epoch-0 checkpoint differs from legacy layout:\n got: %q\nwant: %q", ckpt, wantCkpt)
	}
	if bytes.Contains(ckpt, []byte(`"epoch"`)) {
		t.Fatalf("epoch-0 checkpoint mentions epoch: %q", ckpt)
	}
}

// TestScanRejectsEpochRegression: a record whose epoch is lower than an
// earlier record's is not a crash artifact — torn tails truncate, they do
// not rewrite history — so Scan must refuse the whole region as corrupt
// rather than silently replaying a deposed leader's writes.
func TestScanRejectsEpochRegression(t *testing.T) {
	f1, err := EncodeRecord(Record{Seq: 1, Epoch: 2, Op: "a"})
	if err != nil {
		t.Fatal(err)
	}
	f2, err := EncodeRecord(Record{Seq: 2, Epoch: 1, Op: "b"})
	if err != nil {
		t.Fatal(err)
	}
	log := append(append([]byte{}, f1...), f2...)
	valid, err := Scan(bytes.NewReader(log), func(Record) error { return nil })
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("err = %v, want ErrCorrupt", err)
	}
	if valid != int64(len(f1)) {
		t.Fatalf("valid = %d, want %d (end of the last good frame)", valid, len(f1))
	}
}

// TestReplayTornTailAcrossEpochBoundary cuts the log at EVERY byte offset
// from the first post-promotion frame onward: the crash geometry of a
// kill-9 during the first writes of a new leadership term. Replay must
// recover exactly the whole records with their original epochs, report the
// highest surviving epoch in Stats, and stamp that epoch on the next
// append — a restart after a torn promotion write must not fall back to
// the old term.
func TestReplayTornTailAcrossEpochBoundary(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Replay(nil); err != nil {
		t.Fatal(err)
	}
	s.SetEpoch(1)
	for _, op := range []string{"a", "b"} {
		if _, err := s.Append(op, map[string]string{"op": op}); err != nil {
			t.Fatal(err)
		}
	}
	walPath := filepath.Join(dir, walFile)
	pre, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	boundary := int64(len(pre)) // record c, the first epoch-2 frame, starts here
	s.SetEpoch(2)
	if _, err := s.Append("c", map[string]string{"op": "c"}); err != nil {
		t.Fatal(err)
	}
	mid, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	cEnd := int64(len(mid)) // end of c's frame; d starts here
	if _, err := s.Append("d", map[string]string{"op": "d"}); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	full, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}

	for cut := boundary; cut <= int64(len(full)); cut++ {
		cut := cut
		t.Run(fmt.Sprintf("cut=%d", cut), func(t *testing.T) {
			cdir := t.TempDir()
			if err := os.WriteFile(filepath.Join(cdir, walFile), full[:cut], 0o644); err != nil {
				t.Fatal(err)
			}
			cs, err := Open(cdir, nil)
			if err != nil {
				t.Fatal(err)
			}
			defer cs.Close()
			var recs []Record
			if _, err := cs.Replay(func(rec Record) error {
				recs = append(recs, rec)
				return nil
			}); err != nil {
				t.Fatal(err)
			}

			want := []struct {
				op    string
				epoch uint64
			}{{"a", 1}, {"b", 1}}
			wantEpoch := uint64(1)
			if cut >= cEnd {
				want = append(want, struct {
					op    string
					epoch uint64
				}{"c", 2})
				wantEpoch = 2
			}
			if cut == int64(len(full)) {
				want = append(want, struct {
					op    string
					epoch uint64
				}{"d", 2})
			}
			if len(recs) != len(want) {
				t.Fatalf("replayed %d records, want %d", len(recs), len(want))
			}
			for i, w := range want {
				if recs[i].Op != w.op || recs[i].Epoch != w.epoch {
					t.Fatalf("record %d = {op %q epoch %d}, want {op %q epoch %d}",
						i, recs[i].Op, recs[i].Epoch, w.op, w.epoch)
				}
			}
			if got := cs.Stats().Epoch; got != wantEpoch {
				t.Fatalf("Stats().Epoch = %d, want %d", got, wantEpoch)
			}

			// The next append must land on a frame boundary (the tear was
			// truncated) and carry the recovered term forward.
			seq, err := cs.Append("z", nil)
			if err != nil {
				t.Fatal(err)
			}
			if wantSeq := uint64(len(want)) + 1; seq != wantSeq {
				t.Fatalf("post-replay append seq = %d, want %d", seq, wantSeq)
			}
			data, err := os.ReadFile(filepath.Join(cdir, walFile))
			if err != nil {
				t.Fatal(err)
			}
			all, valid, err := scanAll(data)
			if err != nil {
				t.Fatal(err)
			}
			if valid != int64(len(data)) {
				t.Fatalf("WAL holds %d valid of %d bytes after replay+append", valid, len(data))
			}
			last := all[len(all)-1]
			if last.Op != "z" || last.Epoch != wantEpoch {
				t.Fatalf("appended record = {op %q epoch %d}, want {op z epoch %d}",
					last.Op, last.Epoch, wantEpoch)
			}
		})
	}
}
