package journal

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"reflect"
	"testing"
	"testing/iotest"
)

// refScan is Scan as it was before the streaming Reader: read the whole log
// into memory, then index frames out of the buffer. It is kept as the
// reference FuzzScan checks the streaming Scan against.
func refScan(r io.Reader, fn func(Record) error) (int64, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return 0, fmt.Errorf("journal: read: %w", err)
	}
	var off int64
	n := int64(len(data))
	var lastSeq, lastEpoch uint64
	for off < n {
		if n-off < headerSize {
			return off, nil // torn header
		}
		length := int64(binary.LittleEndian.Uint32(data[off : off+4]))
		sum := binary.LittleEndian.Uint32(data[off+4 : off+8])
		if length > MaxRecord {
			return off, fmt.Errorf("%w: offset %d declares %d-byte payload", ErrCorrupt, off, length)
		}
		end := off + headerSize + length
		if end > n {
			return off, nil // torn payload
		}
		payload := data[off+headerSize : end]
		final := end == n
		if crc32.ChecksumIEEE(payload) != sum {
			if final {
				return off, nil // torn final record
			}
			return off, fmt.Errorf("%w: checksum mismatch at offset %d", ErrCorrupt, off)
		}
		var rec Record
		if err := json.Unmarshal(payload, &rec); err != nil {
			if final {
				return off, nil
			}
			return off, fmt.Errorf("%w: undecodable record at offset %d: %v", ErrCorrupt, off, err)
		}
		if rec.Seq <= lastSeq {
			return off, fmt.Errorf("%w: sequence %d at offset %d not after %d", ErrCorrupt, rec.Seq, off, lastSeq)
		}
		if rec.Epoch < lastEpoch {
			return off, fmt.Errorf("%w: epoch %d at offset %d below %d", ErrCorrupt, rec.Epoch, off, lastEpoch)
		}
		if err := fn(rec); err != nil {
			return off, err
		}
		lastSeq = rec.Seq
		lastEpoch = rec.Epoch
		off = end
	}
	return off, nil
}

// scanAll streams data through Scan, collecting every record.
func scanAll(data []byte) ([]Record, int64, error) {
	return collect(Scan, bytes.NewReader(data))
}

// collect runs scan over r, collecting every record it yields.
func collect(scan func(io.Reader, func(Record) error) (int64, error), r io.Reader) ([]Record, int64, error) {
	var out []Record
	valid, err := scan(r, func(rec Record) error {
		out = append(out, rec)
		return nil
	})
	return out, valid, err
}

// scanFixture is one crafted log.
type scanFixture struct {
	name string
	data []byte
}

// scanFixtures builds the logs the Scan rules are stated on: a whole log, a
// torn tail, a garbled final frame, a corrupt interior frame, an absurd
// declared length, and an epoch regression.
func scanFixtures(tb testing.TB) []scanFixture {
	tb.Helper()
	ws := &memWS{}
	w := NewWriter(ws, 0)
	for i := 0; i < 3; i++ {
		if _, err := w.Append("op", map[string]int{"i": i}); err != nil {
			tb.Fatal(err)
		}
	}
	whole := ws.buf.Bytes()
	clone := func() []byte { return append([]byte(nil), whole...) }

	garbledFinal := clone()
	garbledFinal[len(garbledFinal)-3] ^= 0xFF
	interior := clone()
	interior[headerSize+4] ^= 0xFF
	absurd := clone()
	absurd[0], absurd[1], absurd[2], absurd[3] = 0xFF, 0xFF, 0xFF, 0x7F

	f1, err := EncodeRecord(Record{Seq: 1, Epoch: 2, Op: "a"})
	if err != nil {
		tb.Fatal(err)
	}
	f2, err := EncodeRecord(Record{Seq: 2, Epoch: 1, Op: "b"})
	if err != nil {
		tb.Fatal(err)
	}
	return []scanFixture{
		{"whole", clone()},
		{"torn-tail", clone()[:len(whole)-5]},
		{"garbled-final", garbledFinal},
		{"interior-corrupt", interior},
		{"absurd-length", absurd},
		{"epoch-regression", append(f1, f2...)},
	}
}

// errClass names the class of a scan error: none, corruption, or other.
func errClass(err error) string {
	switch {
	case err == nil:
		return "nil"
	case errors.Is(err, ErrCorrupt):
		return "corrupt"
	}
	return "other"
}

// sameScan fails t unless two scans agree on the records, the valid offset,
// and the error, class and text.
func sameScan(t *testing.T, what string, gotRecs []Record, gotValid int64, gotErr error, wantRecs []Record, wantValid int64, wantErr error) {
	t.Helper()
	if !reflect.DeepEqual(gotRecs, wantRecs) {
		t.Fatalf("%s: records %+v, want %+v", what, gotRecs, wantRecs)
	}
	if gotValid != wantValid {
		t.Fatalf("%s: valid offset %d, want %d", what, gotValid, wantValid)
	}
	if errClass(gotErr) != errClass(wantErr) || fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
		t.Fatalf("%s: error %v (%s), want %v (%s)", what, gotErr, errClass(gotErr), wantErr, errClass(wantErr))
	}
}

// FuzzScan checks the streaming Scan against the whole-buffer reference on
// every input and on every truncation of it, and checks that a follower's
// Next loop reads the input the same whether it arrives whole or one byte
// at a time.
func FuzzScan(f *testing.F) {
	for _, fx := range scanFixtures(f) {
		f.Add(fx.data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for cut := 0; cut <= len(data); cut++ {
			got, gotValid, gotErr := scanAll(data[:cut])
			want, wantValid, wantErr := collect(refScan, bytes.NewReader(data[:cut]))
			sameScan(t, fmt.Sprintf("cut %d", cut), got, gotValid, gotErr, want, wantValid, wantErr)
		}
		recs, off, err := nextAll(iotest.OneByteReader(bytes.NewReader(data)))
		wantRecs, wantOff, wantErr := nextAll(bytes.NewReader(data))
		sameScan(t, "Next one byte at a time", recs, off, err, wantRecs, wantOff, wantErr)
	})
}

// nextAll reads r with Reader.Next until it fails, as a follower does, and
// returns the records and the error that ended the read.
func nextAll(r io.Reader) ([]Record, int64, error) {
	fr := NewReader(r)
	var out []Record
	for {
		rec, err := fr.Next()
		if err != nil {
			return out, fr.Offset(), err
		}
		out = append(out, rec)
	}
}

// TestReaderVerdictIgnoresChunking feeds every fixture to Scan and to a
// bare Next loop through readers that hand the bytes over one at a time,
// in halves, or with the final read carrying io.EOF — the shapes a chunked
// HTTP body takes — and requires the result a bytes.Reader gives.
func TestReaderVerdictIgnoresChunking(t *testing.T) {
	chunkings := []struct {
		name string
		wrap func(io.Reader) io.Reader
	}{
		{"one-byte", iotest.OneByteReader},
		{"half", iotest.HalfReader},
		{"data-err", iotest.DataErrReader},
	}
	for _, fx := range scanFixtures(t) {
		wantRecs, wantValid, wantErr := scanAll(fx.data)
		wantNext, wantNextOff, wantNextErr := nextAll(bytes.NewReader(fx.data))
		for _, c := range chunkings {
			t.Run(fx.name+"/"+c.name, func(t *testing.T) {
				recs, valid, err := collect(Scan, c.wrap(bytes.NewReader(fx.data)))
				sameScan(t, "Scan", recs, valid, err, wantRecs, wantValid, wantErr)
				recs, off, err := nextAll(c.wrap(bytes.NewReader(fx.data)))
				sameScan(t, "Next", recs, off, err, wantNext, wantNextOff, wantNextErr)
			})
		}
	}
}

// TestReaderStreamRules pins what a follower's Next loop sees on each
// fixture: io.EOF only on a frame boundary, a torn frame as an error rather
// than a clean end, a bad frame as ErrCorrupt even when it is the last one,
// and no sequence or epoch checks.
func TestReaderStreamRules(t *testing.T) {
	for _, fx := range scanFixtures(t) {
		recs, _, err := nextAll(bytes.NewReader(fx.data))
		var wantRecs int
		var ok bool
		switch fx.name {
		case "whole":
			wantRecs, ok = 3, err == io.EOF
		case "torn-tail":
			wantRecs, ok = 2, errors.Is(err, io.ErrUnexpectedEOF)
		case "garbled-final":
			wantRecs, ok = 2, errors.Is(err, ErrCorrupt)
		case "interior-corrupt", "absurd-length":
			wantRecs, ok = 0, errors.Is(err, ErrCorrupt)
		case "epoch-regression":
			wantRecs, ok = 2, err == io.EOF
		default:
			t.Fatalf("fixture %s has no expected verdict", fx.name)
		}
		if len(recs) != wantRecs || !ok {
			t.Errorf("%s: read %d records ending in %v, want %d records and its stream verdict", fx.name, len(recs), err, wantRecs)
		}
	}
}
