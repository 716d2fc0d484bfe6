// Package journal is the durability layer of the CAR-CS reproduction: an
// append-only, CRC-checksummed, fsync'd write-ahead log of mutating
// operations plus atomically-checkpointed snapshots, standing in for the
// crash-safety PostgreSQL gave the paper's Django prototype.
//
// Every record is framed as
//
//	[u32le payload length][u32le CRC-32 (IEEE) of payload][payload]
//
// where the payload is the JSON encoding of a Record. A crash mid-append
// leaves a torn final frame, which recovery truncates and continues past; a
// checksum failure on an interior frame means silent corruption and is
// refused, because replaying past it could resurrect a state the journal
// never committed.
package journal

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"sync"
)

// headerSize is the per-record frame overhead: length + checksum.
const headerSize = 8

// MaxRecord bounds a single record's payload. A frame declaring more than
// this cannot have been produced by a Writer, so recovery treats it as
// corruption rather than a torn tail.
const MaxRecord = 16 << 20

// ErrCorrupt marks an interior record whose checksum or framing is invalid.
// Unlike a torn tail it cannot be explained by a crash mid-append, so the
// journal refuses to open.
var ErrCorrupt = errors.New("journal: corrupt interior record")

// Record is one journaled mutation.
type Record struct {
	// Seq is the monotonically increasing sequence number, never reused
	// across checkpoints for the lifetime of a journal directory.
	Seq uint64 `json:"seq"`
	// Epoch is the leadership term that wrote the record. Zero means the
	// first (or only) leader and is omitted from the encoded record, so a
	// log written by a never-failed-over deployment is byte-identical to
	// one written before epochs existed — the same compatibility trick as
	// Tenant below. Appliers reject records whose epoch is below their
	// high-water mark, which fences a deposed leader's writes out of every
	// follower (see internal/replica).
	Epoch uint64 `json:"epoch,omitempty"`
	// Tenant names the workspace the mutation belongs to. Empty means the
	// default tenant and is omitted from the encoded record, so a journal
	// holding only default-tenant mutations is byte-identical to one
	// written before workspaces existed — old WALs replay unchanged, and
	// followers running older builds can still parse a default-only stream.
	Tenant string `json:"tenant,omitempty"`
	// Op names the mutation, e.g. "material.add".
	Op string `json:"op"`
	// Data is the op-specific JSON payload.
	Data json.RawMessage `json:"data,omitempty"`
}

// BatchOp is one not-yet-sequenced operation handed to AppendBatch. Sequence
// numbers are assigned in slice order when the batch commits.
type BatchOp struct {
	// Tenant stamps the record with its workspace; empty means default.
	Tenant string
	Op     string
	Data   any
}

// WriteSyncer is the sink a Writer appends to: an io.Writer whose Sync
// flushes to stable storage. *os.File satisfies it; FaultWriter wraps one to
// simulate crashes.
type WriteSyncer interface {
	io.Writer
	Sync() error
}

// encState is pooled marshal scratch for op payloads: the encoder writes
// into a retained buffer and the payload is copied out right-sized. Payload
// marshalling runs outside the writer lock, on any goroutine, so unlike the
// Writer's own envelope buffer this scratch is a sync.Pool — concurrent
// group-commit callers each grab their own, and the buffer's grown capacity
// is amortized across appends instead of re-grown per record.
type encState struct {
	buf bytes.Buffer
	enc *json.Encoder
}

var encPool = sync.Pool{New: func() any {
	s := &encState{}
	s.enc = json.NewEncoder(&s.buf)
	return s
}}

// marshalData encodes one op payload through the pooled scratch. The
// Encoder HTML-escapes exactly like json.Marshal and its trailing newline is
// trimmed, so the returned bytes match Marshal's byte-for-byte.
func marshalData(op string, data any) (json.RawMessage, error) {
	s := encPool.Get().(*encState)
	defer encPool.Put(s)
	s.buf.Reset()
	if err := s.enc.Encode(data); err != nil {
		return nil, fmt.Errorf("journal: marshal %s: %w", op, err)
	}
	b := s.buf.Bytes()
	raw := make(json.RawMessage, len(b)-1)
	copy(raw, b[:len(b)-1])
	return raw, nil
}

// appendFrame appends the framed payload to buf and returns the result.
func appendFrame(buf, payload []byte) []byte {
	var hdr [headerSize]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.ChecksumIEEE(payload))
	buf = append(buf, hdr[:]...)
	return append(buf, payload...)
}

// Writer appends batches of records to a WriteSyncer, fsyncing after every
// batch so an acknowledged mutation survives a crash. Any write or sync
// failure is sticky: the journal may hold a torn frame, so further appends
// are refused until the journal is reopened (which truncates the tear).
type Writer struct {
	mu    sync.Mutex
	ws    WriteSyncer
	seq   uint64
	epoch uint64
	err   error

	// buf is the reusable frame buffer: a batch's frames are assembled here
	// and handed to ws in one Write call, so the frame bytes are allocated
	// once per Writer, not once per record.
	buf []byte
	// encBuf/enc replace per-record json.Marshal of the Record envelope
	// with a reusable encoder writing into a reusable buffer. The Encoder
	// HTML-escapes exactly like Marshal, so on-disk bytes are unchanged.
	encBuf bytes.Buffer
	enc    *json.Encoder
}

// NewWriter returns a Writer appending to ws, continuing after lastSeq.
func NewWriter(ws WriteSyncer, lastSeq uint64) *Writer {
	return &Writer{ws: ws, seq: lastSeq}
}

// SetEpoch stamps every subsequent record with the given leadership epoch.
// Epochs only move forward: a lower value than the current one is ignored,
// so a late SetEpoch can never un-fence a writer.
func (w *Writer) SetEpoch(epoch uint64) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if epoch > w.epoch {
		w.epoch = epoch
	}
}

// Append journals one op as a one-op AppendBatch and returns its sequence
// number.
func (w *Writer) Append(op string, data any) (uint64, error) {
	recs, err := w.AppendBatch([]BatchOp{{Op: op, Data: data}})
	if err != nil {
		return 0, err
	}
	return recs[0].Seq, nil
}

// frameLocked encodes rec and appends its frame to w.buf. Caller holds w.mu.
func (w *Writer) frameLocked(rec Record) error {
	if w.enc == nil {
		w.enc = json.NewEncoder(&w.encBuf)
	}
	w.encBuf.Reset()
	if err := w.enc.Encode(rec); err != nil {
		return fmt.Errorf("journal: marshal record: %w", err)
	}
	payload := w.encBuf.Bytes()
	// Encode appends a newline that Marshal would not; trim it so the
	// on-disk payload bytes match the pre-batching format exactly.
	payload = payload[:len(payload)-1]
	if len(payload) > MaxRecord {
		return fmt.Errorf("journal: record %s exceeds %d bytes", rec.Op, MaxRecord)
	}
	w.buf = appendFrame(w.buf, payload)
	return nil
}

// AppendBatch frames every op with consecutive sequence numbers, writes all
// frames in a single Write, and syncs once — one fsync amortized across the
// whole batch. Either the entire batch is durably committed and returned, or
// none of it is acknowledged: on failure the writer goes sticky-failed and no
// sequence numbers are consumed. A crash mid-batch leaves a torn tail that
// recovery truncates to a prefix of whole records.
func (w *Writer) AppendBatch(ops []BatchOp) ([]Record, error) {
	if len(ops) == 0 {
		return nil, nil
	}
	raws := make([]json.RawMessage, len(ops))
	for i, op := range ops {
		raw, err := marshalData(op.Op, op.Data)
		if err != nil {
			return nil, err
		}
		raws[i] = raw
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err != nil {
		return nil, fmt.Errorf("journal: writer failed earlier: %w", w.err)
	}
	recs := make([]Record, len(ops))
	w.buf = w.buf[:0]
	for i, op := range ops {
		recs[i] = Record{Seq: w.seq + uint64(i) + 1, Epoch: w.epoch, Tenant: op.Tenant, Op: op.Op, Data: raws[i]}
		if err := w.frameLocked(recs[i]); err != nil {
			return nil, err
		}
	}
	if _, err := w.ws.Write(w.buf); err != nil {
		w.err = err
		return nil, fmt.Errorf("journal: append batch of %d: %w", len(ops), err)
	}
	if err := w.ws.Sync(); err != nil {
		w.err = err
		return nil, fmt.Errorf("journal: sync batch of %d: %w", len(ops), err)
	}
	w.seq = recs[len(recs)-1].Seq
	return recs, nil
}

// Seq returns the sequence number of the last successfully appended record.
func (w *Writer) Seq() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.seq
}

// Err returns the sticky write failure, if any.
func (w *Writer) Err() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.err
}

// Reader decodes framed records one at a time from a byte stream: a log
// file under recovery, or a follower's long-poll response. It checks each
// frame's declared length and checksum and nothing else; Scan adds the
// ordering rules a whole log must obey.
type Reader struct {
	br      *bufio.Reader
	off     int64
	payload bytes.Buffer
}

// NewReader returns a Reader over r, which it buffers.
func NewReader(r io.Reader) *Reader {
	return &Reader{br: bufio.NewReaderSize(r, 64<<10)}
}

// Offset returns the byte length of the whole records read so far.
func (r *Reader) Offset() int64 { return r.off }

// Buffered returns how many bytes can be read without blocking on the
// underlying stream.
func (r *Reader) Buffered() int { return r.br.Buffered() }

// badFrame wraps the ErrCorrupt of a frame that arrived whole but fails its
// checksum or does not decode. Scan forgives one at the very end of a log,
// where a crash mid-append can leave exactly that.
type badFrame struct{ error }

func (e badFrame) Unwrap() error { return e.error }

// Next decodes the next record. It returns io.EOF when the input ends on a
// frame boundary, and an error wrapping io.ErrUnexpectedEOF when it ends
// inside a frame. A declared length above MaxRecord, a checksum mismatch or
// an undecodable payload returns ErrCorrupt (wrapped). Next applies no
// sequence rules: a stream reader tracks its own cursor.
func (r *Reader) Next() (Record, error) {
	var hdr [headerSize]byte
	if _, err := io.ReadFull(r.br, hdr[:]); err != nil {
		return Record{}, r.readErr(err)
	}
	length := int64(binary.LittleEndian.Uint32(hdr[0:4]))
	sum := binary.LittleEndian.Uint32(hdr[4:8])
	if length > MaxRecord {
		return Record{}, fmt.Errorf("%w: offset %d declares %d-byte payload", ErrCorrupt, r.off, length)
	}
	// The payload buffer grows only as bytes arrive, so a torn frame
	// declaring a large length costs what is actually there.
	r.payload.Reset()
	if _, err := io.CopyN(&r.payload, r.br, length); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return Record{}, r.readErr(err)
	}
	payload := r.payload.Bytes()
	if crc32.ChecksumIEEE(payload) != sum {
		return Record{}, badFrame{fmt.Errorf("%w: checksum mismatch at offset %d", ErrCorrupt, r.off)}
	}
	var rec Record
	if err := json.Unmarshal(payload, &rec); err != nil {
		return Record{}, badFrame{fmt.Errorf("%w: undecodable record at offset %d: %v", ErrCorrupt, r.off, err)}
	}
	r.off += headerSize + length
	return rec, nil
}

// readErr reports a failed read at the current frame: io.EOF as is, a
// partial frame as a torn one.
func (r *Reader) readErr(err error) error {
	switch err {
	case io.EOF:
		return err
	case io.ErrUnexpectedEOF:
		return fmt.Errorf("journal: torn frame at offset %d: %w", r.off, err)
	}
	return fmt.Errorf("journal: read: %w", err)
}

// Scan reads framed records from r in order, invoking fn for each valid
// one. It returns the byte length of the valid prefix.
//
// A torn tail — an incomplete frame, or an invalid final frame — ends the
// scan cleanly: the caller should truncate the journal to the returned
// offset and continue. An invalid frame with further data behind it returns
// ErrCorrupt (wrapped), as does a declared length above MaxRecord and a
// sequence number or epoch that does not move forward. An error from fn
// aborts the scan and is returned as-is.
func Scan(r io.Reader, fn func(Record) error) (int64, error) {
	fr := NewReader(r)
	var lastSeq, lastEpoch uint64
	for {
		off := fr.Offset()
		rec, err := fr.Next()
		switch {
		case err == io.EOF, errors.Is(err, io.ErrUnexpectedEOF):
			return off, nil // clean end, or torn final frame
		case errors.As(err, new(badFrame)):
			if _, perr := fr.br.Peek(1); perr == io.EOF {
				return off, nil // torn final record
			}
			return off, err
		case err != nil:
			return off, err
		case rec.Seq <= lastSeq:
			return off, fmt.Errorf("%w: sequence %d at offset %d not after %d", ErrCorrupt, rec.Seq, off, lastSeq)
		case rec.Epoch < lastEpoch:
			// Epochs only advance within one log: a writer is created at
			// one epoch and only ever bumped. A regression means frames
			// from different terms were spliced together.
			return off, fmt.Errorf("%w: epoch %d at offset %d below %d", ErrCorrupt, rec.Epoch, off, lastEpoch)
		}
		if err := fn(rec); err != nil {
			return off, err
		}
		lastSeq, lastEpoch = rec.Seq, rec.Epoch
	}
}

// EncodeRecord frames a record as Writer would, for tests that need to craft
// journals byte-by-byte.
func EncodeRecord(rec Record) ([]byte, error) {
	payload, err := json.Marshal(rec)
	if err != nil {
		return nil, err
	}
	return appendFrame(nil, payload), nil
}
