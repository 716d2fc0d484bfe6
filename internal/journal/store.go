package journal

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"
)

// File names inside a journal directory.
const (
	checkpointFile = "checkpoint.json"
	checkpointTemp = "checkpoint.json.tmp"
	walFile        = "journal.wal"
)

// ErrCompacted reports that the requested tail of the log has already been
// folded into a checkpoint and truncated away. A replication follower that
// sees it must re-bootstrap from the checkpoint instead of the log.
var ErrCompacted = errors.New("journal: records compacted into checkpoint")

// Options configure a Store.
type Options struct {
	// WrapWAL, if set, wraps the write-ahead log's sink whenever it is
	// (re)opened — the hook fault-injection tests use to sever writes.
	WrapWAL func(WriteSyncer) WriteSyncer
}

// Store manages one durability directory: a checkpoint snapshot plus the
// write-ahead log of mutations since. The on-disk protocol:
//
//   - checkpoint.json: one JSON meta line {"seq": N} followed by the
//     caller's snapshot payload, written to checkpoint.json.tmp, fsync'd,
//     and renamed into place so a crash never leaves a half checkpoint.
//   - journal.wal: framed records (see Scan). Records with Seq <= the
//     checkpoint's N are already folded into the snapshot and skipped on
//     replay, which makes the checkpoint-then-truncate pair crash-safe in
//     either order.
type Store struct {
	dir  string
	wrap func(WriteSyncer) WriteSyncer

	mu        sync.Mutex
	f         *os.File
	w         *Writer
	recovered bool
	closed    bool

	checkpointSeq   uint64
	checkpointAt    time.Time
	checkpointBytes int64

	// epoch is the leadership term stamped on new records: the max of the
	// checkpoint meta's epoch, any epoch seen during replay, and explicit
	// SetEpoch bumps (promotion). It survives every Writer recreation —
	// Replay, Recover, and WriteCheckpoint all restamp the fresh Writer.
	epoch uint64

	walBytes   atomic.Int64
	walRecords uint64

	// Group-commit counters: batches is the number of AppendBatch syncs,
	// batchRecords the records those syncs covered. fsyncs saved =
	// batchRecords - batches. Both survive checkpoints (they describe the
	// store's lifetime, not the current log segment).
	batches      uint64
	batchRecords uint64

	// dirSyncErrors counts failed directory fsyncs after checkpoint
	// installs. A rename without a durable directory entry can be lost by
	// a crash, so degraded durability must be observable, not swallowed.
	dirSyncErrors atomic.Uint64
}

// checkpointMeta is the first line of a checkpoint file. Epoch is omitted
// when zero so a checkpoint written before failover existed — or by a
// deployment that never failed over — keeps its exact historical bytes.
type checkpointMeta struct {
	Seq   uint64 `json:"seq"`
	Epoch uint64 `json:"epoch,omitempty"`
}

// Open prepares the directory (creating it if needed) and reads the
// checkpoint metadata. Call Checkpoint and Replay to recover state, then
// Append to log new mutations.
func Open(dir string, opts *Options) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("journal: empty directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("journal: create %s: %w", dir, err)
	}
	s := &Store{dir: dir, wrap: func(ws WriteSyncer) WriteSyncer { return ws }}
	if opts != nil && opts.WrapWAL != nil {
		s.wrap = opts.WrapWAL
	}
	meta, _, fi, err := readCheckpoint(dir, false)
	if err != nil {
		return nil, err
	}
	if fi != nil {
		s.checkpointSeq = meta.Seq
		s.epoch = meta.Epoch
		s.checkpointAt = fi.ModTime()
		s.checkpointBytes = fi.Size()
	}
	return s, nil
}

// readCheckpoint opens dir's checkpoint file and parses its meta line, and
// with withPayload reads the snapshot payload behind it from the same open
// file, so a concurrent install (an atomic rename) can never mix one
// checkpoint's meta with another's payload. fi is nil when no checkpoint
// exists.
func readCheckpoint(dir string, withPayload bool) (meta checkpointMeta, payload []byte, fi os.FileInfo, err error) {
	f, err := os.Open(filepath.Join(dir, checkpointFile))
	if os.IsNotExist(err) {
		return meta, nil, nil, nil
	}
	if err != nil {
		return meta, nil, nil, fmt.Errorf("journal: open checkpoint: %w", err)
	}
	defer f.Close()
	if fi, err = f.Stat(); err != nil {
		return meta, nil, nil, fmt.Errorf("journal: stat checkpoint: %w", err)
	}
	r := bufio.NewReader(f)
	line, err := r.ReadBytes('\n')
	if err != nil && err != io.EOF {
		return meta, nil, nil, fmt.Errorf("journal: read checkpoint meta: %w", err)
	}
	if err := json.Unmarshal(line, &meta); err != nil {
		return meta, nil, nil, fmt.Errorf("journal: parse checkpoint meta: %w", err)
	}
	if withPayload {
		if payload, err = io.ReadAll(r); err != nil {
			return meta, nil, nil, fmt.Errorf("journal: read checkpoint: %w", err)
		}
	}
	return meta, payload, fi, nil
}

// Checkpoint returns the latest snapshot payload (the bytes after the meta
// line) and whether a checkpoint exists.
func (s *Store) Checkpoint() ([]byte, bool, error) {
	_, payload, fi, err := readCheckpoint(s.dir, true)
	return payload, fi != nil, err
}

// CheckpointWithMeta returns the latest snapshot payload together with the
// sequence number and epoch it covers, read from the same opened file. The
// replication bootstrap endpoint serves exactly this pair: followers
// restore the payload and tail the log from the covered sequence.
func (s *Store) CheckpointWithMeta() (payload []byte, seq, epoch uint64, ok bool, err error) {
	meta, payload, fi, err := readCheckpoint(s.dir, true)
	return payload, meta.Seq, meta.Epoch, fi != nil, err
}

// TailSince reads every committed record with Seq > from still present in
// the write-ahead log, in order. Records already folded into a checkpoint
// are gone from the log; asking for them returns ErrCompacted and the
// caller must bootstrap from the checkpoint instead.
//
// The streaming read and CRC scan run outside the store lock so a follower
// resuming from a deep cursor never stalls the append path. That is safe
// because the log is append-only between checkpoints: the scan stops at the
// first record past the acknowledged sequence captured up front (so
// never-acked phantoms that a racing Recover may truncate stay invisible,
// and a half-written racing append parses as a clean torn tail), and a
// checkpoint truncation racing the read moves checkpointSeq, which is
// re-checked afterwards and the scan discarded and retried against the new
// horizon.
func (s *Store) TailSince(from uint64) ([]Record, error) {
	for {
		s.mu.Lock()
		if !s.recovered || s.closed {
			s.mu.Unlock()
			return nil, fmt.Errorf("journal: store not open for tail reads")
		}
		if from < s.checkpointSeq {
			ckpt := s.checkpointSeq
			s.mu.Unlock()
			return nil, fmt.Errorf("%w: want seq > %d, checkpoint covers %d", ErrCompacted, from, ckpt)
		}
		ack := s.w.Seq()
		ckpt := s.checkpointSeq
		s.mu.Unlock()

		var out []Record
		serr := s.tailScan(func(rec Record) error {
			if rec.Seq > ack {
				return errUnacked
			}
			if rec.Seq > from {
				out = append(out, rec)
			}
			return nil
		})

		s.mu.Lock()
		stable := s.checkpointSeq == ckpt
		s.mu.Unlock()
		if !stable {
			continue // checkpoint truncation raced the read; rescan
		}
		if serr != nil {
			return nil, serr
		}
		return out, nil
	}
}

// Replay scans the write-ahead log, invoking fn for every committed record
// newer than the checkpoint, truncates any torn tail, and opens the log for
// appending. It returns the number of records applied. Interior corruption
// (ErrCorrupt) refuses recovery; the caller decides whether to discard the
// directory.
func (s *Store) Replay(fn func(Record) error) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.recovered {
		return 0, fmt.Errorf("journal: already recovered")
	}
	applied := 0
	lastSeq := s.checkpointSeq
	err := s.reopenWAL(func(rec Record) error {
		if rec.Seq > lastSeq {
			lastSeq = rec.Seq
		}
		if rec.Epoch > s.epoch {
			s.epoch = rec.Epoch
		}
		if rec.Seq <= s.checkpointSeq {
			return nil // already folded into the checkpoint
		}
		if fn != nil {
			if err := fn(rec); err != nil {
				return fmt.Errorf("journal: replay seq %d (%s): %w", rec.Seq, rec.Op, err)
			}
		}
		applied++
		return nil
	})
	if err != nil {
		return applied, err
	}
	s.walRecords = uint64(applied)
	s.newWriter(lastSeq)
	s.recovered = true
	return applied, nil
}

// errUnacked stops a scan at the first record the writer had not
// acknowledged when the scan began.
var errUnacked = errors.New("journal: unacknowledged record")

// Recover reopens the write-ahead log after a write failure. The sticky
// Writer error means the log may end in a torn frame, or in fully-written
// records whose Append nevertheless returned an error (for example a write
// that landed but whose fsync failed) — records the client was told did NOT
// commit. Recover truncates the log back to the last acknowledged sequence
// number, dropping both kinds of phantom, and installs a fresh Writer
// through the usual wrap hook. The circuit breaker's half-open probe calls
// this before its probe append; if the underlying medium is still sick the
// new writer fails again and the breaker re-opens.
func (s *Store) Recover() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.recovered || s.closed {
		return fmt.Errorf("journal: store not open for recovery")
	}
	ack := s.w.Seq()
	if s.f != nil {
		// Best-effort: the fd may already be poisoned by the failed write.
		_ = s.f.Close()
		s.f = nil
	}
	var live uint64
	err := s.reopenWAL(func(rec Record) error {
		if rec.Seq > ack {
			return errUnacked
		}
		if rec.Seq > s.checkpointSeq {
			live++
		}
		return nil
	})
	if err != nil {
		return err
	}
	s.walRecords = live
	s.newWriter(ack)
	return nil
}

// reopenWAL opens the write-ahead log for reading and appending, streams it
// through Scan with fn, and truncates whatever follows the valid prefix: a
// torn tail, or the records fn refused with errUnacked. It installs the
// file as s.f with walBytes at the kept length; the caller installs the
// Writer. Caller holds s.mu.
func (s *Store) reopenWAL(fn func(Record) error) error {
	f, err := os.OpenFile(filepath.Join(s.dir, walFile), os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("journal: open wal: %w", err)
	}
	valid, err := Scan(f, fn)
	if err != nil && !errors.Is(err, errUnacked) {
		f.Close()
		return err
	}
	fi, err := f.Stat()
	if err == nil && valid < fi.Size() {
		err = f.Truncate(valid)
	}
	if err != nil {
		f.Close()
		return fmt.Errorf("journal: truncate wal: %w", err)
	}
	s.f = f
	s.walBytes.Store(valid)
	return nil
}

// tailScan streams the write-ahead log through Scan on a read-only handle of
// its own, without the store lock; an absent log holds no records. A stop
// with errUnacked is a clean end.
func (s *Store) tailScan(fn func(Record) error) error {
	f, err := os.Open(filepath.Join(s.dir, walFile))
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("journal: tail open wal: %w", err)
	}
	defer f.Close()
	if _, err := Scan(f, fn); err != nil && !errors.Is(err, errUnacked) {
		return err
	}
	return nil
}

// newWriter installs a fresh Writer appending to s.f after seq, through the
// wrap hook and stamped with the store's epoch. Caller holds s.mu.
func (s *Store) newWriter(seq uint64) {
	s.w = NewWriter(s.wrap(&countingWS{f: s.f, n: &s.walBytes}), seq)
	s.w.SetEpoch(s.epoch)
}

// Append journals one mutation as a one-op AppendBatch: framed, written,
// and fsync'd before it returns. It must not be called before Replay.
func (s *Store) Append(op string, data any) (uint64, error) {
	recs, err := s.AppendBatch([]BatchOp{{Op: op, Data: data}})
	if err != nil {
		return 0, err
	}
	return recs[0].Seq, nil
}

// AppendBatch journals every op with one buffered write and one fsync,
// returning the committed records in order. All-or-nothing: on failure no
// sequence number is consumed and no record is acknowledged.
func (s *Store) AppendBatch(ops []BatchOp) ([]Record, error) {
	if len(ops) == 0 {
		return nil, nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.recovered || s.closed {
		return nil, fmt.Errorf("journal: store not open for appends")
	}
	recs, err := s.w.AppendBatch(ops)
	if err != nil {
		return nil, err
	}
	s.walRecords += uint64(len(recs))
	s.batches++
	s.batchRecords += uint64(len(recs))
	return recs, nil
}

// WriteCheckpoint atomically persists a new snapshot — the caller's write
// callback streams the payload — and resets the write-ahead log. The caller
// must guarantee no mutation is in flight (freeze the state it snapshots)
// so the snapshot and the log agree on the covered sequence number.
func (s *Store) WriteCheckpoint(write func(io.Writer) error) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.recovered || s.closed {
		return fmt.Errorf("journal: store not open for checkpoints")
	}
	seq := s.w.Seq()
	tmp := filepath.Join(s.dir, checkpointTemp)
	f, err := os.Create(tmp)
	if err != nil {
		return fmt.Errorf("journal: create checkpoint temp: %w", err)
	}
	meta, _ := json.Marshal(checkpointMeta{Seq: seq, Epoch: s.epoch})
	err = func() error {
		if _, err := f.Write(append(meta, '\n')); err != nil {
			return err
		}
		if err := write(f); err != nil {
			return err
		}
		return f.Sync()
	}()
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(tmp)
		return fmt.Errorf("journal: write checkpoint: %w", err)
	}
	final := filepath.Join(s.dir, checkpointFile)
	if err := os.Rename(tmp, final); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("journal: install checkpoint: %w", err)
	}
	if err := syncDir(s.dir); err != nil {
		// The rename landed but its directory entry may not be durable
		// yet. Counting instead of failing keeps checkpointing available
		// on filesystems that refuse directory syncs, while making the
		// degraded guarantee observable through Stats and /api/health.
		s.dirSyncErrors.Add(1)
	}
	fi, err := os.Stat(final)
	if err != nil {
		return fmt.Errorf("journal: stat checkpoint: %w", err)
	}
	s.checkpointSeq = seq
	s.checkpointAt = fi.ModTime()
	s.checkpointBytes = fi.Size()

	// The snapshot now covers every journaled record; truncate the log. A
	// crash before the truncate is safe — replay skips seq <= checkpoint.
	wal := filepath.Join(s.dir, walFile)
	if s.f != nil {
		if err := s.f.Close(); err != nil {
			return fmt.Errorf("journal: close wal: %w", err)
		}
	}
	f2, err := os.OpenFile(wal, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("journal: reset wal: %w", err)
	}
	s.f = f2
	s.walBytes.Store(0)
	s.walRecords = 0
	s.newWriter(seq)
	return nil
}

// SetEpoch bumps the leadership epoch stamped on new records. Epochs only
// move forward; a value at or below the current epoch is a no-op. Promotion
// calls this after draining the old leader's tail and before accepting
// writes, so every post-promotion record carries the new term.
func (s *Store) SetEpoch(epoch uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if epoch > s.epoch {
		s.epoch = epoch
		if s.w != nil {
			s.w.SetEpoch(epoch)
		}
	}
}

// Epoch returns the current leadership epoch.
func (s *Store) Epoch() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.epoch
}

// AdvanceTo fast-forwards the writer's sequence cursor to seq without
// writing anything, so the next append is seq+1. A promoted follower calls
// this on its freshly-created journal directory: the follower's applied
// state covers everything up to its replication cursor, and new writes must
// continue that line rather than restart from zero. Only forward moves are
// allowed, and only on an empty log segment — rewinding, or jumping over
// live records, would orphan journaled state.
func (s *Store) AdvanceTo(seq uint64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.recovered || s.closed {
		return fmt.Errorf("journal: store not open for advance")
	}
	if s.walRecords != 0 {
		return fmt.Errorf("journal: advance over %d live records", s.walRecords)
	}
	if cur := s.w.Seq(); seq < cur {
		return fmt.Errorf("journal: advance to %d behind current %d", seq, cur)
	}
	s.newWriter(seq)
	return nil
}

// Stats describe the durability state for health reporting.
type Stats struct {
	// Dir is the journal directory.
	Dir string `json:"dir"`
	// Seq is the last journaled sequence number.
	Seq uint64 `json:"seq"`
	// CheckpointSeq is the last sequence folded into the checkpoint.
	CheckpointSeq uint64 `json:"checkpoint_seq"`
	// Epoch is the leadership term stamped on new records; zero until the
	// first failover.
	Epoch uint64 `json:"epoch,omitempty"`
	// WALRecords counts live records in the write-ahead log.
	WALRecords uint64 `json:"wal_records"`
	// WALBytes is the log's on-disk size.
	WALBytes int64 `json:"wal_bytes"`
	// CheckpointAt is the last checkpoint's time, zero if none.
	CheckpointAt time.Time `json:"checkpoint_at"`
	// CheckpointBytes is the checkpoint's on-disk size.
	CheckpointBytes int64 `json:"checkpoint_bytes"`
	// DirSyncErrors counts checkpoint installs whose directory fsync
	// failed — the rename may not survive a crash. Non-zero means
	// durability is degraded even though appends still succeed.
	DirSyncErrors uint64 `json:"dir_sync_errors"`
	// Batches counts group-commit fsync windows over the store's lifetime.
	Batches uint64 `json:"batches,omitempty"`
	// BatchRecords counts records those windows covered.
	BatchRecords uint64 `json:"batch_records,omitempty"`
	// FsyncsSaved = BatchRecords - Batches: syncs that per-record append
	// would have paid but group commit amortized away.
	FsyncsSaved uint64 `json:"fsyncs_saved,omitempty"`
	// Err reports a sticky journal write failure, empty when healthy.
	Err string `json:"err,omitempty"`
}

// Stats returns the current durability state.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := Stats{
		Dir:             s.dir,
		CheckpointSeq:   s.checkpointSeq,
		Epoch:           s.epoch,
		WALRecords:      s.walRecords,
		WALBytes:        s.walBytes.Load(),
		CheckpointAt:    s.checkpointAt,
		CheckpointBytes: s.checkpointBytes,
		DirSyncErrors:   s.dirSyncErrors.Load(),
		Batches:         s.batches,
		BatchRecords:    s.batchRecords,
	}
	if s.batchRecords > s.batches {
		st.FsyncsSaved = s.batchRecords - s.batches
	}
	if s.w != nil {
		st.Seq = s.w.Seq()
		if err := s.w.Err(); err != nil {
			st.Err = err.Error()
		}
	} else {
		st.Seq = s.checkpointSeq
	}
	return st
}

// Close releases the write-ahead log file. Further appends fail.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	if s.f != nil {
		return s.f.Close()
	}
	return nil
}

// countingWS tracks the bytes that actually reached the file, so health
// stats reflect on-disk size even after a severed partial write.
type countingWS struct {
	f *os.File
	n *atomic.Int64
}

func (c *countingWS) Write(p []byte) (int, error) {
	n, err := c.f.Write(p)
	c.n.Add(int64(n))
	return n, err
}

func (c *countingWS) Sync() error { return c.f.Sync() }

// syncDir fsyncs a directory so a rename is durable. The caller decides
// what a failure means — WriteCheckpoint counts it rather than failing the
// checkpoint, since some filesystems refuse directory syncs entirely.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}
