package journal

import (
	"bytes"
	"encoding/json"
	"errors"
	"sync"
	"testing"
	"time"
)

func TestWriterAppendBatchOneSyncPerBatch(t *testing.T) {
	ws := &memWS{}
	w := NewWriter(ws, 0)
	ops := make([]BatchOp, 10)
	for i := range ops {
		ops[i] = BatchOp{Op: "op", Data: map[string]int{"i": i}}
	}
	recs, err := w.AppendBatch(ops)
	if err != nil {
		t.Fatal(err)
	}
	if ws.syncs != 1 {
		t.Errorf("syncs = %d, want 1 for the whole batch", ws.syncs)
	}
	if len(recs) != 10 {
		t.Fatalf("got %d records, want 10", len(recs))
	}
	for i, r := range recs {
		if r.Seq != uint64(i+1) {
			t.Errorf("recs[%d].Seq = %d, want %d", i, r.Seq, i+1)
		}
	}
	decoded, valid, err := scanAll(ws.buf.Bytes())
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if valid != int64(ws.buf.Len()) || len(decoded) != 10 {
		t.Fatalf("decoded %d records over %d/%d bytes", len(decoded), valid, ws.buf.Len())
	}
	// A single append after a batch continues the sequence.
	seq, err := w.Append("op", map[string]int{"i": 10})
	if err != nil || seq != 11 {
		t.Fatalf("append after batch: seq %d, %v", seq, err)
	}
}

// TestAppendBatchTornAtEveryOffset cuts the journal at every byte offset
// inside a batched append and proves recovery always yields a prefix of
// whole records: the two records already durable plus zero or more complete
// records of the torn batch — never a partial record, never an error.
func TestAppendBatchTornAtEveryOffset(t *testing.T) {
	// First measure how many bytes the batch writes.
	probe := &memWS{}
	pw := NewWriter(probe, 0)
	if _, err := pw.Append("pre", map[string]int{"i": -1}); err != nil {
		t.Fatal(err)
	}
	preLen := probe.buf.Len()
	batch := []BatchOp{
		{Op: "op", Data: map[string]string{"k": "first-record-of-batch"}},
		{Op: "op", Data: map[string]string{"k": "second"}},
		{Op: "op", Data: map[string]string{"k": "third-and-longest-record-of-the-batch"}},
	}
	recs, err := pw.AppendBatch(batch)
	if err != nil {
		t.Fatal(err)
	}
	batchLen := probe.buf.Len() - preLen
	// Byte offsets where each whole record of the batch ends.
	ends := make([]int, 0, len(recs))
	off := 0
	for _, r := range recs {
		b, err := EncodeRecord(r)
		if err != nil {
			t.Fatal(err)
		}
		off += len(b)
		ends = append(ends, off)
	}
	if ends[len(ends)-1] != batchLen {
		t.Fatalf("frame sizes %v do not add up to batch length %d", ends, batchLen)
	}

	for cut := 0; cut <= batchLen; cut++ {
		ws := &memWS{}
		w := NewWriter(ws, 0)
		if _, err := w.Append("pre", map[string]int{"i": -1}); err != nil {
			t.Fatal(err)
		}
		fw := NewFaultWriter(ws, int64(cut), false)
		fjw := NewWriter(fw, w.Seq())
		if _, err := fjw.AppendBatch(batch); cut < batchLen && err == nil {
			t.Fatalf("cut %d: torn batch append succeeded", cut)
		}
		wantWhole := 0
		for _, e := range ends {
			if cut >= e {
				wantWhole++
			}
		}
		decoded, _, err := scanAll(ws.buf.Bytes())
		if err != nil {
			t.Fatalf("cut %d: recovery error: %v", cut, err)
		}
		if len(decoded) != 1+wantWhole {
			t.Fatalf("cut %d: recovered %d records, want 1+%d", cut, len(decoded), wantWhole)
		}
		for i, r := range decoded {
			if r.Seq != uint64(i+1) {
				t.Fatalf("cut %d: recovered seq %d at position %d", cut, r.Seq, i)
			}
		}
	}
}

func TestGroupCommitConcurrentAppends(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Replay(nil); err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	var mu sync.Mutex
	var committed []uint64
	g := NewGroup(st, GroupConfig{
		MaxWait: 2 * time.Millisecond,
		OnCommit: func(recs []Record) {
			mu.Lock()
			for _, r := range recs {
				committed = append(committed, r.Seq)
			}
			mu.Unlock()
		},
	})
	defer g.Close()

	const writers = 32
	var wg sync.WaitGroup
	seqs := make([]uint64, writers)
	for i := 0; i < writers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rec, err := g.Append("op", map[string]int{"writer": i})
			if err != nil {
				t.Errorf("writer %d: %v", i, err)
				return
			}
			seqs[i] = rec.Seq
		}(i)
	}
	wg.Wait()

	seen := make(map[uint64]bool, writers)
	for i, s := range seqs {
		if s == 0 || seen[s] {
			t.Fatalf("writer %d got seq %d (dup or zero)", i, s)
		}
		seen[s] = true
	}
	// OnCommit must deliver every record exactly once, in sequence order —
	// the replication tail ring depends on it.
	mu.Lock()
	defer mu.Unlock()
	if len(committed) != writers {
		t.Fatalf("OnCommit saw %d records, want %d", len(committed), writers)
	}
	for i := 1; i < len(committed); i++ {
		if committed[i] <= committed[i-1] {
			t.Fatalf("OnCommit out of order at %d: %v", i, committed)
		}
	}
	// Durability: everything a caller was told is committed must replay.
	stats := st.Stats()
	if stats.WALRecords != writers {
		t.Errorf("WALRecords = %d, want %d", stats.WALRecords, writers)
	}
	if stats.BatchRecords < stats.Batches {
		t.Errorf("batch stats inconsistent: %+v", stats)
	}
}

func TestGroupAppendManyKeepsBatchContiguous(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Replay(nil); err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	g := NewGroup(st, GroupConfig{MaxWait: time.Millisecond})
	defer g.Close()

	const callers, per = 8, 5
	var wg sync.WaitGroup
	results := make([][]Record, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ops := make([]BatchOp, per)
			for j := range ops {
				ops[j] = BatchOp{Op: "op", Data: map[string]int{"c": i, "j": j}}
			}
			recs, err := g.AppendMany(ops)
			if err != nil {
				t.Errorf("caller %d: %v", i, err)
				return
			}
			results[i] = recs
		}(i)
	}
	wg.Wait()
	for i, recs := range results {
		if len(recs) != per {
			t.Fatalf("caller %d got %d records", i, len(recs))
		}
		for j := 1; j < len(recs); j++ {
			if recs[j].Seq != recs[j-1].Seq+1 {
				t.Errorf("caller %d records not contiguous: %d then %d", i, recs[j-1].Seq, recs[j].Seq)
			}
		}
		var got struct{ C, J int }
		if err := json.Unmarshal(recs[per-1].Data, &got); err != nil || got.C != i || got.J != per-1 {
			t.Errorf("caller %d last payload = %+v, %v", i, got, err)
		}
	}
}

func TestGroupClosedRefusesAppends(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Replay(nil); err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	g := NewGroup(st, GroupConfig{})
	g.Close()
	if _, err := g.Append("op", map[string]int{"i": 0}); !errors.Is(err, ErrGroupClosed) {
		t.Fatalf("append after close = %v, want ErrGroupClosed", err)
	}
	g.Close() // double close must be safe
}

func TestGroupSurfacesWriteFailure(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Replay(nil); err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	g := NewGroup(st, GroupConfig{})
	defer g.Close()
	if _, err := g.Append("op", func() {}); err == nil {
		t.Fatal("unmarshalable payload accepted")
	}
	// The group must stay usable after a marshal refusal.
	if _, err := g.Append("op", map[string]int{"i": 1}); err != nil {
		t.Fatalf("append after refused payload: %v", err)
	}
}

func TestWriterAppendBatchEmptyAndOversized(t *testing.T) {
	ws := &memWS{}
	w := NewWriter(ws, 0)
	recs, err := w.AppendBatch(nil)
	if err != nil || len(recs) != 0 {
		t.Fatalf("empty batch: %v, %d recs", err, len(recs))
	}
	if ws.syncs != 0 {
		t.Errorf("empty batch synced")
	}
	huge := bytes.Repeat([]byte("x"), MaxRecord+1)
	_, err = w.AppendBatch([]BatchOp{
		{Op: "ok", Data: map[string]int{"i": 0}},
		{Op: "big", Data: map[string]string{"v": string(huge)}},
	})
	if err == nil {
		t.Fatal("oversized record accepted in batch")
	}
	if ws.buf.Len() != 0 {
		t.Errorf("refused batch still wrote %d bytes", ws.buf.Len())
	}
	if _, err := w.Append("op", map[string]int{"i": 1}); err != nil {
		t.Errorf("writer unusable after refused batch: %v", err)
	}
}
