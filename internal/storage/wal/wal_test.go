package wal

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"prima/internal/storage/device"
)

// collectApplier records every redo/undo call for inspection.
type collectApplier struct {
	redo []Record
	undo []Record
}

func (c *collectApplier) Redo(r *Record) error {
	c.redo = append(c.redo, *r.clone())
	return nil
}

func (c *collectApplier) Undo(r *Record) error {
	c.undo = append(c.undo, *r.clone())
	return nil
}

func openLog(t *testing.T, files *device.Manager, opts Options) *Log {
	t.Helper()
	l, err := Open(files, opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Recover(nil); err != nil {
		t.Fatal(err)
	}
	// Persist the recovery-bumped generation, like the owning system's
	// post-recovery checkpoint does — without it, records appended now are
	// (by design) invisible to the next incarnation.
	if err := l.EndCheckpoint(l.BeginCheckpoint()); err != nil {
		t.Fatal(err)
	}
	return l
}

func TestAppendFlushReopenScan(t *testing.T) {
	files := device.NewManager(t.TempDir())
	l := openLog(t, files, Options{SegmentBlocks: 4})
	var want []Record
	for i := 0; i < 20; i++ {
		r := Record{
			Kind:     Kind(i%3) + RecInsert,
			TxID:     uint64(i % 4),
			Addr:     uint64(1000 + i),
			TypeName: "item",
			Undo:     []byte(fmt.Sprintf("undo-%d", i)),
			Redo:     []byte(fmt.Sprintf("redo-%d-with-some-padding", i)),
		}
		if _, err := l.Append(&r); err != nil {
			t.Fatal(err)
		}
		want = append(want, *r.clone())
	}
	if err := l.Commit(7); err != nil {
		t.Fatal(err)
	}
	if l.Durable() != l.WriteLSN() {
		t.Fatalf("durable %d != write %d after commit", l.Durable(), l.WriteLSN())
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2, err := Open(files, Options{SegmentBlocks: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	ap := &collectApplier{}
	st, err := l2.Recover(ap)
	if err != nil {
		t.Fatal(err)
	}
	// The open-time checkpoint record + 20 ops + 1 commit; every op redone.
	if st.Records != 22 {
		t.Fatalf("records = %d, want 22", st.Records)
	}
	if int(st.Redone) != len(want) {
		t.Fatalf("redone = %d, want %d", st.Redone, len(want))
	}
	for i, r := range ap.redo {
		w := want[i]
		if r.Kind != w.Kind || r.TxID != w.TxID || r.Addr != w.Addr ||
			r.TypeName != w.TypeName || string(r.Undo) != string(w.Undo) || string(r.Redo) != string(w.Redo) {
			t.Fatalf("redo[%d] = %+v, want %+v", i, r, w)
		}
	}
	// txids 1,2,3 appear without commit or abort; txid 0 is autocommit.
	if st.Losers != 3 {
		t.Fatalf("losers = %d, want 3", st.Losers)
	}
	// Loser ops are undone in reverse global order.
	for i := 1; i < len(ap.undo); i++ {
		if ap.undo[i-1].Addr < ap.undo[i].Addr {
			t.Fatalf("undo out of reverse order: %d before %d", ap.undo[i-1].Addr, ap.undo[i].Addr)
		}
	}
}

func TestAppendRequiresRecover(t *testing.T) {
	files := device.NewManager("")
	l, err := Open(files, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if _, err := l.Append(&Record{Kind: RecInsert}); !errors.Is(err, ErrNotRecovered) {
		t.Fatalf("append before recover = %v, want ErrNotRecovered", err)
	}
}

func TestTornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	files := device.NewManager(dir)
	l := openLog(t, files, Options{SegmentBlocks: 4})
	for i := 0; i < 5; i++ {
		if _, err := l.Append(&Record{Kind: RecInsert, TxID: 1, Addr: uint64(i), Redo: []byte("x")}); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Commit(1); err != nil {
		t.Fatal(err)
	}
	l.Close()
	// Simulate a torn flush: corrupt a byte in the middle of the last
	// record's frame directly on the device.
	d, err := files.Open(segName(0), device.B8K)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, device.B8K)
	if err := d.ReadBlock(0, buf); err != nil {
		t.Fatal(err)
	}
	// Find the last nonzero byte and flip it (inside the commit record).
	last := -1
	for i, b := range buf {
		if b != 0 {
			last = i
		}
	}
	buf[last] ^= 0xff
	if err := d.WriteBlock(0, buf); err != nil {
		t.Fatal(err)
	}
	if err := d.Sync(); err != nil {
		t.Fatal(err)
	}

	l2, err := Open(files, Options{SegmentBlocks: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	ap := &collectApplier{}
	st, err := l2.Recover(ap)
	if err != nil {
		t.Fatal(err)
	}
	// The torn commit record is cut off: the open-time checkpoint record and
	// 5 ops survive, tx 1 is a loser.
	if st.Records != 6 {
		t.Fatalf("records = %d, want 6", st.Records)
	}
	if st.Losers != 1 || st.Winners != 0 {
		t.Fatalf("losers/winners = %d/%d, want 1/0", st.Losers, st.Winners)
	}
	if len(ap.undo) != 5 {
		t.Fatalf("undone = %d, want 5", len(ap.undo))
	}
	// The log stays appendable after truncation.
	if _, err := l2.Append(&Record{Kind: RecInsert, TxID: 2, Addr: 99, Redo: []byte("y")}); err != nil {
		t.Fatal(err)
	}
	if err := l2.Commit(2); err != nil {
		t.Fatal(err)
	}
}

func TestStaleRecordsBeyondEndRejected(t *testing.T) {
	dir := t.TempDir()
	files := device.NewManager(dir)
	l := openLog(t, files, Options{SegmentBlocks: 4})
	// First life: a committed tx then an uncommitted one.
	for i := 0; i < 3; i++ {
		if _, err := l.Append(&Record{Kind: RecInsert, TxID: 1, Addr: uint64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Commit(1); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := l.Append(&Record{Kind: RecUpdate, TxID: 2, Addr: uint64(10 + i), Undo: []byte("u"), Redo: []byte("r")}); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.FlushTo(l.WriteLSN()); err != nil {
		t.Fatal(err)
	}
	l.Close()

	// Second life: recover (gen bump), append less than the stale tail held,
	// then crash again without the post-recovery checkpoint having happened.
	l2, err := Open(files, Options{SegmentBlocks: 4})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l2.Recover(&collectApplier{}); err != nil {
		t.Fatal(err)
	}
	if _, err := l2.Append(&Record{Kind: RecDelete, TxID: 3, Addr: 77, Undo: []byte("old")}); err != nil {
		t.Fatal(err)
	}
	if err := l2.Commit(3); err != nil {
		t.Fatal(err)
	}
	// Make the new generation durable like the owner's post-recovery
	// checkpoint would.
	if err := l2.EndCheckpoint(l2.BeginCheckpoint()); err != nil {
		t.Fatal(err)
	}
	l2.Close()

	// Third life: the old tx-2 records physically follow the new tx-3
	// records but are from the previous generation — they must not resurface.
	l3, err := Open(files, Options{SegmentBlocks: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer l3.Close()
	ap := &collectApplier{}
	if _, err := l3.Recover(ap); err != nil {
		t.Fatal(err)
	}
	for _, r := range ap.redo {
		if r.TxID == 2 {
			t.Fatalf("stale record from previous generation replayed: %+v", r)
		}
	}
}

func TestGroupCommitBatching(t *testing.T) {
	files := device.NewManager(t.TempDir())
	l := openLog(t, files, Options{})
	const committers = 8
	const each = 10
	var wg sync.WaitGroup
	for c := 0; c < committers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				txid := uint64(1 + c*each + i)
				if _, err := l.Append(&Record{Kind: RecInsert, TxID: txid, Addr: txid}); err != nil {
					t.Error(err)
					return
				}
				if err := l.Commit(txid); err != nil {
					t.Error(err)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	st := l.Stats()
	if st.Commits != committers*each {
		t.Fatalf("commits = %d, want %d", st.Commits, committers*each)
	}
	if st.Batches == 0 || st.Batches > st.Commits {
		t.Fatalf("batches = %d out of range (commits %d)", st.Batches, st.Commits)
	}
	if st.Syncs < st.Batches {
		t.Fatalf("syncs %d < batches %d", st.Syncs, st.Batches)
	}
	t.Logf("commits=%d batches=%d syncs=%d", st.Commits, st.Batches, st.Syncs)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestCheckpointTruncatesSegments(t *testing.T) {
	dir := t.TempDir()
	files := device.NewManager(dir)
	// Tiny segments so the log spans several.
	l := openLog(t, files, Options{SegmentBlocks: 1})
	payload := make([]byte, 1024)
	var committed []uint64
	for i := 0; i < 40; i++ {
		txid := uint64(i + 1)
		if _, err := l.Append(&Record{Kind: RecInsert, TxID: txid, Addr: txid, Redo: payload}); err != nil {
			t.Fatal(err)
		}
		if err := l.Commit(txid); err != nil {
			t.Fatal(err)
		}
		committed = append(committed, txid)
	}
	// No active transactions: the checkpoint truncates everything before it.
	if err := l.EndCheckpoint(l.BeginCheckpoint()); err != nil {
		t.Fatal(err)
	}
	names := files.Names()
	segCount := 0
	for _, n := range names {
		if len(n) > 4 && n[:4] == "wal_" && n != "wal.meta" {
			segCount++
		}
	}
	if segCount > 2 {
		t.Fatalf("%d log segments survive a full checkpoint: %v", segCount, names)
	}
	// Records after the checkpoint still recover; records before don't replay.
	if _, err := l.Append(&Record{Kind: RecUpdate, TxID: 100, Addr: 100, Undo: payload[:8], Redo: payload[:8]}); err != nil {
		t.Fatal(err)
	}
	if err := l.Commit(100); err != nil {
		t.Fatal(err)
	}
	l.Close()

	l2, err := Open(files, Options{SegmentBlocks: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	ap := &collectApplier{}
	if _, err := l2.Recover(ap); err != nil {
		t.Fatal(err)
	}
	for _, r := range ap.redo {
		for _, c := range committed {
			if r.TxID == c {
				t.Fatalf("pre-checkpoint record %d replayed after truncation", c)
			}
		}
	}
	found := false
	for _, r := range ap.redo {
		if r.TxID == 100 {
			found = true
		}
	}
	if !found {
		t.Fatal("post-checkpoint record not replayed")
	}
}

func TestCheckpointKeepsActiveTransactions(t *testing.T) {
	files := device.NewManager(t.TempDir())
	l := openLog(t, files, Options{SegmentBlocks: 1})
	// tx 1 stays active across the checkpoint.
	if _, err := l.Append(&Record{Kind: RecInsert, TxID: 1, Addr: 1, Redo: []byte("keep")}); err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, 1024)
	for i := 0; i < 20; i++ {
		txid := uint64(100 + i)
		if _, err := l.Append(&Record{Kind: RecInsert, TxID: txid, Addr: txid, Redo: payload}); err != nil {
			t.Fatal(err)
		}
		if err := l.Commit(txid); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.EndCheckpoint(l.BeginCheckpoint()); err != nil {
		t.Fatal(err)
	}
	l.Close()

	l2, err := Open(files, Options{SegmentBlocks: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	ap := &collectApplier{}
	if _, err := l2.Recover(ap); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, r := range ap.redo {
		if r.TxID == 1 && string(r.Redo) == "keep" {
			found = true
		}
	}
	if !found {
		t.Fatal("active transaction's record lost by checkpoint truncation")
	}
	// It never committed, so it must be undone.
	if len(ap.undo) == 0 || ap.undo[0].TxID != 1 {
		t.Fatalf("active transaction not undone: %+v", ap.undo)
	}
}

// A transaction that begins AND commits while a checkpoint is in progress is
// in neither active table the checkpoint sees — but its page writes may have
// landed after the checkpoint's page flush. The replay start must not
// advance past its records: after a crash before writeback, redo must
// reproduce them.
func TestCheckpointKeepsCommitDuringCheckpoint(t *testing.T) {
	files := device.NewManager(t.TempDir())
	l := openLog(t, files, Options{SegmentBlocks: 1})
	// Fill a few segments with committed work the checkpoint may truncate.
	payload := make([]byte, 1024)
	for i := 0; i < 20; i++ {
		txid := uint64(100 + i)
		if _, err := l.Append(&Record{Kind: RecInsert, TxID: txid, Addr: txid, Redo: payload}); err != nil {
			t.Fatal(err)
		}
		if err := l.Commit(txid); err != nil {
			t.Fatal(err)
		}
	}
	tok := l.BeginCheckpoint()
	// tx 7 begins and durably commits between the checkpoint's begin (page
	// flush happens here in the owner) and its end.
	if _, err := l.Append(&Record{Kind: RecInsert, TxID: 7, Addr: 7, Redo: []byte("during-cp")}); err != nil {
		t.Fatal(err)
	}
	if err := l.Commit(7); err != nil {
		t.Fatal(err)
	}
	if err := l.EndCheckpoint(tok); err != nil {
		t.Fatal(err)
	}
	// Crash: drop the log without further flushing and recover a new one.
	l.Close()
	l2, err := Open(files, Options{SegmentBlocks: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	ap := &collectApplier{}
	st, err := l2.Recover(ap)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, r := range ap.redo {
		if r.TxID == 7 && string(r.Redo) == "during-cp" {
			found = true
		}
	}
	if !found {
		t.Fatalf("acknowledged commit during checkpoint lost by truncation (redone %d)", st.Redone)
	}
	for _, r := range ap.undo {
		if r.TxID == 7 {
			t.Fatal("committed transaction 7 undone")
		}
	}
}

// An autocommit (TxID 0) mutation in flight when a checkpoint begins is
// never in the active-transaction table; its OpBegin must pin the
// replay start instead.
func TestCheckpointKeepsInflightAutocommitOp(t *testing.T) {
	files := device.NewManager(t.TempDir())
	l := openLog(t, files, Options{SegmentBlocks: 1})
	op := l.OpBegin()
	lsn, err := l.Append(&Record{Kind: RecInsert, TxID: 0, Addr: 42, Redo: []byte("autocommit")})
	if err != nil {
		t.Fatal(err)
	}
	// The checkpoint runs while the op's page writes are still in flight.
	tok := l.BeginCheckpoint()
	if err := l.EndCheckpoint(tok); err != nil {
		t.Fatal(err)
	}
	l.OpEnd(op)
	if err := l.FlushTo(l.WriteLSN()); err != nil {
		t.Fatal(err)
	}
	l.Close()

	l2, err := Open(files, Options{SegmentBlocks: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if l2.start > lsn {
		t.Fatalf("replay start %d advanced past in-flight op record %d", l2.start, lsn)
	}
	ap := &collectApplier{}
	if _, err := l2.Recover(ap); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, r := range ap.redo {
		if r.Addr == 42 && string(r.Redo) == "autocommit" {
			found = true
		}
	}
	if !found {
		t.Fatal("in-flight autocommit record lost by checkpoint truncation")
	}
}

// A released op span no longer pins the replay start.
func TestOpSpanReleaseUnpins(t *testing.T) {
	files := device.NewManager(t.TempDir())
	l := openLog(t, files, Options{SegmentBlocks: 1})
	op := l.OpBegin()
	if _, err := l.Append(&Record{Kind: RecInsert, TxID: 0, Addr: 1, Redo: make([]byte, 1024)}); err != nil {
		t.Fatal(err)
	}
	l.OpEnd(op)
	before := l.WriteLSN()
	if err := l.EndCheckpoint(l.BeginCheckpoint()); err != nil {
		t.Fatal(err)
	}
	l.mu.Lock()
	start := l.start
	l.mu.Unlock()
	if start < before {
		t.Fatalf("released op span still pins replay start (%d < %d)", start, before)
	}
}

// FlushTo of an already-durable position succeeds on a closed log: the pool
// may write back pages whose records are long durable while the system is
// shutting down in degraded order.
func TestFlushToAfterCloseSatisfiedGate(t *testing.T) {
	files := device.NewManager(t.TempDir())
	l := openLog(t, files, Options{})
	if _, err := l.Append(&Record{Kind: RecInsert, TxID: 1, Addr: 1}); err != nil {
		t.Fatal(err)
	}
	if err := l.Commit(1); err != nil {
		t.Fatal(err)
	}
	durable := l.Durable()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if err := l.FlushTo(durable); err != nil {
		t.Fatalf("FlushTo(durable) on closed log = %v, want nil", err)
	}
	if err := l.FlushTo(durable + 1); !errors.Is(err, ErrClosed) {
		t.Fatalf("FlushTo past durable on closed log = %v, want ErrClosed", err)
	}
}

// A segment file leaked by a failed removal in a previous incarnation (so it
// is never reopened — recovery scans from the replay start) is reclaimed by
// the floor sweep of a later checkpoint.
func TestRecycleSweepsLeakedSegments(t *testing.T) {
	dir := t.TempDir()
	files := device.NewManager(dir)
	l := openLog(t, files, Options{SegmentBlocks: 1})
	payload := make([]byte, 1024)
	for i := 0; i < 40; i++ {
		txid := uint64(i + 1)
		if _, err := l.Append(&Record{Kind: RecInsert, TxID: txid, Addr: txid, Redo: payload}); err != nil {
			t.Fatal(err)
		}
		if err := l.Commit(txid); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.EndCheckpoint(l.BeginCheckpoint()); err != nil {
		t.Fatal(err)
	}
	l.mu.Lock()
	floor := l.floor
	l.mu.Unlock()
	if floor == 0 {
		t.Fatal("checkpoint did not advance the recycle floor")
	}
	l.Close()

	// Simulate the leak: resurrect a segment file behind the floor, as a
	// failed Remove before a crash would leave it, and rewind the durable
	// floor to cover it (the floor never advances past a failed removal).
	leaked := filepath.Join(dir, segName(0))
	if err := os.WriteFile(leaked, make([]byte, blockSize), 0o644); err != nil {
		t.Fatal(err)
	}
	l2, err := Open(files, Options{SegmentBlocks: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	l2.mu.Lock()
	l2.floor = 0
	l2.mu.Unlock()
	if _, err := l2.Recover(nil); err != nil {
		t.Fatal(err)
	}
	if err := l2.EndCheckpoint(l2.BeginCheckpoint()); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(leaked); !os.IsNotExist(err) {
		t.Fatalf("leaked segment %s not reclaimed by floor sweep (err=%v)", leaked, err)
	}
}

func TestRecordTooLarge(t *testing.T) {
	files := device.NewManager("")
	l := openLog(t, files, Options{SegmentBlocks: 1})
	if _, err := l.Append(&Record{Kind: RecInsert, Redo: make([]byte, 9000)}); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("oversized append = %v, want ErrTooLarge", err)
	}
	l.Close()
}

func TestRecordCodecRoundtrip(t *testing.T) {
	in := Record{
		Kind: RecUpdate, TxID: 42, Addr: 7, TypeName: "widget",
		Undo: []byte{1, 2, 3}, Redo: []byte{9, 8},
	}
	buf := appendPayload(nil, &in)
	out, err := decodePayload(buf)
	if err != nil {
		t.Fatal(err)
	}
	if out.Kind != in.Kind || out.TxID != in.TxID || out.Addr != in.Addr || out.TypeName != in.TypeName {
		t.Fatalf("roundtrip mismatch: %+v vs %+v", out, in)
	}
	if string(out.Undo) != string(in.Undo) || string(out.Redo) != string(in.Redo) {
		t.Fatalf("image mismatch: %+v vs %+v", out, in)
	}
	// Truncated payloads must error, not panic.
	for i := 0; i < len(buf); i++ {
		if _, err := decodePayload(buf[:i]); err == nil {
			t.Fatalf("truncated payload at %d decoded without error", i)
		}
	}

	cp := Record{Kind: RecCheckpoint, Active: map[uint64]uint64{3: 100, 9: 250}}
	cbuf := appendPayload(nil, &cp)
	cout, err := decodePayload(cbuf)
	if err != nil {
		t.Fatal(err)
	}
	if len(cout.Active) != 2 || cout.Active[3] != 100 || cout.Active[9] != 250 {
		t.Fatalf("active mismatch: %v", cout.Active)
	}
	for i := 1; i < len(cbuf); i++ {
		if _, err := decodePayload(cbuf[:i]); err == nil {
			t.Fatalf("truncated checkpoint payload at %d decoded without error", i)
		}
	}
}
