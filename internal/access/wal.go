package access

import (
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"time"

	"prima/internal/access/addr"
	"prima/internal/access/atom"
	"prima/internal/obs"
	"prima/internal/storage/wal"
)

// This file ties the access system to the write-ahead log: every atom
// mutation appends a logical redo/undo record before the physical record is
// touched, and recovery replays those records through restore, the one
// inverse that also rolls back failed sets and aborted transactions.

// openWAL opens the log, recovers the database from it, and re-checkpoints
// so the recovered state (and the log's new generation) are durable before
// any new commit is acknowledged. Called once from Open, single-threaded.
func (s *System) openWAL() error {
	wl, err := wal.Open(s.files, wal.Options{
		GroupCommitMaxWait: s.cfg.GroupCommitMaxWait,
		CheckpointBytes:    s.cfg.WALCheckpointBytes,
		AppendNs:           s.reg.Histogram("wal_append_ns"),
		FsyncNs:            s.reg.Histogram("wal_fsync_ns"),
		FlushNs:            s.reg.Histogram("wal_flush_ns"),
	})
	if err != nil {
		return fmt.Errorf("access: open wal: %w", err)
	}
	s.wal = wl
	s.walRecovering, s.walRoots = true, map[addr.LogicalAddr]bool{}
	_, rerr := wl.Recover(&walApplier{s: s})
	if rerr == nil {
		rerr = s.buildReplayedClusters()
	}
	s.walRecovering, s.walRoots = false, nil
	if rerr == nil {
		// The log gate goes in only after replay: pages dirtied by recovery
		// carry records that are already durable (they were just read from the
		// log), and the applier's page writes must not call back into the
		// still-locked log.
		s.pool.SetLogGate(wl)
		rerr = s.Checkpoint()
	}
	if rerr != nil {
		wl.Close()
		s.wal = nil
		return fmt.Errorf("access: recover: %w", rerr)
	}
	s.walStop = make(chan struct{})
	s.walDone = make(chan struct{})
	go s.walCheckpointLoop()
	return nil
}

// buildReplayedClusters builds the cluster occurrence of each atom that
// recovery replay re-created and that is still live after it.
func (s *System) buildReplayedClusters() error {
	for _, a := range slices.Sorted(maps.Keys(s.walRoots)) {
		if !s.dir.Exists(a) {
			continue // undone, or deleted later in the log
		}
		t, err := s.typeByID(a.Type())
		if err != nil {
			return err
		}
		if err := s.buildRootedClusters(t, a); err != nil {
			return err
		}
	}
	return nil
}

// writeFileAtomic replaces path via a same-directory temp file and rename,
// so a crash mid-write leaves either the old or the new snapshot — never a
// torn one.
func writeFileAtomic(path string, data []byte) error {
	dir, base := filepath.Split(path)
	f, err := os.CreateTemp(dir, base+".tmp*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	if _, err := f.Write(data); err == nil {
		err = f.Sync()
	} else {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	return nil
}

// walOpBegin marks a logged mutation as in flight for checkpointing: until
// walOpEnd ends it, a fuzzy checkpoint will not truncate the log past the
// operation's first record, even though the operation's page writes may land
// after the checkpoint's page flush. Entry points bracket their whole
// mutation (logging through physical application) with the pair; without a
// log, or during recovery replay, both are no-ops.
func (s *System) walOpBegin() uint64 {
	if s.wal == nil || s.walRecovering {
		return 0
	}
	return s.wal.OpBegin()
}

// walOpEnd ends the mutation walOpBegin began at op.
func (s *System) walOpEnd(op uint64) {
	if s.wal != nil && !s.walRecovering {
		s.wal.OpEnd(op)
	}
}

// walAppend logs one atom mutation ahead of its physical application,
// attributed to w's transaction and charged to w's span. The
// images are encoded with the atom codec into pooled scratch buffers — the
// log copies them into its write buffer before returning. An error means the
// record could not be logged and the mutation must not proceed.
func (w Writer) walAppend(kind wal.Kind, a addr.LogicalAddr, typeName string, undo, redo []atom.Value) error {
	l := w.s.wal
	if l == nil || w.s.walRecovering {
		return nil
	}
	rec := wal.Record{Kind: kind, TxID: w.txID, Addr: uint64(a), TypeName: typeName}
	var ub, rb *[]byte
	if undo != nil {
		ub = encScratch.Get().(*[]byte)
		rec.Undo = atom.AppendAtom((*ub)[:0], undo)
	}
	if redo != nil {
		rb = encScratch.Get().(*[]byte)
		rec.Redo = atom.AppendAtom((*rb)[:0], redo)
	}
	w.span.Add(obs.CtrWALBytes, int64(len(rec.Undo)+len(rec.Redo)))
	_, err := l.Append(&rec)
	if ub != nil {
		*ub = rec.Undo[:0]
		encScratch.Put(ub)
	}
	if rb != nil {
		*rb = rec.Redo[:0]
		encScratch.Put(rb)
	}
	if err != nil {
		return fmt.Errorf("access: log %s of %v: %w", kind, a, err)
	}
	return nil
}

// NewTxID returns a transaction id that no other write context of s uses:
// the transaction manager numbers its transactions with it, and an
// autocommit atom set takes one so that its records are atomic in the log.
func (s *System) NewTxID() uint64 { return s.txSeq.Add(1) }

// walMark appends the commit or abort mark of w's transaction without
// forcing the log: a crash that loses the mark leaves a loser, which
// recovery rolls back whole. Without a log, or during recovery replay, it is
// a no-op.
func (w Writer) walMark(kind wal.Kind) error {
	l := w.s.wal
	if l == nil || w.s.walRecovering {
		return nil
	}
	if _, err := l.Append(&wal.Record{Kind: kind, TxID: w.txID}); err != nil {
		return fmt.Errorf("access: log %s of transaction %d: %w", kind, w.txID, err)
	}
	return nil
}

// WALCommit durably commits the transaction's log records (group commit).
// Without a log it is a no-op — the in-memory commit already happened.
func (s *System) WALCommit(txid uint64) error {
	if s.wal == nil {
		return nil
	}
	return s.wal.Commit(txid)
}

// WALAbort marks the transaction rolled back in the log. The mark is not
// forced: losing it just makes the transaction a recovery loser, which rolls
// back to the very same state.
func (s *System) WALAbort(txid uint64) error {
	if s.wal == nil {
		return nil
	}
	return s.wal.AppendAbort(txid)
}

// WALStats returns the log counters; ok is false when no log is configured.
func (s *System) WALStats() (wal.Stats, bool) {
	if s.wal == nil {
		return wal.Stats{}, false
	}
	return s.wal.Stats(), true
}

// DDLDurable checkpoints after a schema change. The catalog only persists in
// checkpoint snapshots, and replaying a log record that names a type the
// loaded schema lacks would fail — so DDL forces its own checkpoint.
func (s *System) DDLDurable() error {
	if s.wal == nil {
		return nil
	}
	return s.Checkpoint()
}

// walCheckpointRetry is the delay before a failed growth checkpoint is
// retried. Without the retry a persistently failing checkpoint would be
// invisible until the next growth nudge — or forever, if appends stop.
const walCheckpointRetry = time.Second

// walCheckpointLoop runs checkpoints whenever the log's growth nudge fires,
// bounding replay work and recycling log segments. A failing checkpoint is
// recorded in the system's checkpoint-health field (see WALCheckpointErr)
// and retried with a delay until it succeeds or the system closes: nothing
// on the commit path ever checkpoints, so the loop itself must not let the
// log grow without bound in silence.
func (s *System) walCheckpointLoop() {
	defer close(s.walDone)
	for {
		select {
		case <-s.walStop:
			return
		case <-s.wal.Nudge():
		}
		for s.Checkpoint() != nil {
			select {
			case <-s.walStop:
				return
			case <-time.After(walCheckpointRetry):
			}
		}
	}
}

// WALCheckpointErr reports the error of the most recent checkpoint attempt,
// or nil when the last checkpoint succeeded (or none ran yet). A non-nil
// value means the log's replay prefix is not being truncated: recovery time
// and disk use grow until the cause is cleared.
func (s *System) WALCheckpointErr() error {
	if e := s.walCkptErr.Load(); e != nil {
		return *e
	}
	return nil
}

// --- recovery applier --------------------------------------------------------

// walApplier adapts the access system's one inverse, restore, to
// wal.Recover: redo restores a record's image after, undo its image before.
// Both are idempotent and state-tested, and degrade to drop-and-recreate
// when the base state a fuzzy checkpoint left behind disagrees with the
// directory snapshot (a crash between the per-device syncs of one checkpoint
// legitimately mixes state from two checkpoints; repeating history converges
// it).
type walApplier struct {
	s *System
}

// Redo repeats history: the record's post-state is enforced regardless of
// what the base state already shows.
func (ap *walApplier) Redo(r *wal.Record) error { return ap.restore(r, r.Undo, r.Redo) }

// Undo rolls a loser record back to its pre-state.
func (ap *walApplier) Undo(r *wal.Record) error { return ap.restore(r, r.Redo, r.Undo) }

// restore makes r's atom equal to the encoded image to (empty: absent) over
// from. When the directory claims a record that is stale or unreadable, the
// entry is dropped and the atom re-created from the log image: the log, not
// the heap, is authoritative.
func (ap *walApplier) restore(r *wal.Record, from, to []byte) error {
	s := ap.s
	a := addr.LogicalAddr(r.Addr)
	t, err := s.typeByID(a.Type())
	if err != nil {
		// DDL forces a checkpoint, so every replayed record's type is in the
		// loaded schema; a miss is real corruption.
		return fmt.Errorf("%w (%s)", err, r.TypeName)
	}
	fv, err := decodeImage(from)
	if err != nil {
		return err
	}
	tv, err := decodeImage(to)
	if err != nil {
		return err
	}
	w := s.Writer(0, nil)
	if w.restore(t, a, fv, tv) == nil {
		return nil
	}
	// Stale base state: drop the directory entry, reclaim what can be
	// reclaimed, and re-create the atom.
	if refs, err := s.dir.Release(a); err == nil {
		_ = s.reclaim(t, a, refs)
	}
	s.cacheInvalidate(a)
	return w.restore(t, a, fv, tv)
}

// decodeImage decodes a log record's image, nil for an empty one (absent).
func decodeImage(b []byte) ([]atom.Value, error) {
	if len(b) == 0 {
		return nil, nil
	}
	return atom.DecodeAtom(b)
}
