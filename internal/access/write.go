package access

import (
	"prima/internal/access/addr"
	"prima/internal/access/atom"
	"prima/internal/obs"
	"prima/internal/storage/wal"
)

// Scope is the lock and undo scope of a write context. The transaction layer
// implements it twice: a transaction locks every atom it writes until it
// finishes and records how to undo each mutation; the autocommit scope admits
// a write only while no transaction holds the atom and records nothing.
type Scope interface {
	// Acquire admits a mutation of atom a — an insert, update or delete, or
	// the partner update of back-reference maintenance — before the atom is
	// read for it, so the pre-image the mutation sees is the one its undo
	// restores. An error aborts the write.
	Acquire(a addr.LogicalAddr) error
	// Release ends the mutation Acquire admitted. err is its outcome; on
	// success kind and pre say how to undo it (pre is nil for an insert),
	// and kind 0 means nothing was written.
	Release(a addr.LogicalAddr, kind wal.Kind, pre []atom.Value, err error)
}

// Writer is the access system seen through one explicit write context: the
// top-level transaction its log records are attributed to (0 = autocommit,
// always redone), the scope its mutations are admitted by (nil = none) and
// the trace span its log bytes are charged to (nil = untraced). It is a value
// each statement carries down the stack, as snapshots carry the read epoch,
// so concurrent writers never share who is writing.
type Writer struct {
	s     *System
	txID  uint64
	scope Scope
	span  *obs.Span
}

// Writer returns the write context attributing mutations to top-level
// transaction txID and admitting them through scope.
func (s *System) Writer(txID uint64, scope Scope) Writer {
	return Writer{s: s, txID: txID, scope: scope}
}

// Traced returns w charging the log bytes of its mutations to sp.
func (w Writer) Traced(sp *obs.Span) Writer {
	w.span = sp
	return w
}

func (w Writer) acquire(a addr.LogicalAddr) error {
	if w.scope == nil {
		return nil
	}
	return w.scope.Acquire(a)
}

func (w Writer) release(a addr.LogicalAddr, kind wal.Kind, pre []atom.Value, err error) {
	if w.scope != nil {
		w.scope.Release(a, kind, pre, err)
	}
}

// --- raw recovery operations --------------------------------------------------
//
// The transaction layer's undo applies physical inverses without integrity
// side effects: every logical mutation (including implicit partner updates)
// produced its own log entry, so undo handles each atom independently. The
// inverses are logged like any other mutation, attributed to transaction
// txID (during recovery replay nothing is logged).

// RawOverwrite replaces an atom's values without reference maintenance.
// Recovery-only: misuse breaks association symmetry.
func (s *System) RawOverwrite(a addr.LogicalAddr, values []atom.Value, txID uint64) error {
	t, err := s.typeByID(a.Type())
	if err != nil {
		return err
	}
	// Checkpoint op span: rollback mutations log like any others, so they
	// pin the replay start the same way (no-op during recovery replay).
	defer s.walOpBegin()()
	cur, err := s.record(a)
	if err != nil {
		return err
	}
	defer s.mvBegin(t, a, cur.Image)()
	old := cur.Image.Values()
	changed := map[int]bool{}
	for i := range values {
		if !old[i].Equal(values[i]) {
			changed[i] = true
		}
	}
	return s.Writer(txID, nil).updateRaw(t, a, old, values, changed)
}

// RawDelete removes an atom without disconnecting partners. Recovery-only.
func (s *System) RawDelete(a addr.LogicalAddr, txID uint64) error {
	t, err := s.typeByID(a.Type())
	if err != nil {
		return err
	}
	// Checkpoint op span: see RawOverwrite.
	defer s.walOpBegin()()
	cur, err := s.record(a)
	if err != nil {
		return err
	}
	defer s.mvBegin(t, a, cur.Image)()
	return s.Writer(txID, nil).deleteLogged(t, a, cur.Image.Values())
}

// RawResurrect re-creates a previously deleted atom under its old logical
// address with the given pre-image. Recovery-only.
func (s *System) RawResurrect(a addr.LogicalAddr, values []atom.Value, txID uint64) error {
	t, err := s.typeByID(a.Type())
	if err != nil {
		return err
	}
	// Checkpoint op span: see RawOverwrite.
	defer s.walOpBegin()()
	// Snapshot readers from before the resurrection must keep seeing the
	// address as absent: install a tombstone pre-image before reviving.
	defer s.mvBegin(t, a, atom.Image{})()
	// The address is being re-used: the insert's cache barrier makes sure
	// no image read before the delete can be published against the
	// resurrected atom.
	if err := s.Writer(txID, nil).insertLogged(t, a, values); err != nil {
		return err
	}
	if s.walRecovering {
		// A root's image may reference atoms the log replays after it
		// (members of the same atom set): build once replay ends.
		s.walRoots[a] = true
		return nil
	}
	return s.buildRootedClusters(t, a)
}
