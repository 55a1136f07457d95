package access

import (
	"prima/internal/access/addr"
	"prima/internal/access/atom"
	"prima/internal/catalog"
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

// --- writes and their one inverse ---------------------------------------------
//
// Every write of an atom is one record from its image before (nil: absent)
// to its image after, and it is undone by restoring the image before: by
// the same write with the images swapped. Undo takes no side trip through
// partners: a set or transaction logged each partner update as a write of
// its own, so it undoes each atom by itself.

// write logs atom a's write from image from to image to (nil: absent) as one
// record of w's transaction and applies it over cur, the stored record (nil:
// absent): the primary record and directory entry, and the type's access
// paths, sort orders and partitions. A forward write starts from the record
// it read, so cur is from. An undo (undo set) starts from whatever the write
// it undoes left, so it moves the keys of cur and of from both, and a
// missing old entry or a present new one counts as moved.
func (w Writer) write(t *catalog.AtomType, a addr.LogicalAddr, cur, from, to []atom.Value, undo bool) error {
	s := w.s
	// Atom cache write barrier, deferred so it runs after the record writes
	// on success and on every error path: a half-applied write must not
	// leave its pre-image cached, nor an address that stops not existing its
	// negative entry.
	defer s.cacheInvalidate(a)
	// Log ahead of any page write. The writer checked every value and key
	// before, so only a physical failure can stop the write from here; its
	// set or transaction then undoes it.
	if err := w.walAppend(recordKind(from, to), a, t.Name, from, to); err != nil {
		return err
	}
	olds := [2][]atom.Value{cur, from}
	switch {
	case to == nil:
		return s.drop(t, a, olds, undo)
	case cur == nil:
		if err := s.dir.Revive(a); err != nil {
			return err
		}
		if err := s.store(t, a, to); err != nil {
			return err
		}
	default:
		if err := s.rewrite(t, a, cur, to); err != nil {
			return err
		}
	}
	return s.moveKeys(t, a, olds, to, undo)
}

// recordKind is the log record kind of a write from image from to image to.
func recordKind(from, to []atom.Value) wal.Kind {
	switch {
	case from == nil:
		return wal.RecInsert
	case to == nil:
		return wal.RecDelete
	}
	return wal.RecUpdate
}

// Restore makes atom a equal to pre (nil: absent) again, undoing a write of
// w's transaction that completed: the transaction layer's abort restores
// each atom it wrote, newest write first. It is logged like any write.
func (w Writer) Restore(a addr.LogicalAddr, pre []atom.Value) error {
	s := w.s
	t, err := s.typeByID(a.Type())
	if err != nil {
		return err
	}
	defer s.walOpEnd(s.walOpBegin())
	// The write completed, so the log holds the stored record for a.
	cur, err := s.stored(a)
	if err != nil {
		return err
	}
	return w.restore(t, a, cur.values(), pre)
}

// restore makes atom a of type t equal to img (nil: absent) wherever the
// atom lives: its primary record and directory entry, the access paths,
// sort orders and partitions of t, the cluster occurrences it roots, the
// atom cache and the multi-version store. from is the image the log holds
// for a: what the write being undone wrote, or the pre-image of the write
// being redone. The stored record may lie anywhere between from and img,
// when a write failed partway or a checkpoint left an older base state; a
// record that cannot be read still lets the atom be deleted. restore logs
// one record from from to img in w's transaction (nothing during replay).
func (w Writer) restore(t *catalog.AtomType, a addr.LogicalAddr, from, img []atom.Value) error {
	if from == nil && img == nil {
		return nil
	}
	s := w.s
	cur, err := s.stored(a)
	if err != nil && img != nil {
		return err
	}
	defer s.mvBegin(t, a, cur.Image)()
	if err := w.write(t, a, cur.values(), from, img, true); err != nil {
		return err
	}
	if img == nil || !cur.Image.IsZero() && from != nil {
		return nil
	}
	// The atom comes back, or a failed delete may have dissolved the
	// cluster occurrences it roots: build them again.
	if s.walRecovering {
		// A root's image may reference atoms the log replays after it
		// (members of the same atom set): build once replay ends.
		s.walRoots[a] = true
		return nil
	}
	return s.buildRootedClusters(t, a)
}

// stored reads atom a's record, the zero Record when a is not live.
func (s *System) stored(a addr.LogicalAddr) (Record, error) {
	if !s.dir.Exists(a) {
		return Record{}, nil
	}
	rec, err := s.record(a)
	if err != nil {
		return Record{}, err
	}
	return rec, nil
}
