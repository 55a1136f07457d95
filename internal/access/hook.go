package access

import (
	"sync"

	"prima/internal/access/addr"
	"prima/internal/access/atom"
	"prima/internal/catalog"
	"prima/internal/storage/wal"
)

// Hook observes and gates atom mutations. The transaction layer uses it to
// acquire locks (BeforeWrite) and to build undo logs (Did*). A single hook
// is installed per system; nil disables hooking.
type Hook interface {
	// BeforeWrite is called before any mutation of atom a (insert, update,
	// delete, including the implicit partner updates of back-reference
	// maintenance). Returning an error aborts the operation mid-flight;
	// the caller is expected to roll back via the undo log.
	BeforeWrite(a addr.LogicalAddr) error
	// DidInsert reports a successfully inserted atom.
	DidInsert(a addr.LogicalAddr)
	// DidUpdate reports a successful update with the pre-image.
	DidUpdate(a addr.LogicalAddr, typeName string, old []atom.Value)
	// DidDelete reports a successful delete with the pre-image.
	DidDelete(a addr.LogicalAddr, typeName string, old []atom.Value)
}

// hookHolder guards the installed hook (the System.hook field).
type hookHolder struct {
	mu sync.RWMutex
	h  Hook
}

func (hh *hookHolder) get() Hook {
	hh.mu.RLock()
	defer hh.mu.RUnlock()
	return hh.h
}

// SetHook installs (or clears, with nil) the system's mutation hook.
func (s *System) SetHook(h Hook) {
	s.hook.mu.Lock()
	s.hook.h = h
	s.hook.mu.Unlock()
}

func (s *System) hookBeforeWrite(a addr.LogicalAddr) error {
	if h := s.hook.get(); h != nil {
		return h.BeforeWrite(a)
	}
	return nil
}

func (s *System) hookDidInsert(a addr.LogicalAddr) {
	if h := s.hook.get(); h != nil {
		h.DidInsert(a)
	}
}

func (s *System) hookDidUpdate(a addr.LogicalAddr, typeName string, old []atom.Value) {
	if h := s.hook.get(); h != nil {
		h.DidUpdate(a, typeName, old)
	}
}

func (s *System) hookDidDelete(a addr.LogicalAddr, typeName string, old []atom.Value) {
	if h := s.hook.get(); h != nil {
		h.DidDelete(a, typeName, old)
	}
}

// --- raw recovery operations --------------------------------------------------
//
// The transaction layer's undo applies physical inverses without integrity
// side effects: every logical mutation (including implicit partner updates)
// produced its own log entry, so undo handles each atom independently.

// RawOverwrite replaces an atom's values without reference maintenance.
// Recovery-only: misuse breaks association symmetry.
func (s *System) RawOverwrite(a addr.LogicalAddr, values []atom.Value) error {
	t, err := s.typeByID(a.Type())
	if err != nil {
		return err
	}
	// Checkpoint op span: rollback mutations log like any others, so they
	// pin the replay start the same way (no-op during recovery replay).
	defer s.walOpBegin()()
	cur, err := s.Get(a, nil)
	if err != nil {
		return err
	}
	changed := map[int]bool{}
	for i := range values {
		if !cur.Values[i].Equal(values[i]) {
			changed[i] = true
		}
	}
	return s.updateRawUnhooked(t, a, cur.Values, values, changed)
}

// RawDelete removes an atom without disconnecting partners. Recovery-only.
func (s *System) RawDelete(a addr.LogicalAddr) error {
	t, err := s.typeByID(a.Type())
	if err != nil {
		return err
	}
	// Checkpoint op span: see RawOverwrite.
	defer s.walOpBegin()()
	cur, err := s.Get(a, nil)
	if err != nil {
		return err
	}
	defer s.mvBegin(t, a, cur.Values)()
	defer s.cacheInvalidate(a)
	// Raw operations run during transaction rollback, whose page mutations
	// must be logged like any others (as compensation under the same
	// transaction); during recovery replay walAppend is a no-op.
	if err := s.walAppend(wal.RecDelete, a, t.Name, cur.Values, nil); err != nil {
		return err
	}
	comp := func() { s.walCompensate(wal.RecInsert, a, t.Name, nil, cur.Values) }
	for _, ap := range s.accessPathsOf(t.Name) {
		if err := s.indexDelete(ap, cur.Values, a); err != nil {
			comp()
			return err
		}
	}
	for _, so := range s.sortOrdersOf(t.Name) {
		if err := so.tree.Delete(so.sortKey(cur.Values), a); err != nil {
			comp()
			return err
		}
	}
	for _, cl := range s.clustersInvolving(t.Name) {
		if cl.def.RootType() == t.Name {
			if err := s.dropClusterOccurrence(cl, a); err != nil {
				comp()
				return err
			}
		}
	}
	refs, err := s.dir.Release(a)
	if err != nil {
		comp()
		return err
	}
	for _, ref := range refs {
		switch ref.Kind {
		case addr.KindPrimary:
			prim, err := s.primary(t)
			if err != nil {
				return err
			}
			if err := prim.Delete(ref.Where); err != nil {
				return err
			}
		case addr.KindSortOrder:
			s.mu.RLock()
			so := s.sortOrders[ref.Struct]
			s.mu.RUnlock()
			if so != nil {
				if err := so.container.Delete(ref.Where); err != nil {
					return err
				}
			}
		case addr.KindPartition:
			s.mu.RLock()
			p := s.partitions[ref.Struct]
			s.mu.RUnlock()
			if p != nil {
				if err := p.container.Delete(ref.Where); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// RawResurrect re-creates a previously deleted atom under its old logical
// address with the given pre-image. Recovery-only.
func (s *System) RawResurrect(a addr.LogicalAddr, values []atom.Value) error {
	t, err := s.typeByID(a.Type())
	if err != nil {
		return err
	}
	// Checkpoint op span: see RawOverwrite.
	defer s.walOpBegin()()
	// Snapshot readers from before the resurrection must keep seeing the
	// address as absent: install a tombstone pre-image before reviving.
	defer s.mvBegin(t, a, nil)()
	if err := s.walAppend(wal.RecInsert, a, t.Name, nil, values); err != nil {
		return err
	}
	comp := func() { s.walCompensate(wal.RecDelete, a, t.Name, values, nil) }
	if err := s.dir.Revive(a); err != nil {
		comp()
		return err
	}
	// The address is being re-used: make sure no image read before the
	// delete can be published against the resurrected atom (deferred so
	// failed resurrections are covered too; the bump also drops any negative
	// cache entry recorded while the atom was deleted).
	defer s.cacheInvalidate(a)
	prim, err := s.primary(t)
	if err != nil {
		comp()
		return err
	}
	var rid addr.RID
	if err := withEncodedAtom(values, func(rec []byte) error {
		var err error
		rid, err = prim.Insert(rec)
		return err
	}); err != nil {
		comp()
		return err
	}
	if err := s.dir.Register(a, addr.RecordRef{Kind: addr.KindPrimary, Where: rid, Valid: true}); err != nil {
		comp()
		return err
	}
	for _, ap := range s.accessPathsOf(t.Name) {
		if err := s.indexInsert(ap, values, a); err != nil {
			comp()
			return err
		}
	}
	for _, so := range s.sortOrdersOf(t.Name) {
		if err := s.sortOrderInsert(so, values, a); err != nil {
			comp()
			return err
		}
	}
	for _, p := range s.partitionsOf(t.Name) {
		if err := s.partitionInsert(p, values, a); err != nil {
			comp()
			return err
		}
	}
	for _, cl := range s.clustersInvolving(t.Name) {
		if cl.def.RootType() == t.Name {
			if err := s.buildClusterOccurrence(cl, a); err != nil {
				comp()
				return err
			}
		}
	}
	return nil
}

// updateRawUnhooked is updateRaw without hook invocation (undo must not log
// itself).
func (s *System) updateRawUnhooked(t *catalog.AtomType, a addr.LogicalAddr, old, nv []atom.Value, changed map[int]bool) error {
	return s.updateRawInner(t, a, old, nv, changed, false)
}
