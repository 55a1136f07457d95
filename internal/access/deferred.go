package access

import (
	"fmt"
	"sync"

	"prima/internal/access/addr"
	"prima/internal/access/atom"
)

// Deferred update (§3.2): "Storage redundancy may introduce substantial
// overhead when an atom is modified (and necessarily all its allocated
// physical records). To limit the amount of immediate overhead, deferred
// update is used, i.e., during an update operation only one physical record
// is modified whereas all others are modified later."
//
// The queue records which redundant records went stale; their directory
// entries carry Valid=false until PropagateDeferred (or a lazy read-side
// fix-up) rewrites them.

type taskKind uint8

const (
	taskSortOrder taskKind = iota
	taskPartition
	taskCluster
)

type deferTask struct {
	kind     taskKind
	a        addr.LogicalAddr // atom (sort order / partition) or cluster root
	structID addr.StructID
}

type deferQueue struct {
	mu    sync.Mutex
	queue []deferTask
	seen  map[deferTask]bool
}

func newDeferQueue() *deferQueue {
	return &deferQueue{seen: make(map[deferTask]bool)}
}

func (q *deferQueue) push(t deferTask) {
	q.mu.Lock()
	if !q.seen[t] {
		q.seen[t] = true
		q.queue = append(q.queue, t)
	}
	q.mu.Unlock()
}

func (q *deferQueue) pop() (deferTask, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if len(q.queue) == 0 {
		return deferTask{}, false
	}
	t := q.queue[0]
	q.queue = q.queue[1:]
	delete(q.seen, t)
	return t, true
}

// Len returns the number of pending propagation tasks.
func (q *deferQueue) Len() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.queue)
}

// PendingDeferred returns the number of queued propagation tasks (exposed
// for experiments measuring deferred-update behaviour).
func (s *System) PendingDeferred() int { return s.deferq.Len() }

// PropagateDeferred drains the deferred-update queue, rewriting every stale
// redundant record from its primary copy and re-validating it.
func (s *System) PropagateDeferred() error {
	for {
		t, ok := s.deferq.pop()
		if !ok {
			return nil
		}
		if err := s.propagateOne(t); err != nil {
			return err
		}
	}
}

func (s *System) propagateOne(t deferTask) error {
	switch t.kind {
	case taskSortOrder:
		s.mu.RLock()
		so := s.sortOrders[t.structID]
		s.mu.RUnlock()
		if so == nil || !s.dir.Exists(t.a) {
			return nil
		}
		ref, ok := s.dir.LookupStruct(t.a, t.structID)
		if !ok || ref.Valid {
			return nil
		}
		at, err := s.Get(t.a, nil)
		if err != nil {
			return err
		}
		var nrid addr.RID
		if err := withEncodedAtom(at.Values, func(rec []byte) error {
			var err error
			nrid, err = so.container.Update(ref.Where, rec)
			return err
		}); err != nil {
			return fmt.Errorf("access: propagate sort order %s: %w", so.def.Name, err)
		}
		if nrid != ref.Where {
			if err := s.dir.Update(t.a, t.structID, nrid); err != nil {
				return err
			}
		}
		return s.dir.SetValid(t.a, t.structID, true)

	case taskPartition:
		s.mu.RLock()
		p := s.partitions[t.structID]
		s.mu.RUnlock()
		if p == nil || !s.dir.Exists(t.a) {
			return nil
		}
		ref, ok := s.dir.LookupStruct(t.a, t.structID)
		if !ok || ref.Valid {
			return nil
		}
		at, err := s.Get(t.a, nil)
		if err != nil {
			return err
		}
		nrid, err := p.container.Update(ref.Where, atom.EncodeProjection(p.attrIdxs, at.Values))
		if err != nil {
			return fmt.Errorf("access: propagate partition %s: %w", p.def.Name, err)
		}
		if nrid != ref.Where {
			if err := s.dir.Update(t.a, t.structID, nrid); err != nil {
				return err
			}
		}
		return s.dir.SetValid(t.a, t.structID, true)

	case taskCluster:
		s.mu.RLock()
		cl := s.clusters[t.structID]
		var exists bool
		if cl != nil {
			_, exists = cl.occurrences[t.a]
		}
		s.mu.RUnlock()
		if cl == nil || !exists || !s.dir.Exists(t.a) {
			return nil
		}
		return s.buildClusterOccurrence(cl, t.a)

	default:
		return fmt.Errorf("access: unknown deferred task kind %d", t.kind)
	}
}

// invalidateRedundant marks the redundant records of atom a stale after its
// primary was updated from old to nv, queueing propagation; structures whose
// content is untouched stay valid.
func (s *System) invalidateRedundant(a addr.LogicalAddr, old, nv []atom.Value) error {
	refs, err := s.dir.Lookup(a)
	if err != nil {
		return err
	}
	for _, ref := range refs {
		switch ref.Kind {
		case addr.KindPrimary:
			continue
		case addr.KindSortOrder:
			// Sort order records hold the full atom: always stale.
			if ref.Valid {
				if err := s.dir.SetValid(a, ref.Struct, false); err != nil {
					return err
				}
				s.deferq.push(deferTask{kind: taskSortOrder, a: a, structID: ref.Struct})
			}
		case addr.KindPartition:
			s.mu.RLock()
			p := s.partitions[ref.Struct]
			s.mu.RUnlock()
			if p == nil {
				continue
			}
			if !sameKey(p.attrIdxs, old, nv) && ref.Valid {
				if err := s.dir.SetValid(a, ref.Struct, false); err != nil {
					return err
				}
				s.deferq.push(deferTask{kind: taskPartition, a: a, structID: ref.Struct})
			}
		case addr.KindCluster:
			// Cluster payloads hold full atom images: always stale. The
			// rebuild task is keyed by the occurrence's root atom.
			root, found := s.clusterRootOf(ref)
			if !found {
				continue
			}
			if ref.Valid {
				if err := s.dir.SetValid(a, ref.Struct, false); err != nil {
					return err
				}
			}
			s.deferq.push(deferTask{kind: taskCluster, a: root, structID: ref.Struct})
		}
	}
	return nil
}

// clusterRootOf returns the root atom of the cluster occurrence whose page
// sequence holds the cluster record ref.
func (s *System) clusterRootOf(ref addr.RecordRef) (addr.LogicalAddr, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if cl := s.clusters[ref.Struct]; cl != nil {
		for r, header := range cl.occurrences {
			if header == ref.Where.Page {
				return r, true
			}
		}
	}
	return 0, false
}
