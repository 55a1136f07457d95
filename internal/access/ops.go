package access

import (
	"fmt"
	"slices"
	"sync"

	"prima/internal/access/addr"
	"prima/internal/access/atom"
	"prima/internal/catalog"
	"prima/internal/storage/wal"
)

// Atom is the unit of the decoded access system interface — DML, scans,
// integrity checks: a typed attribute vector identified by its logical
// address. Get, GetBatch and the scans hand out a fresh decode the caller
// owns.
type Atom struct {
	Type   *catalog.AtomType
	Addr   addr.LogicalAddr
	Values []atom.Value
}

// Record is an atom as the read path carries it from the cache (or a page)
// through molecule assembly to the wire: its type, its address and its
// checked record image, undecoded. Records are passed by value; the image is
// shared and immutable. The zero Record holds no atom.
type Record struct {
	Type  *catalog.AtomType
	Addr  addr.LogicalAddr
	Image atom.Image
}

// Decode returns the record as a freshly decoded Atom.
func (r Record) Decode() *Atom {
	return &Atom{Type: r.Type, Addr: r.Addr, Values: r.Image.Values()}
}

// Value decodes the named attribute alone.
func (r Record) Value(name string) (atom.Value, bool) {
	i, ok := r.Type.AttrIndex(name)
	if !ok {
		return atom.Null(), false
	}
	return r.Image.Attr(i), true
}

// encScratch pools record-encode buffers. Every consumer of the encoded
// bytes (slotted pages, page sequences) copies them into page frames before
// returning, so the scratch never outlives the call.
var encScratch = sync.Pool{New: func() any { b := make([]byte, 0, 512); return &b }}

// withEncodedAtom encodes values into a pooled scratch buffer and passes the
// bytes to fn; fn must not retain them.
func withEncodedAtom(values []atom.Value, fn func(rec []byte) error) error {
	bp := encScratch.Get().(*[]byte)
	rec := atom.AppendAtom((*bp)[:0], values)
	err := fn(rec)
	*bp = rec[:0]
	encScratch.Put(bp)
	return err
}

// Value returns the value of the named attribute.
func (a *Atom) Value(name string) (atom.Value, bool) {
	i, ok := a.Type.AttrIndex(name)
	if !ok {
		return atom.Null(), false
	}
	return a.Values[i], true
}

// Insert creates a new atom of the named type. values maps attribute names
// to values; omitted attributes take their zero value, and the IDENTIFIER is
// assigned by the system ("it is generated by the access system when an
// atom is inserted"). Reference values trigger the implicit partner updates
// that keep associations symmetric.
//
// The System mutators are the no-transaction form for loaders and tools: their
// writes are logged as autocommit, admitted by no scope and never undone.
// Statements write through the Writer their transaction or autocommit scope
// hands them.
func (s *System) Insert(typeName string, values map[string]atom.Value) (addr.LogicalAddr, error) {
	return s.Writer(0, nil).Insert(typeName, values)
}

// Insert is System.Insert in w's write context: a set of one.
func (w Writer) Insert(typeName string, values map[string]atom.Value) (addr.LogicalAddr, error) {
	set := w.s.NewAtomSet()
	a, err := set.Add(typeName, values)
	if err = w.writeOne(set, err); err != nil {
		return 0, err
	}
	return a, nil
}

// writeOne writes set, a set of one, unless adding its member failed with
// err.
func (w Writer) writeOne(set *AtomSet, err error) error {
	if err != nil {
		return err
	}
	return w.WriteSet(set)
}

// store writes atom a's primary record, registers it with the directory and
// enters vals into the type's access paths, sort orders and partitions. comp
// compensates the logged insert when a step fails.
func (s *System) store(t *catalog.AtomType, a addr.LogicalAddr, vals []atom.Value, comp func()) error {
	prim, err := s.primary(t)
	if err != nil {
		comp()
		return err
	}
	var rid addr.RID
	if err := withEncodedAtom(vals, func(rec []byte) error {
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
		if err := s.indexInsert(ap, vals, a); err != nil {
			comp()
			return err
		}
	}
	for _, so := range s.sortOrdersOf(t.Name) {
		if err := s.sortOrderInsert(so, vals, a); err != nil {
			comp()
			return err
		}
	}
	for _, p := range s.partitionsOf(t.Name) {
		if err := s.partitionInsert(p, vals, a); err != nil {
			comp()
			return err
		}
	}
	return nil
}

// Get reads an atom. attrs selects attributes to materialize (nil = all);
// unselected attributes are NULL in the result. When a projection is fully
// covered by a valid partition record, the partition serves the read — "the
// one with minimum access cost should be selected" — unless the atom cache
// already holds the atom's image. The returned Atom is a private decode.
func (s *System) Get(a addr.LogicalAddr, attrs []string) (*Atom, error) {
	var want []int
	if attrs != nil {
		t, err := s.typeByID(a.Type())
		if err != nil {
			return nil, err
		}
		want = make([]int, 0, len(attrs))
		for _, name := range attrs {
			i, ok := t.AttrIndex(name)
			if !ok {
				return nil, fmt.Errorf("%w: %s.%s", catalog.ErrUnknownAttr, t.Name, name)
			}
			want = append(want, i)
		}
		if cache := s.cache(); cache == nil || !cache.holds(a) {
			// Try a covering, valid partition before the primary record.
			if refs, err := s.dir.Lookup(a); err == nil {
				if at, ok, err := s.getFromPartition(t, a, refs, want); err != nil || ok {
					return at, err
				}
			}
		}
	}
	rec, err := s.record(a)
	if err != nil {
		return nil, err
	}
	if want == nil {
		return rec.Decode(), nil
	}
	proj := rec.Type.NewAtomValues(a)
	for _, i := range want {
		proj[i] = rec.Image.Attr(i)
	}
	return &Atom{Type: rec.Type, Addr: a, Values: proj}, nil
}

// record reads atom a's record image: a batch of one through fill, so it
// is served from the atom cache when the image is there.
func (s *System) record(a addr.LogicalAddr) (Record, error) {
	recs := [1]Record{{Addr: a}}
	err := s.fill(recs[:], nil, true)
	return recs[0], err
}

// getFromPartition serves a projected read from a covering partition.
func (s *System) getFromPartition(t *catalog.AtomType, a addr.LogicalAddr, refs []addr.RecordRef, want []int) (*Atom, bool, error) {
	for _, ref := range refs {
		if ref.Kind != addr.KindPartition || !ref.Valid {
			continue
		}
		s.mu.RLock()
		p := s.partitions[ref.Struct]
		s.mu.RUnlock()
		if p == nil {
			continue
		}
		covered := true
		for _, w := range want {
			found := false
			for _, idx := range p.attrIdxs {
				if idx == w {
					found = true
					break
				}
			}
			if !found {
				covered = false
				break
			}
		}
		if !covered {
			continue
		}
		data, err := p.container.Read(ref.Where)
		if err != nil {
			return nil, false, err
		}
		// Stream the pairs straight into the result vector (no intermediate
		// map); the record image is a fresh copy, so strings decode
		// zero-copy.
		values := t.NewAtomValues(a)
		err = atom.DecodeProjectionFunc(data, true, func(idx int, v atom.Value) {
			for _, w := range want {
				if w == idx {
					values[idx] = v
					return
				}
			}
		})
		if err != nil {
			return nil, false, err
		}
		return &Atom{Type: t, Addr: a, Values: values}, true, nil
	}
	return nil, false, nil
}

// Update modifies the named attributes of atom a. Reference changes imply
// the partner updates maintaining back-references; redundant records are
// refreshed by deferred update.
func (s *System) Update(a addr.LogicalAddr, changes map[string]atom.Value) error {
	return s.Writer(0, nil).Update(a, changes)
}

// Update is System.Update in w's write context: a set of one.
func (w Writer) Update(a addr.LogicalAddr, changes map[string]atom.Value) error {
	set := w.s.NewAtomSet()
	return w.writeOne(set, set.Update(a, changes))
}

// updateRaw logs atom a's update from old to nv, rewrites its primary
// record and repositions a in the access paths and sort orders whose keys
// changed, without any integrity side effects (used by atom sets and by
// undo). The caller has admitted a and opened its multi-version write span,
// so snapshot readers that observe this write's effects always find the old
// image in the chain.
func (w Writer) updateRaw(t *catalog.AtomType, a addr.LogicalAddr, old, nv []atom.Value, changed map[int]bool) error {
	s := w.s
	// Atom cache write barrier, deferred so it runs after the
	// primary record write on success AND on every error path past this
	// point — a half-applied update must not leave its pre-image cached.
	defer s.cacheInvalidate(a)
	// Log the update ahead of any page write; on a later physical failure
	// the reversed compensation makes the logged pair a net no-op.
	if err := w.walAppend(wal.RecUpdate, a, t.Name, old, nv); err != nil {
		return err
	}
	comp := func() { w.walCompensate(wal.RecUpdate, a, t.Name, nv, old) }
	// Access paths reposition immediately when their key changed.
	for _, ap := range s.accessPathsOf(t.Name) {
		if !touches(ap.attrIdxs, changed) {
			continue
		}
		if err := s.indexDelete(ap, old, a); err != nil {
			comp()
			return err
		}
		if err := s.indexInsert(ap, nv, a); err != nil {
			comp()
			return err
		}
	}
	// Sort order trees reposition immediately when the sort key changed
	// (the redundant record copy itself is refreshed lazily).
	for _, so := range s.sortOrdersOf(t.Name) {
		if !touches(so.attrIdxs, changed) {
			continue
		}
		if err := so.tree.Delete(so.sortKey(old), a); err != nil {
			comp()
			return err
		}
		if err := so.tree.Insert(so.sortKey(nv), a); err != nil {
			comp()
			return err
		}
	}

	// Primary record: the one physical record updated immediately.
	ref, ok := s.dir.LookupStruct(a, 0)
	if !ok {
		comp()
		return fmt.Errorf("%w: %v has no primary record", ErrNoAtom, a)
	}
	prim, err := s.primary(t)
	if err != nil {
		comp()
		return err
	}
	var nrid addr.RID
	if err := withEncodedAtom(nv, func(rec []byte) error {
		var err error
		nrid, err = prim.Update(ref.Where, rec)
		return err
	}); err != nil {
		comp()
		return err
	}
	if nrid != ref.Where {
		if err := s.dir.Update(a, 0, nrid); err != nil {
			comp()
			return err
		}
	}
	// All other physical records go stale (deferred update).
	if err := s.invalidateRedundant(a, changed); err != nil {
		comp()
		return err
	}
	return nil
}

// touches reports whether any of the attribute indices idxs changed.
func touches(idxs []int, changed map[int]bool) bool {
	return slices.ContainsFunc(idxs, func(i int) bool { return changed[i] })
}

// Connect adds target to a's reference attribute attr (and maintains the
// back-reference). This realizes MQL's component connection.
func (s *System) Connect(a addr.LogicalAddr, attr string, target addr.LogicalAddr) error {
	return s.Writer(0, nil).Connect(a, attr, target)
}

// Disconnect removes target from a's reference attribute attr.
func (s *System) Disconnect(a addr.LogicalAddr, attr string, target addr.LogicalAddr) error {
	return s.Writer(0, nil).Disconnect(a, attr, target)
}

// Connect is System.Connect in w's write context: a set of one.
func (w Writer) Connect(a addr.LogicalAddr, attr string, target addr.LogicalAddr) error {
	set := w.s.NewAtomSet()
	return w.writeOne(set, set.Connect(a, attr, target))
}

// Disconnect is System.Disconnect in w's write context: a set of one.
func (w Writer) Disconnect(a addr.LogicalAddr, attr string, target addr.LogicalAddr) error {
	set := w.s.NewAtomSet()
	return w.writeOne(set, set.Disconnect(a, attr, target))
}

// Delete removes atom a: partner atoms drop their back-references
// (automatic disconnection), all physical records are reclaimed, and the
// logical address is released.
func (s *System) Delete(a addr.LogicalAddr) error { return s.Writer(0, nil).Delete(a) }

// Delete is System.Delete in w's write context: a set of one.
func (w Writer) Delete(a addr.LogicalAddr) error {
	set := w.s.NewAtomSet()
	return w.writeOne(set, set.Delete(a))
}

// insertLogged logs atom a's insert with values vals and stores it, making
// its address live; a store that fails before the atom is registered leaves
// the address dead. The caller has admitted a and opened its write span
// with a tombstone pre-image ("did not exist before this write").
func (w Writer) insertLogged(t *catalog.AtomType, a addr.LogicalAddr, vals []atom.Value) error {
	s := w.s
	// Drop any negative cache entry for the address: it stops not-existing.
	// Deferred, so failed inserts are covered too.
	defer s.cacheInvalidate(a)
	// Log the insert ahead of any page write; if a later physical step
	// fails, the compensating delete makes the logged pair a net no-op.
	if err := w.walAppend(wal.RecInsert, a, t.Name, nil, vals); err != nil {
		return err
	}
	comp := func() { w.walCompensate(wal.RecDelete, a, t.Name, vals, nil) }
	if err := s.dir.Revive(a); err != nil {
		comp()
		return err
	}
	if err := s.store(t, a, vals, comp); err != nil {
		if _, ok := s.dir.LookupStruct(a, 0); !ok {
			_, _ = s.dir.Release(a) // never registered: the address goes dead
		}
		return err
	}
	return nil
}

// deleteLogged logs the delete of atom a, whose values are vals, and drops
// it, without disconnecting partners. The caller has admitted a and opened
// its write span with vals' image: snapshot readers keep seeing the deleted
// atom (and enumerate its address) until no snapshot from before the delete
// remains open.
func (w Writer) deleteLogged(t *catalog.AtomType, a addr.LogicalAddr, vals []atom.Value) error {
	// Deferred like updateRaw's barrier: even a partially failed delete
	// (e.g. a record reclaim error after the directory release) must drop
	// the cached image.
	defer w.s.cacheInvalidate(a)
	// Log the delete ahead of any page write; a compensating insert voids
	// the logged pair if a later physical step fails.
	if err := w.walAppend(wal.RecDelete, a, t.Name, vals, nil); err != nil {
		return err
	}
	return w.s.drop(t, a, vals, func() { w.walCompensate(wal.RecInsert, a, t.Name, nil, vals) })
}

// drop removes atom a, whose values are vals, from the access paths and sort
// orders, dissolves the cluster occurrences it roots, releases its address
// and reclaims its physical records. comp compensates the logged delete when
// a step up to the release fails.
func (s *System) drop(t *catalog.AtomType, a addr.LogicalAddr, vals []atom.Value, comp func()) error {
	// Access paths and sort order trees drop their entries immediately.
	for _, ap := range s.accessPathsOf(t.Name) {
		if err := s.indexDelete(ap, vals, a); err != nil {
			comp()
			return err
		}
	}
	for _, so := range s.sortOrdersOf(t.Name) {
		if err := so.tree.Delete(so.sortKey(vals), a); err != nil {
			comp()
			return err
		}
	}

	// Cluster occurrences rooted here disappear; occurrences containing
	// this atom as a member are rebuilt lazily.
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
		case addr.KindCluster:
			// The payload still holds a stale image; queue a rebuild of
			// the containing occurrence.
			if root, found := s.clusterRootOf(ref); found && root != a {
				s.deferq.push(deferTask{kind: taskCluster, a: root, structID: ref.Struct})
			}
		}
	}
	return nil
}

// CheckIntegrity verifies the cardinality restrictions of every atom of the
// named type (or all types when empty) — the refined structural integrity
// of Fig. 2.3, checked on demand because molecules are built incrementally.
func (s *System) CheckIntegrity(typeName string) error {
	var types []*catalog.AtomType
	if typeName != "" {
		t, err := s.typeOf(typeName)
		if err != nil {
			return err
		}
		types = []*catalog.AtomType{t}
	} else {
		types = s.schema.AtomTypes()
	}
	for _, t := range types {
		var checkErr error
		s.dir.Scan(t.ID, func(a addr.LogicalAddr, _ []addr.RecordRef) bool {
			at, err := s.Get(a, nil)
			if err != nil {
				checkErr = err
				return false
			}
			if err := t.CheckCards(at.Values); err != nil {
				checkErr = fmt.Errorf("%v: %w", a, err)
				return false
			}
			return true
		})
		if checkErr != nil {
			return checkErr
		}
	}
	return nil
}
