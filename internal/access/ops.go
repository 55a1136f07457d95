package access

import (
	"errors"
	"fmt"
	"sync"

	"prima/internal/access/addr"
	"prima/internal/access/atom"
	"prima/internal/access/btree"
	"prima/internal/access/mdindex"
	"prima/internal/catalog"
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

// values decodes the record's values, nil for the zero Record.
func (r Record) values() []atom.Value {
	if r.Image.IsZero() {
		return nil
	}
	return r.Image.Values()
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

// store writes the records of atom a, whose values are vals: the primary
// record, registered with the directory, and its records in the type's sort
// orders and partitions.
func (s *System) store(t *catalog.AtomType, a addr.LogicalAddr, vals []atom.Value) error {
	prim, err := s.primary(t)
	if err != nil {
		return err
	}
	var rid addr.RID
	if err := withEncodedAtom(vals, func(rec []byte) error {
		var err error
		rid, err = prim.Insert(rec)
		return err
	}); err != nil {
		return err
	}
	if err := s.dir.Register(a, addr.RecordRef{Kind: addr.KindPrimary, Where: rid, Valid: true}); err != nil {
		return err
	}
	for _, so := range s.sortOrdersOf(t.Name) {
		if err := s.sortOrderInsert(so, vals, a); err != nil {
			return err
		}
	}
	for _, p := range s.partitionsOf(t.Name) {
		if err := s.partitionInsert(p, vals, a); err != nil {
			return err
		}
	}
	return nil
}

// rewrite replaces atom a's primary record, whose values are cur, with to,
// and marks the redundant records the change reaches stale (deferred
// update).
func (s *System) rewrite(t *catalog.AtomType, a addr.LogicalAddr, cur, to []atom.Value) error {
	ref, ok := s.dir.LookupStruct(a, 0)
	if !ok {
		return fmt.Errorf("%w: %v has no primary record", ErrNoAtom, a)
	}
	prim, err := s.primary(t)
	if err != nil {
		return err
	}
	var nrid addr.RID
	if err := withEncodedAtom(to, func(rec []byte) error {
		var err error
		nrid, err = prim.Update(ref.Where, rec)
		return err
	}); err != nil {
		return err
	}
	if nrid != ref.Where {
		if err := s.dir.Update(a, 0, nrid); err != nil {
			return err
		}
	}
	return s.invalidateRedundant(t, a, cur, to)
}

// moveKeys moves atom a's entries in the access paths and sort orders of t
// from the keys of the images olds to the key of to; see moveKey.
func (s *System) moveKeys(t *catalog.AtomType, a addr.LogicalAddr, olds [2][]atom.Value, to []atom.Value, undo bool) error {
	for _, ap := range s.accessPathsOf(t.Name) {
		if err := moveKey(ap, a, olds, to, undo); err != nil {
			return err
		}
	}
	for _, so := range s.sortOrdersOf(t.Name) {
		if err := moveKey(so, a, olds, to, undo); err != nil {
			return err
		}
	}
	return nil
}

// moveKey moves atom a's entry in k from the keys of the images olds to the
// key of to; an absent image has no key, and an entry whose key to shares
// stays. With undo set, a missing old entry and a present new one count as
// moved.
func moveKey(k keyed, a addr.LogicalAddr, olds [2][]atom.Value, to []atom.Value, undo bool) error {
	idxs := k.keyAttrs()
	enter := false
	for i, old := range olds {
		if sameKey(idxs, old, to) {
			continue
		}
		enter = true
		if old == nil || i > 0 && sameKey(idxs, old, olds[0]) {
			continue
		}
		if err := k.remove(old, a); !moved(err, undo) {
			return err
		}
	}
	if enter && to != nil {
		if err := k.enter(to, a); !moved(err, undo) {
			return err
		}
	}
	return nil
}

// moved reports whether a key entry's move that returned err left the entry
// as the move wants it: an undo counts a missing old entry and a present new
// one as moved.
func moved(err error, undo bool) bool {
	return err == nil || undo && (errors.Is(err, btree.ErrNotFound) || errors.Is(err, btree.ErrDupEntry) ||
		errors.Is(err, mdindex.ErrNotFound) || errors.Is(err, mdindex.ErrDup))
}

// sameKey reports whether the images x and y (nil: absent) agree on the
// attributes idxs: both absent, or both present with equal values there.
func sameKey(idxs []int, x, y []atom.Value) bool {
	if x == nil || y == nil {
		return x == nil && y == nil
	}
	for _, i := range idxs {
		if !x[i].Equal(y[i]) {
			return false
		}
	}
	return true
}

// checkKeys refuses vals, the values atom a of type t is to take over pre
// (nil: absent), when a key it enters does not fit its B-tree: a write
// checks this before it logs anything.
func (s *System) checkKeys(t *catalog.AtomType, pre, vals []atom.Value) error {
	for _, ap := range s.accessPathsOf(t.Name) {
		if ap.tree != nil && !sameKey(ap.attrIdxs, pre, vals) {
			if err := ap.tree.CheckKey(vals[ap.attrIdxs[0]]); err != nil {
				return fmt.Errorf("access: access path %s: %w", ap.def.Name, err)
			}
		}
	}
	for _, so := range s.sortOrdersOf(t.Name) {
		if !sameKey(so.attrIdxs, pre, vals) {
			if err := so.tree.CheckKey(so.sortKey(vals)); err != nil {
				return fmt.Errorf("access: sort order %s: %w", so.def.Name, err)
			}
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

// drop removes atom a from the access paths and sort orders (the keys of the
// images olds), dissolves each cluster occurrence it roots, releases its
// address and reclaims its records. An undo finds the address released
// already, when the write it undoes failed before it went live.
func (s *System) drop(t *catalog.AtomType, a addr.LogicalAddr, olds [2][]atom.Value, undo bool) error {
	if err := s.moveKeys(t, a, olds, nil, undo); err != nil {
		return err
	}
	// Each cluster occurrence rooted here disappears. One holding this atom
	// as a member went stale with the partners that referenced it, which
	// the same set updates.
	for _, cl := range s.clustersInvolving(t.Name) {
		if cl.def.RootType() == t.Name {
			if err := s.dropClusterOccurrence(cl, a); err != nil {
				return err
			}
		}
	}
	if undo && !s.dir.Exists(a) {
		return nil
	}
	refs, err := s.dir.Release(a)
	if err != nil {
		return err
	}
	return s.reclaim(t, a, refs)
}

// reclaim frees the records refs of atom a, whose address was released:
// its primary record and its sort-order and partition copies. Each cluster
// occurrence a roots went before the release (drop); no other atom's entry
// locates a cluster record.
func (s *System) reclaim(t *catalog.AtomType, a addr.LogicalAddr, refs []addr.RecordRef) error {
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
