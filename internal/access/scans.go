package access

import (
	"fmt"
	"sort"

	"prima/internal/access/addr"
	"prima/internal/access/atom"
	"prima/internal/access/mdindex"
	"prima/internal/catalog"
)

// Scans (§3.2): "scans are introduced as a concept to control a dynamically
// defined set of atoms, to hold a current position in such a set, and to
// successively accept single atoms (NEXT/PRIOR) for further processing."
// Five kinds are provided: atom-type scan, sort scan, access-path scan,
// atom-cluster-type scan and atom-cluster scan.

// Op is a comparison operator of a simple search argument.
type Op uint8

// SSA operators.
const (
	OpEQ Op = iota
	OpNE
	OpLT
	OpLE
	OpGT
	OpGE
	OpEmpty    // repeating group is empty (MQL: attr = EMPTY)
	OpNotEmpty // repeating group is non-empty
)

// Cond is one conjunct of a simple search argument.
type Cond struct {
	Attr  string
	Op    Op
	Value atom.Value
}

// SSA is a simple search argument: a conjunction of attribute comparisons
// "decidable on each atom".
type SSA []Cond

// Eval decides the SSA on a decoded atom.
func (ssa SSA) Eval(at *Atom) (bool, error) {
	return ssa.eval(at.Type, func(i int) atom.Value { return at.Values[i] })
}

// EvalRecord decides the SSA on a record image, decoding only the attributes
// it tests.
func (ssa SSA) EvalRecord(r Record) (bool, error) { return ssa.eval(r.Type, r.Image.Attr) }

func (ssa SSA) eval(t *catalog.AtomType, attr func(int) atom.Value) (bool, error) {
	for _, c := range ssa {
		i, ok := t.AttrIndex(c.Attr)
		if !ok {
			return false, fmt.Errorf("%w: %s.%s", catalog.ErrUnknownAttr, t.Name, c.Attr)
		}
		v := attr(i)
		switch c.Op {
		case OpEmpty:
			if v.Len() != 0 {
				return false, nil
			}
			continue
		case OpNotEmpty:
			if v.Len() == 0 {
				return false, nil
			}
			continue
		}
		if v.IsNull() || c.Value.IsNull() {
			// NULL compares false against everything except NE.
			if c.Op == OpNE && !(v.IsNull() && c.Value.IsNull()) {
				continue
			}
			return false, nil
		}
		cmp := atom.Compare(v, c.Value)
		ok = false
		switch c.Op {
		case OpEQ:
			ok = cmp == 0
		case OpNE:
			ok = cmp != 0
		case OpLT:
			ok = cmp < 0
		case OpLE:
			ok = cmp <= 0
		case OpGT:
			ok = cmp > 0
		case OpGE:
			ok = cmp >= 0
		}
		if !ok {
			return false, nil
		}
	}
	return true, nil
}

// attrsFor extends a projection with the attributes an SSA needs.
func (ssa SSA) attrsFor(attrs []string) []string {
	if attrs == nil {
		return nil
	}
	out := append([]string(nil), attrs...)
	for _, c := range ssa {
		found := false
		for _, a := range out {
			if a == c.Attr {
				found = true
				break
			}
		}
		if !found {
			out = append(out, c.Attr)
		}
	}
	return out
}

// scanDecodeBatch is the chunk size full-width scans accumulate before one
// batched page read.
const scanDecodeBatch = 64

// AtomTypeScan successively reads all atoms of one atom type in
// system-defined order, optionally restricted by a simple search argument
// and projected to selected attributes — the RSS relation-scan analogue.
// Full-width scans read their records in chunks, one page fix per page of a
// chunk; projected scans stay per-atom because partition coverage is decided
// per record.
func (s *System) AtomTypeScan(typeName string, ssa SSA, attrs []string, fn func(*Atom) bool) error {
	t, err := s.typeOf(typeName)
	if err != nil {
		return err
	}
	fetch := ssa.attrsFor(attrs)
	if fetch == nil {
		return s.atomTypeScanBatched(t, ssa, fn)
	}
	var scanErr error
	s.dir.Scan(t.ID, func(a addr.LogicalAddr, _ []addr.RecordRef) bool {
		at, err := s.Get(a, fetch)
		if err != nil {
			scanErr = err
			return false
		}
		ok, err := ssa.Eval(at)
		if err != nil {
			scanErr = err
			return false
		}
		if !ok {
			return true
		}
		return fn(at)
	})
	return scanErr
}

// atomTypeScanBatched is AtomTypeScan's full-width path: addresses gather in
// chunks of scanDecodeBatch, each chunk one batched record read. The SSA is
// decided on the record image, so only qualifying atoms are decoded. Scan
// results are deliberately not published to the cache — a scan touches every
// atom once and would evict the hot checkout working set.
func (s *System) atomTypeScanBatched(t *catalog.AtomType, ssa SSA, fn func(*Atom) bool) error {
	var pend []addr.LogicalAddr
	var scanErr error
	stopped := false
	flush := func() bool {
		recs := recordsOf(pend)
		if err := s.fill(recs, nil, false); err != nil {
			scanErr = err
			return false
		}
		for _, rec := range recs {
			ok, err := ssa.EvalRecord(rec)
			if err != nil {
				scanErr = err
				return false
			}
			if !ok {
				continue
			}
			if !fn(rec.Decode()) {
				stopped = true
				return false
			}
		}
		pend = pend[:0]
		return true
	}
	s.dir.Scan(t.ID, func(a addr.LogicalAddr, _ []addr.RecordRef) bool {
		pend = append(pend, a)
		if len(pend) >= scanDecodeBatch {
			return flush()
		}
		return true
	})
	if scanErr == nil && !stopped {
		flush()
	}
	return scanErr
}

// ScanAddrs returns the logical addresses of all atoms of the type in
// system-defined order. The data system uses it to drive pull-based
// molecule cursors.
func (s *System) ScanAddrs(typeName string) ([]addr.LogicalAddr, error) {
	t, err := s.typeOf(typeName)
	if err != nil {
		return nil, err
	}
	out := make([]addr.LogicalAddr, 0, s.dir.Count(t.ID))
	s.dir.Scan(t.ID, func(a addr.LogicalAddr, _ []addr.RecordRef) bool {
		out = append(out, a)
		return true
	})
	return out, nil
}

// ScanAddrsAfter returns up to limit addresses of the type in system-defined
// order, starting strictly after the given sequence number. The data system
// streams molecule roots through it chunk by chunk instead of materializing
// the whole root set up front.
func (s *System) ScanAddrsAfter(typeName string, after uint64, limit int) ([]addr.LogicalAddr, error) {
	t, err := s.typeOf(typeName)
	if err != nil {
		return nil, err
	}
	return s.dir.ScanRange(t.ID, after, limit), nil
}

// MaxSeq returns the highest sequence number handed out for the type so far
// — the snapshot bound paged scans capture at open.
func (s *System) MaxSeq(typeName string) (uint64, error) {
	t, err := s.typeOf(typeName)
	if err != nil {
		return 0, err
	}
	return s.dir.MaxSeq(t.ID), nil
}

// sortOrderByName resolves a sort order structure by its LDL name.
func (s *System) sortOrderByName(name string) (*sortOrderStruct, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	for _, cand := range s.sortOrders {
		if cand.def.Name == name {
			return cand, nil
		}
	}
	return nil, fmt.Errorf("%w: sort order %s", ErrUnknownStruct, name)
}

// SortScan reads all atoms of one atom type in the user-defined order of a
// sort order, restricted by an SSA and a start/stop condition on the sort
// key. Stale redundant records transparently fall back to the primary copy.
func (s *System) SortScan(sortOrderName string, ssa SSA, start, stop []atom.Value, fn func(*Atom) bool) error {
	so, err := s.sortOrderByName(sortOrderName)
	if err != nil {
		return err
	}
	t, err := s.typeOf(so.def.AtomType)
	if err != nil {
		return err
	}

	var startKey, stopKey *atom.Value
	if start != nil {
		k := atom.List(start...)
		startKey = &k
	}
	if stop != nil {
		k := atom.List(stop...)
		stopKey = &k
	}

	// Chunked reads: valid sort-order copies of a chunk are read together;
	// stale or unreadable records fall back to the per-atom primary path,
	// atom by atom.
	var pend []addr.LogicalAddr
	var scanErr error
	stopped := false
	flush := func() bool {
		if len(pend) == 0 {
			return true
		}
		atoms := make([]*Atom, len(pend))
		var validIdx []int
		var rids []addr.RID
		for i, a := range pend {
			if ref, ok := s.dir.LookupStruct(a, so.def.ID); ok && ref.Valid {
				validIdx = append(validIdx, i)
				rids = append(rids, ref.Where)
			}
		}
		if len(validIdx) > 0 {
			recs := make([][]byte, len(rids))
			if _, err := so.container.ReadBatch(rids, recs); err == nil {
				for j, i := range validIdx {
					if values, err := atom.DecodeAtomOwned(recs[j]); err == nil {
						atoms[i] = &Atom{Type: t, Addr: pend[i], Values: values}
					}
				}
			}
			// On failure atoms stay nil and re-read per atom below.
		}
		for i, at := range atoms {
			if at == nil {
				var err error
				if at, err = s.readSortRecord(so, t, pend[i]); err != nil {
					scanErr = err
					return false
				}
			}
			ok, err := ssa.Eval(at)
			if err != nil {
				scanErr = err
				return false
			}
			if !ok {
				continue
			}
			if !fn(at) {
				stopped = true
				return false
			}
		}
		pend = pend[:0]
		return true
	}
	err = so.tree.Scan(startKey, stopKey, so.desc, func(_ atom.Value, a addr.LogicalAddr) bool {
		pend = append(pend, a)
		if len(pend) >= scanDecodeBatch {
			return flush()
		}
		return true
	})
	if scanErr != nil {
		return scanErr
	}
	if err != nil {
		return err
	}
	if !stopped {
		flush()
	}
	return scanErr
}

// SortOrderAddrs returns the addresses of all atoms of a single-attribute
// sort order whose key lies within [start, stop] (nil bounds are open), in
// sort-key order — the data system's range-restricted root enumeration for
// <, <=, >, >= qualifications without an access path. The interval is
// inclusive; callers with strict bounds re-decide the boundary atoms via
// their own SSA.
func (s *System) SortOrderAddrs(sortOrderName string, start, stop *atom.Value) ([]addr.LogicalAddr, error) {
	so, err := s.sortOrderByName(sortOrderName)
	if err != nil {
		return nil, err
	}
	if len(so.attrIdxs) != 1 {
		return nil, fmt.Errorf("access: sort order %s has %d attributes, range scans take 1", sortOrderName, len(so.attrIdxs))
	}
	// Sort keys are composite (LIST-wrapped) even for a single attribute.
	var sk, ek *atom.Value
	if start != nil {
		k := atom.List(*start)
		sk = &k
	}
	if stop != nil {
		k := atom.List(*stop)
		ek = &k
	}
	var out []addr.LogicalAddr
	err = so.tree.Scan(sk, ek, so.desc, func(_ atom.Value, a addr.LogicalAddr) bool {
		out = append(out, a)
		return true
	})
	return out, err
}

// readSortRecord reads an atom through its sort-order copy when valid, or
// through the primary otherwise.
func (s *System) readSortRecord(so *sortOrderStruct, t *catalog.AtomType, a addr.LogicalAddr) (*Atom, error) {
	ref, ok := s.dir.LookupStruct(a, so.def.ID)
	if ok && ref.Valid {
		data, err := so.container.Read(ref.Where)
		if err == nil {
			values, err := atom.DecodeAtomOwned(data)
			if err == nil {
				return &Atom{Type: t, Addr: a, Values: values}, nil
			}
		}
	}
	return s.Get(a, nil)
}

// SortedTypeScan is the fallback when no sort order exists: it performs the
// sort explicitly ("creating a temporary sort order") over the attributes.
// It exists mainly as the baseline of experiment A2.
func (s *System) SortedTypeScan(typeName string, attrs []string, desc bool, ssa SSA, fn func(*Atom) bool) error {
	t, err := s.typeOf(typeName)
	if err != nil {
		return err
	}
	idxs := make([]int, 0, len(attrs))
	for _, a := range attrs {
		i, ok := t.AttrIndex(a)
		if !ok {
			return fmt.Errorf("%w: %s.%s", catalog.ErrUnknownAttr, typeName, a)
		}
		idxs = append(idxs, i)
	}
	var all []*Atom
	if err := s.AtomTypeScan(typeName, ssa, nil, func(at *Atom) bool {
		all = append(all, at)
		return true
	}); err != nil {
		return err
	}
	sort.SliceStable(all, func(i, j int) bool {
		for _, idx := range idxs {
			c := atom.Compare(all[i].Values[idx], all[j].Values[idx])
			if desc {
				c = -c
			}
			if c != 0 {
				return c < 0
			}
		}
		return false
	})
	for _, at := range all {
		if !fn(at) {
			return nil
		}
	}
	return nil
}

// AccessPathScan scans an access path with start/stop conditions and
// directions per key ("the user - the data system - determines the
// selection path for elements in an n-dimensional space"). fn receives the
// key vector and the atom address.
func (s *System) AccessPathScan(name string, ranges []mdindex.Range, fn func(keys []atom.Value, a addr.LogicalAddr) bool) error {
	s.mu.RLock()
	ap := s.accessPaths[name]
	s.mu.RUnlock()
	if ap == nil {
		return fmt.Errorf("%w: access path %s", ErrUnknownStruct, name)
	}
	if len(ranges) != len(ap.attrIdxs) {
		return fmt.Errorf("access: access path %s has %d keys, got %d ranges", name, len(ap.attrIdxs), len(ranges))
	}
	if ap.tree != nil {
		r := ranges[0]
		return ap.tree.Scan(r.Start, r.Stop, r.Desc, func(k atom.Value, a addr.LogicalAddr) bool {
			return fn([]atom.Value{k}, a)
		})
	}
	return ap.grid.Scan(ranges, func(e mdindex.Entry) bool {
		return fn(e.Keys, e.Addr)
	})
}

// AccessPathSearch returns the addresses matching the exact key vector.
func (s *System) AccessPathSearch(name string, keys []atom.Value) ([]addr.LogicalAddr, error) {
	s.mu.RLock()
	ap := s.accessPaths[name]
	s.mu.RUnlock()
	if ap == nil {
		return nil, fmt.Errorf("%w: access path %s", ErrUnknownStruct, name)
	}
	if ap.tree != nil {
		if len(keys) != 1 {
			return nil, fmt.Errorf("access: access path %s takes 1 key, got %d", name, len(keys))
		}
		return ap.tree.Search(keys[0])
	}
	return ap.grid.Search(keys)
}

// ClusterOccurrence is one materialized atom cluster: the characteristic
// atom's reference lists plus the member atoms, as checked record images over
// the one payload its record read returned.
type ClusterOccurrence struct {
	Root    addr.LogicalAddr
	Records []Record
	byAddr  map[addr.LogicalAddr]int
}

// Record returns the member with the given address.
func (o *ClusterOccurrence) Record(a addr.LogicalAddr) (Record, bool) {
	i, ok := o.byAddr[a]
	if !ok {
		return Record{}, false
	}
	return o.Records[i], true
}

// ClusterRoots returns the characteristic (root) atoms of a cluster type in
// system-defined order: every live atom of its root type.
func (s *System) ClusterRoots(clusterName string) ([]addr.LogicalAddr, error) {
	cl, err := s.clusterByName(clusterName)
	if err != nil {
		return nil, err
	}
	return s.ScanAddrs(cl.def.RootType())
}

// readOccurrence loads the occurrence rooted at root: one record read, the
// whole cluster in one page (or one chained page sequence when it is longer
// than half a page) — the Fig. 3.2 claim the benchmarks measure. A stale or
// missing occurrence is rebuilt first (lazy deferred-update propagation),
// once for all the readers that find it so.
func (s *System) readOccurrence(cl *clusterStruct, root addr.LogicalAddr) (*ClusterOccurrence, error) {
	ref, payload, err := s.storedOccurrence(cl, root)
	if err == nil && (payload == nil || !ref.Valid) {
		cl.mu.Lock()
		if ref, payload, err = s.storedOccurrence(cl, root); err == nil && (payload == nil || !ref.Valid) {
			payload, err = s.buildOccurrence(cl, root)
		}
		cl.mu.Unlock()
	}
	if err != nil {
		return nil, err
	}
	entries, err := parseClusterTable(payload)
	if err != nil {
		return nil, err
	}
	occ := &ClusterOccurrence{
		Root:    root,
		Records: make([]Record, len(entries)),
		byAddr:  make(map[addr.LogicalAddr]int, len(entries)),
	}
	for i, e := range entries {
		t, err := s.typeByID(e.addr.Type())
		if err != nil {
			return nil, err
		}
		// The payload is a fresh copy owned by this occurrence; the images
		// slice it.
		img, err := atom.CheckImage(payload[e.off : e.off+e.len])
		if err != nil {
			return nil, err
		}
		occ.Records[i] = Record{Type: t, Addr: e.addr, Image: img}
		occ.byAddr[e.addr] = i
	}
	return occ, nil
}

// ClusterOccurrenceOf loads the materialized occurrence of the named
// cluster type rooted at root (the data system assembles molecules from it
// instead of issuing per-atom reads).
func (s *System) ClusterOccurrenceOf(clusterName string, root addr.LogicalAddr) (*ClusterOccurrence, error) {
	cl, err := s.clusterByName(clusterName)
	if err != nil {
		return nil, err
	}
	return s.readOccurrence(cl, root)
}

// ClusterTypeScan reads all characteristic atoms of an atom-cluster type in
// system-defined order. The SSA must be decidable in one pass through a
// single atom cluster; it is evaluated against the root atom.
func (s *System) ClusterTypeScan(clusterName string, ssa SSA, fn func(*ClusterOccurrence) bool) error {
	cl, err := s.clusterByName(clusterName)
	if err != nil {
		return err
	}
	roots, err := s.ClusterRoots(clusterName)
	if err != nil {
		return err
	}
	for _, root := range roots {
		occ, err := s.readOccurrence(cl, root)
		if err != nil {
			return err
		}
		rootRec, ok := occ.Record(root)
		if !ok {
			return fmt.Errorf("access: cluster %s occurrence %v lacks its root", clusterName, root)
		}
		match, err := ssa.EvalRecord(rootRec)
		if err != nil {
			return err
		}
		if !match {
			continue
		}
		if !fn(occ) {
			return nil
		}
	}
	return nil
}

// ClusterScan reads all atoms of a certain atom type within one single atom
// cluster in system-defined order, possibly restricted by an SSA.
func (s *System) ClusterScan(clusterName string, root addr.LogicalAddr, memberType string, ssa SSA, fn func(*Atom) bool) error {
	cl, err := s.clusterByName(clusterName)
	if err != nil {
		return err
	}
	occ, err := s.readOccurrence(cl, root)
	if err != nil {
		return err
	}
	for _, rec := range occ.Records {
		if rec.Type.Name != memberType {
			continue
		}
		ok, err := ssa.EvalRecord(rec)
		if err != nil {
			return err
		}
		if !ok {
			continue
		}
		if !fn(rec.Decode()) {
			return nil
		}
	}
	return nil
}

// HasCluster reports whether a cluster with the given name exists.
func (s *System) HasCluster(name string) bool {
	_, err := s.clusterByName(name)
	return err == nil
}
