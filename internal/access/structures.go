package access

import (
	"encoding/binary"
	"fmt"
	"sort"

	"prima/internal/access/addr"
	"prima/internal/access/atom"
	"prima/internal/access/btree"
	"prima/internal/access/mdindex"
	"prima/internal/access/record"
	"prima/internal/catalog"
	"prima/internal/storage/device"
	"prima/internal/storage/pageseq"
)

// This file implements the lifecycle of the LDL-declared tuning structures:
// "All tuning mechanisms - atom clusters as well as access paths, sort
// orders, and partitions - generate additional storage structures which
// materialize homogeneous or heterogeneous result sets. ... Such a redundant
// structure - specified by an LDL statement - may be generated and dropped
// at any time." (§3.2)

// --- binding helpers ---------------------------------------------------------

func (s *System) bindSortOrder(def *catalog.SortOrderDef, cont *record.Container, tree *btree.BTree) (*sortOrderStruct, error) {
	t, err := s.typeOf(def.AtomType)
	if err != nil {
		return nil, err
	}
	so := &sortOrderStruct{def: def, container: cont, tree: tree}
	allDesc := true
	anyDesc := false
	for _, d := range def.Desc {
		if d {
			anyDesc = true
		} else {
			allDesc = false
		}
	}
	if anyDesc && !allDesc {
		return nil, fmt.Errorf("access: sort order %s: mixed ASC/DESC directions are not supported", def.Name)
	}
	so.desc = anyDesc
	for _, a := range def.Attrs {
		i, ok := t.AttrIndex(a)
		if !ok {
			return nil, fmt.Errorf("%w: %s.%s", catalog.ErrUnknownAttr, def.AtomType, a)
		}
		so.attrIdxs = append(so.attrIdxs, i)
	}
	return so, nil
}

func (s *System) bindPartition(def *catalog.PartitionDef, cont *record.Container) (*partitionStruct, error) {
	t, err := s.typeOf(def.AtomType)
	if err != nil {
		return nil, err
	}
	p := &partitionStruct{def: def, container: cont}
	for _, a := range def.Attrs {
		i, ok := t.AttrIndex(a)
		if !ok {
			return nil, fmt.Errorf("%w: %s.%s", catalog.ErrUnknownAttr, def.AtomType, a)
		}
		p.attrIdxs = append(p.attrIdxs, i)
	}
	sort.Ints(p.attrIdxs)
	return p, nil
}

func (s *System) bindAccessPath(def *catalog.AccessPathDef) (*accessPathStruct, error) {
	t, err := s.typeOf(def.AtomType)
	if err != nil {
		return nil, err
	}
	ap := &accessPathStruct{def: def}
	for _, a := range def.Attrs {
		i, ok := t.AttrIndex(a)
		if !ok {
			return nil, fmt.Errorf("%w: %s.%s", catalog.ErrUnknownAttr, def.AtomType, a)
		}
		ap.attrIdxs = append(ap.attrIdxs, i)
	}
	return ap, nil
}

// sortKey builds the composite key of a sort order for one atom.
func (so *sortOrderStruct) sortKey(values []atom.Value) atom.Value {
	elems := make([]atom.Value, len(so.attrIdxs))
	for i, idx := range so.attrIdxs {
		elems[i] = values[idx]
	}
	return atom.List(elems...)
}

// apKeys extracts the key vector of an access path for one atom.
func (ap *accessPathStruct) apKeys(values []atom.Value) []atom.Value {
	keys := make([]atom.Value, len(ap.attrIdxs))
	for i, idx := range ap.attrIdxs {
		keys[i] = values[idx]
	}
	return keys
}

// --- creation (LDL execution) ------------------------------------------------

// CreateAccessPath registers the definition in the catalog and builds the
// index over the existing atoms.
func (s *System) CreateAccessPath(def *catalog.AccessPathDef) error {
	if err := s.schema.AddAccessPath(def); err != nil {
		return err
	}
	ap, err := s.bindAccessPath(def)
	if err != nil {
		return err
	}
	if def.Method == "BTREE" {
		seg, err := s.newSegment("appath_"+def.Name, device.B4K, 0)
		if err != nil {
			return err
		}
		if ap.tree, err = btree.Create(seg, s.pool); err != nil {
			return err
		}
	} else {
		ap.grid = mdindex.New(len(def.Attrs), 64)
	}
	s.mu.Lock()
	s.accessPaths[def.Name] = ap
	s.mu.Unlock()

	// Backfill from existing atoms. A B-tree is built from all of them at
	// once, bottom-up.
	t, err := s.typeOf(def.AtomType)
	if err != nil {
		return err
	}
	var pairs []btree.Pair
	var addErr error
	s.dir.Scan(t.ID, func(a addr.LogicalAddr, _ []addr.RecordRef) bool {
		at, err := s.Get(a, nil)
		if err != nil {
			addErr = err
			return false
		}
		if ap.tree != nil {
			pairs = append(pairs, btree.Pair{Key: at.Values[ap.attrIdxs[0]], Addr: a})
			return true
		}
		addErr = ap.enter(at.Values, a)
		return addErr == nil
	})
	if addErr == nil && ap.tree != nil {
		addErr = ap.tree.Build(pairs)
	}
	return addErr
}

// CreateSortOrder registers and materializes a sort order over the existing
// atoms of the type.
func (s *System) CreateSortOrder(def *catalog.SortOrderDef) error {
	if err := s.schema.AddSortOrder(def); err != nil {
		return err
	}
	cseg, err := s.newSegment("sortorder_"+def.Name, s.cfg.PageSize, 0)
	if err != nil {
		return err
	}
	cont, err := record.New(cseg, s.pool)
	if err != nil {
		return err
	}
	tseg, err := s.newSegment("sorttree_"+def.Name, device.B4K, 0)
	if err != nil {
		return err
	}
	tree, err := btree.Create(tseg, s.pool)
	if err != nil {
		return err
	}
	so, err := s.bindSortOrder(def, cont, tree)
	if err != nil {
		return err
	}
	s.mu.Lock()
	s.sortOrders[def.ID] = so
	s.mu.Unlock()

	t, err := s.typeOf(def.AtomType)
	if err != nil {
		return err
	}
	var addErr error
	s.dir.Scan(t.ID, func(a addr.LogicalAddr, _ []addr.RecordRef) bool {
		at, err := s.Get(a, nil)
		if err != nil {
			addErr = err
			return false
		}
		if addErr = s.sortOrderInsert(so, at.Values, a); addErr == nil {
			addErr = so.enter(at.Values, a)
		}
		return addErr == nil
	})
	return addErr
}

// sortOrderInsert adds one atom's redundant copy to a sort order; its entry
// in the sort order's tree is so.enter's.
func (s *System) sortOrderInsert(so *sortOrderStruct, values []atom.Value, a addr.LogicalAddr) error {
	rid, err := so.container.Insert(atom.EncodeAtom(values))
	if err != nil {
		return err
	}
	return s.dir.Register(a, addr.RecordRef{
		Struct: so.def.ID, Kind: addr.KindSortOrder, Where: rid, Valid: true,
	})
}

// CreatePartition registers and materializes a vertical partition.
func (s *System) CreatePartition(def *catalog.PartitionDef) error {
	if err := s.schema.AddPartition(def); err != nil {
		return err
	}
	seg, err := s.newSegment("partition_"+def.Name, device.B4K, 0)
	if err != nil {
		return err
	}
	cont, err := record.New(seg, s.pool)
	if err != nil {
		return err
	}
	p, err := s.bindPartition(def, cont)
	if err != nil {
		return err
	}
	s.mu.Lock()
	s.partitions[def.ID] = p
	s.mu.Unlock()

	t, err := s.typeOf(def.AtomType)
	if err != nil {
		return err
	}
	var addErr error
	s.dir.Scan(t.ID, func(a addr.LogicalAddr, _ []addr.RecordRef) bool {
		at, err := s.Get(a, nil)
		if err != nil {
			addErr = err
			return false
		}
		if addErr = s.partitionInsert(p, at.Values, a); addErr != nil {
			return false
		}
		return true
	})
	return addErr
}

// partitionInsert adds one atom's attribute subset to a partition.
func (s *System) partitionInsert(p *partitionStruct, values []atom.Value, a addr.LogicalAddr) error {
	rid, err := p.container.Insert(atom.EncodeProjection(p.attrIdxs, values))
	if err != nil {
		return err
	}
	return s.dir.Register(a, addr.RecordRef{
		Struct: p.def.ID, Kind: addr.KindPartition, Where: rid, Valid: true,
	})
}

// CreateCluster registers an atom-cluster type and materializes one atom
// cluster per existing root atom ("Inserting a characteristic atom generates
// a new atom cluster consisting of the characteristic atom and all atoms
// referenced by it").
func (s *System) CreateCluster(def *catalog.ClusterDef) error {
	if err := s.schema.AddCluster(def); err != nil {
		return err
	}
	seg, err := s.newSegment("cluster_"+def.Name, s.cfg.PageSize, 0)
	if err != nil {
		return err
	}
	cl := &clusterStruct{def: def, seg: seg, occurrences: map[addr.LogicalAddr]uint32{}, seqs: map[addr.LogicalAddr]*pageseq.Sequence{}}
	s.mu.Lock()
	s.clusters[def.ID] = cl
	s.mu.Unlock()

	root, err := s.typeOf(def.RootType())
	if err != nil {
		return err
	}
	var addErr error
	s.dir.Scan(root.ID, func(a addr.LogicalAddr, _ []addr.RecordRef) bool {
		if addErr = s.buildClusterOccurrence(cl, a); addErr != nil {
			return false
		}
		return true
	})
	return addErr
}

// clusterPayload is the serialized form of one atom cluster (Fig. 3.2b):
// the characteristic atom (reference lists grouped by atom type) followed by
// a relative address table and the member atom images.
//
//	count       uint32
//	table       count * (addr u64, offset u32, length u32)
//	member data ...
func buildClusterPayload(members []memberAtom) []byte {
	var table []byte
	var data []byte
	base := 4 + len(members)*16
	for _, m := range members {
		enc := atom.EncodeAtom(m.values)
		table = binary.BigEndian.AppendUint64(table, uint64(m.addr))
		table = binary.BigEndian.AppendUint32(table, uint32(base+len(data)))
		table = binary.BigEndian.AppendUint32(table, uint32(len(enc)))
		data = append(data, enc...)
	}
	out := make([]byte, 0, 4+len(table)+len(data))
	out = binary.BigEndian.AppendUint32(out, uint32(len(members)))
	out = append(out, table...)
	out = append(out, data...)
	return out
}

type memberAtom struct {
	addr   addr.LogicalAddr
	values []atom.Value
}

// clusterEntry is one row of a cluster payload's relative address table: a
// member atom and the byte range of its image in the payload.
type clusterEntry struct {
	addr     addr.LogicalAddr
	off, len int
}

// parseClusterTable decodes and checks the relative address table of a
// cluster payload.
func parseClusterTable(payload []byte) ([]clusterEntry, error) {
	if len(payload) < 4 {
		return nil, fmt.Errorf("access: truncated cluster payload")
	}
	n := uint64(binary.BigEndian.Uint32(payload))
	if uint64(len(payload)) < 4+n*16 {
		return nil, fmt.Errorf("access: truncated cluster table")
	}
	entries := make([]clusterEntry, n)
	for i := range entries {
		var err error
		if entries[i], err = decodeClusterEntry(payload[4+i*16:], len(payload)); err != nil {
			return nil, err
		}
	}
	return entries, nil
}

// decodeClusterEntry decodes the table row at the head of row and checks that
// the member's byte range lies within a payload of size bytes; the sum is
// taken in 64 bits, so a stored offset and length cannot wrap past the check.
func decodeClusterEntry(row []byte, size int) (clusterEntry, error) {
	a := addr.LogicalAddr(binary.BigEndian.Uint64(row))
	off := uint64(binary.BigEndian.Uint32(row[8:]))
	n := uint64(binary.BigEndian.Uint32(row[12:]))
	if off+n > uint64(size) {
		return clusterEntry{}, fmt.Errorf("access: cluster member %v at %d+%d past the payload's %d bytes", a, off, n, size)
	}
	return clusterEntry{addr: a, off: int(off), len: int(n)}, nil
}

// collectClusterMembers gathers the atoms of one molecule occurrence
// following the cluster's molecule structure from the root atom — the
// "main lanes to be traversed during molecule derivation".
func (s *System) collectClusterMembers(cl *clusterStruct, root addr.LogicalAddr) ([]memberAtom, error) {
	var members []memberAtom
	seen := map[addr.LogicalAddr]bool{}

	var walk func(node *catalog.MolNode, a addr.LogicalAddr) error
	walk = func(node *catalog.MolNode, a addr.LogicalAddr) error {
		if seen[a] {
			return nil
		}
		at, err := s.Get(a, nil)
		if err != nil {
			return err
		}
		seen[a] = true
		members = append(members, memberAtom{addr: a, values: at.Values})

		t := at.Type
		for _, child := range node.Children {
			idx, ok := t.AttrIndex(child.Via)
			if !ok {
				return fmt.Errorf("%w: %s.%s", catalog.ErrUnknownAttr, t.Name, child.Via)
			}
			for ta := range at.Values[idx].AllRefs() {
				if child.Recursive {
					if err := walk(node, ta); err != nil { // re-apply the same level
						return err
					}
				} else if err := walk(child, ta); err != nil {
					return err
				}
			}
		}
		return nil
	}
	if err := walk(cl.def.Molecule.Root, root); err != nil {
		return nil, err
	}
	return members, nil
}

// buildClusterOccurrence materializes (or rebuilds) the atom cluster rooted
// at root.
func (s *System) buildClusterOccurrence(cl *clusterStruct, root addr.LogicalAddr) error {
	members, err := s.collectClusterMembers(cl, root)
	if err != nil {
		return err
	}
	payload := buildClusterPayload(members)

	s.mu.Lock()
	oldHeader, had := cl.occurrences[root]
	s.mu.Unlock()

	if had {
		// Unregister old member refs before rewriting.
		oldSeq, err := pageseq.Open(cl.seg, oldHeader)
		if err != nil {
			return err
		}
		oldPayload, err := oldSeq.ReadAll()
		if err != nil {
			return err
		}
		old, err := parseClusterTable(oldPayload)
		if err != nil {
			return err
		}
		for _, e := range old {
			if s.dir.Exists(e.addr) {
				_ = s.dir.Unregister(e.addr, cl.def.ID)
			}
		}
		if err := oldSeq.Delete(); err != nil {
			return err
		}
	}

	seq, err := pageseq.Create(cl.seg, payload)
	if err != nil {
		return err
	}
	s.mu.Lock()
	cl.occurrences[root] = seq.HeaderPage()
	cl.seqs[root] = seq
	s.mu.Unlock()
	for i, m := range members {
		if err := s.dir.Register(m.addr, addr.RecordRef{
			Struct: cl.def.ID, Kind: addr.KindCluster,
			Where: addr.RID{Page: seq.HeaderPage(), Slot: uint16(i)}, Valid: true,
		}); err != nil {
			return err
		}
	}
	return nil
}

// dropClusterOccurrence removes the cluster rooted at root ("deleting a
// characteristic atom deletes a whole atom cluster").
func (s *System) dropClusterOccurrence(cl *clusterStruct, root addr.LogicalAddr) error {
	s.mu.Lock()
	header, ok := cl.occurrences[root]
	if ok {
		delete(cl.occurrences, root)
		delete(cl.seqs, root)
	}
	s.mu.Unlock()
	if !ok {
		return nil
	}
	seq, err := pageseq.Open(cl.seg, header)
	if err != nil {
		return err
	}
	payload, err := seq.ReadAll()
	if err != nil {
		return err
	}
	entries, err := parseClusterTable(payload)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if s.dir.Exists(e.addr) {
			_ = s.dir.Unregister(e.addr, cl.def.ID)
		}
	}
	return seq.Delete()
}

// keyed is a structure that enters each atom of its type under a key built
// from some of its attributes: an access path, or a sort order's tree.
type keyed interface {
	keyAttrs() []int
	enter(values []atom.Value, a addr.LogicalAddr) error
	remove(values []atom.Value, a addr.LogicalAddr) error
}

func (ap *accessPathStruct) keyAttrs() []int { return ap.attrIdxs }

// enter adds an atom to the access path.
func (ap *accessPathStruct) enter(values []atom.Value, a addr.LogicalAddr) error {
	if ap.tree != nil {
		return ap.tree.Insert(values[ap.attrIdxs[0]], a)
	}
	return ap.grid.Insert(ap.apKeys(values), a)
}

// remove removes an atom from the access path.
func (ap *accessPathStruct) remove(values []atom.Value, a addr.LogicalAddr) error {
	if ap.tree != nil {
		return ap.tree.Delete(values[ap.attrIdxs[0]], a)
	}
	return ap.grid.Delete(ap.apKeys(values), a)
}

func (so *sortOrderStruct) keyAttrs() []int { return so.attrIdxs }

func (so *sortOrderStruct) enter(values []atom.Value, a addr.LogicalAddr) error {
	return so.tree.Insert(so.sortKey(values), a)
}

func (so *sortOrderStruct) remove(values []atom.Value, a addr.LogicalAddr) error {
	return so.tree.Delete(so.sortKey(values), a)
}

// DropLDL tears down the named LDL structure of any kind.
func (s *System) DropLDL(name string) error {
	def, err := s.schema.DropLDL(name)
	if err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	switch d := def.(type) {
	case *catalog.AccessPathDef:
		delete(s.accessPaths, name)
	case *catalog.SortOrderDef:
		so := s.sortOrders[d.ID]
		delete(s.sortOrders, d.ID)
		if so != nil {
			t, _ := s.schema.AtomType(d.AtomType)
			if t != nil {
				s.dir.Scan(t.ID, func(a addr.LogicalAddr, _ []addr.RecordRef) bool {
					_ = s.dir.Unregister(a, d.ID)
					return true
				})
			}
		}
	case *catalog.PartitionDef:
		p := s.partitions[d.ID]
		delete(s.partitions, d.ID)
		if p != nil {
			t, _ := s.schema.AtomType(d.AtomType)
			if t != nil {
				s.dir.Scan(t.ID, func(a addr.LogicalAddr, _ []addr.RecordRef) bool {
					_ = s.dir.Unregister(a, d.ID)
					return true
				})
			}
		}
	case *catalog.ClusterDef:
		cl := s.clusters[d.ID]
		delete(s.clusters, d.ID)
		if cl != nil {
			for root := range cl.occurrences {
				s.mu.Unlock()
				err := s.dropClusterOccurrence(cl, root)
				s.mu.Lock()
				if err != nil {
					return err
				}
			}
		}
	default:
		return fmt.Errorf("%w: %T", ErrUnknownStruct, def)
	}
	return nil
}

// sortOrdersOf returns the live sort orders on a type.
func (s *System) sortOrdersOf(typeName string) []*sortOrderStruct {
	var out []*sortOrderStruct
	s.mu.RLock()
	defer s.mu.RUnlock()
	for _, so := range s.sortOrders {
		if so.def.AtomType == typeName {
			out = append(out, so)
		}
	}
	return out
}

// partitionsOf returns the live partitions on a type.
func (s *System) partitionsOf(typeName string) []*partitionStruct {
	var out []*partitionStruct
	s.mu.RLock()
	defer s.mu.RUnlock()
	for _, p := range s.partitions {
		if p.def.AtomType == typeName {
			out = append(out, p)
		}
	}
	return out
}

// accessPathsOf returns the live access paths on a type.
func (s *System) accessPathsOf(typeName string) []*accessPathStruct {
	var out []*accessPathStruct
	s.mu.RLock()
	defer s.mu.RUnlock()
	for _, ap := range s.accessPaths {
		if ap.def.AtomType == typeName {
			out = append(out, ap)
		}
	}
	return out
}

// clustersInvolving returns the live clusters containing the type.
func (s *System) clustersInvolving(typeName string) []*clusterStruct {
	var out []*clusterStruct
	s.mu.RLock()
	defer s.mu.RUnlock()
	for _, cl := range s.clusters {
		for _, at := range cl.def.Molecule.AtomTypes() {
			if at == typeName {
				out = append(out, cl)
				break
			}
		}
	}
	return out
}

// buildRootedClusters builds the occurrences of the clusters whose root type
// is t for root atom a.
func (s *System) buildRootedClusters(t *catalog.AtomType, a addr.LogicalAddr) error {
	for _, cl := range s.clustersInvolving(t.Name) {
		if cl.def.RootType() == t.Name {
			if err := s.buildClusterOccurrence(cl, a); err != nil {
				return fmt.Errorf("access: cluster %s of %v: %w", cl.def.Name, a, err)
			}
		}
	}
	return nil
}

// clusterByName returns the live cluster structure with the given name.
func (s *System) clusterByName(name string) (*clusterStruct, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	for _, cl := range s.clusters {
		if cl.def.Name == name {
			return cl, nil
		}
	}
	return nil, fmt.Errorf("%w: cluster %s", ErrUnknownStruct, name)
}
