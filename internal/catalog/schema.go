package catalog

import (
	"fmt"
	"sort"
	"sync"

	"prima/internal/access/addr"
)

// LDL structure definitions (§2.3). These are pure metadata; the access
// system owns the corresponding storage structures.

// AccessPathDef declares an access path over one or more attributes
// ("several access methods for one or more attributes permitting
// multidimensional access").
type AccessPathDef struct {
	Name     string   `json:"name"`
	AtomType string   `json:"atomType"`
	Attrs    []string `json:"attrs"`
	Method   string   `json:"method"` // "BTREE" (1 attr) or "GRID" (n attrs)
	Unique   bool     `json:"unique,omitempty"`
}

// SortOrderDef declares a redundant sort order ("sort orders to speed up
// sequential processing according to given sort criteria").
type SortOrderDef struct {
	ID       addr.StructID `json:"id"`
	Name     string        `json:"name"`
	AtomType string        `json:"atomType"`
	Attrs    []string      `json:"attrs"`
	Desc     []bool        `json:"desc,omitempty"`
}

// PartitionDef declares a vertical partition ("partitioning of physical
// records to improve clustering of frequently accessed attributes").
type PartitionDef struct {
	ID       addr.StructID `json:"id"`
	Name     string        `json:"name"`
	AtomType string        `json:"atomType"`
	Attrs    []string      `json:"attrs"`
}

// ClusterDef declares an atom-cluster type: the molecule structure whose
// atoms are materialized in physical contiguity (§3.2, Fig. 3.2).
type ClusterDef struct {
	ID       addr.StructID `json:"id"`
	Name     string        `json:"name"`
	Molecule *MoleculeType `json:"molecule"`
}

// RootType returns the cluster's characteristic root atom type.
func (c *ClusterDef) RootType() string { return c.Molecule.Root.AtomType }

// Schema is the catalog root: atom types, molecule types and LDL structure
// definitions. It is safe for concurrent use.
type Schema struct {
	mu         sync.RWMutex
	atomTypes  map[string]*AtomType
	byID       map[addr.TypeID]*AtomType
	molTypes   map[string]*MoleculeType
	accessPath map[string]*AccessPathDef
	sortOrders map[string]*SortOrderDef
	partitions map[string]*PartitionDef
	clusters   map[string]*ClusterDef

	nextTypeID   addr.TypeID
	nextStructID addr.StructID
	version      uint64 // bumped by every successful DDL mutation
}

// Version returns the schema's DDL mutation counter. Plan and statement
// caches key on it so any DDL invalidates them naturally.
func (s *Schema) Version() uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.version
}

// NewSchema creates an empty schema.
func NewSchema() *Schema {
	return &Schema{
		atomTypes:    make(map[string]*AtomType),
		byID:         make(map[addr.TypeID]*AtomType),
		molTypes:     make(map[string]*MoleculeType),
		accessPath:   make(map[string]*AccessPathDef),
		sortOrders:   make(map[string]*SortOrderDef),
		partitions:   make(map[string]*PartitionDef),
		clusters:     make(map[string]*ClusterDef),
		nextTypeID:   1,
		nextStructID: 1, // StructID 0 is every atom type's primary structure
	}
}

// AddAtomType registers a new atom type and assigns its TypeID. Association
// symmetry is checked lazily by ResolveAssociations so DDL scripts may
// declare mutually referencing types in any order (Fig. 2.3 does).
func (s *Schema) AddAtomType(t *AtomType) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.atomTypes[t.Name]; dup {
		return fmt.Errorf("%w: atom type %s", ErrDuplicate, t.Name)
	}
	if t.attrIdx == nil {
		if err := t.build(); err != nil {
			return err
		}
	}
	t.ID = s.nextTypeID
	s.nextTypeID++
	s.atomTypes[t.Name] = t
	s.byID[t.ID] = t
	s.version++
	return nil
}

// DropAtomType removes an atom type. It fails while other types reference it
// or LDL structures depend on it.
func (s *Schema) DropAtomType(name string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	t, ok := s.atomTypes[name]
	if !ok {
		return fmt.Errorf("%w: %s", ErrUnknownType, name)
	}
	for _, other := range s.atomTypes {
		if other.Name == name {
			continue
		}
		if len(other.AttrsTargeting(name)) > 0 {
			return fmt.Errorf("%w: %s is referenced by %s", ErrInUse, name, other.Name)
		}
	}
	for _, m := range s.molTypes {
		for _, at := range m.AtomTypes() {
			if at == name {
				return fmt.Errorf("%w: %s is used by molecule type %s", ErrInUse, name, m.Name)
			}
		}
	}
	for _, d := range s.accessPath {
		if d.AtomType == name {
			return fmt.Errorf("%w: %s has access path %s", ErrInUse, name, d.Name)
		}
	}
	for _, d := range s.sortOrders {
		if d.AtomType == name {
			return fmt.Errorf("%w: %s has sort order %s", ErrInUse, name, d.Name)
		}
	}
	for _, d := range s.partitions {
		if d.AtomType == name {
			return fmt.Errorf("%w: %s has partition %s", ErrInUse, name, d.Name)
		}
	}
	for _, d := range s.clusters {
		for _, at := range d.Molecule.AtomTypes() {
			if at == name {
				return fmt.Errorf("%w: %s is clustered by %s", ErrInUse, name, d.Name)
			}
		}
	}
	delete(s.atomTypes, name)
	delete(s.byID, t.ID)
	s.version++
	return nil
}

// AtomType returns the named atom type.
func (s *Schema) AtomType(name string) (*AtomType, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	t, ok := s.atomTypes[name]
	return t, ok
}

// AtomTypeByID returns the atom type with the given TypeID.
func (s *Schema) AtomTypeByID(id addr.TypeID) (*AtomType, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	t, ok := s.byID[id]
	return t, ok
}

// AtomTypes returns all atom types sorted by name.
func (s *Schema) AtomTypes() []*AtomType {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]*AtomType, 0, len(s.atomTypes))
	for _, t := range s.atomTypes {
		out = append(out, t)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// ResolveAssociations verifies that every reference attribute has a partner
// attribute of the target type referencing back — the system-enforced
// symmetry of §2.2 ("the referenced record must contain a back-reference
// that can be used in exactly the same way").
func (s *Schema) ResolveAssociations() error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	for _, t := range s.atomTypes {
		for _, i := range t.RefAttrs() {
			a := t.Attrs[i]
			tt, ta, _ := a.Type.RefTarget()
			target, ok := s.atomTypes[tt]
			if !ok {
				return fmt.Errorf("%w: %s.%s references unknown type %s", ErrUnknownType, t.Name, a.Name, tt)
			}
			back, ok := target.Attr(ta)
			if !ok {
				return fmt.Errorf("%w: %s.%s references %s.%s which does not exist", ErrUnknownAttr, t.Name, a.Name, tt, ta)
			}
			bt, ba, isRef := back.Type.RefTarget()
			if !isRef {
				return fmt.Errorf("%w: %s.%s is not a reference attribute (back of %s.%s)", ErrAsymmetric, tt, ta, t.Name, a.Name)
			}
			if bt != t.Name || ba != a.Name {
				return fmt.Errorf("%w: %s.%s -> %s.%s but %s.%s -> %s.%s", ErrAsymmetric,
					t.Name, a.Name, tt, ta, tt, ta, bt, ba)
			}
		}
	}
	return nil
}

// DefineMoleculeType validates and registers a named molecule type.
func (s *Schema) DefineMoleculeType(m *MoleculeType) error {
	if err := m.Validate(s); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if m.Name == "" {
		return fmt.Errorf("%w: molecule type needs a name", ErrBadMolecule)
	}
	if _, dup := s.molTypes[m.Name]; dup {
		return fmt.Errorf("%w: molecule type %s", ErrDuplicate, m.Name)
	}
	if _, clash := s.atomTypes[m.Name]; clash {
		return fmt.Errorf("%w: %s is already an atom type", ErrDuplicate, m.Name)
	}
	s.molTypes[m.Name] = m
	s.version++
	return nil
}

// DropMoleculeType removes a named molecule type.
func (s *Schema) DropMoleculeType(name string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.molTypes[name]; !ok {
		return fmt.Errorf("%w: molecule type %s", ErrUnknownType, name)
	}
	for _, d := range s.clusters {
		if d.Molecule.Name == name {
			return fmt.Errorf("%w: molecule type %s is clustered by %s", ErrInUse, name, d.Name)
		}
	}
	delete(s.molTypes, name)
	s.version++
	return nil
}

// MoleculeType returns the named molecule type.
func (s *Schema) MoleculeType(name string) (*MoleculeType, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	m, ok := s.molTypes[name]
	return m, ok
}

// checkLDLName ensures LDL structure names are globally unique.
func (s *Schema) checkLDLNameLocked(name string) error {
	if _, dup := s.accessPath[name]; dup {
		return fmt.Errorf("%w: %s", ErrDuplicate, name)
	}
	if _, dup := s.sortOrders[name]; dup {
		return fmt.Errorf("%w: %s", ErrDuplicate, name)
	}
	if _, dup := s.partitions[name]; dup {
		return fmt.Errorf("%w: %s", ErrDuplicate, name)
	}
	if _, dup := s.clusters[name]; dup {
		return fmt.Errorf("%w: %s", ErrDuplicate, name)
	}
	return nil
}

// AddAccessPath validates and registers an access path definition.
func (s *Schema) AddAccessPath(d *AccessPathDef) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.checkLDLNameLocked(d.Name); err != nil {
		return err
	}
	t, ok := s.atomTypes[d.AtomType]
	if !ok {
		return fmt.Errorf("%w: %s", ErrUnknownType, d.AtomType)
	}
	if len(d.Attrs) == 0 {
		return fmt.Errorf("catalog: access path %s has no attributes", d.Name)
	}
	for _, a := range d.Attrs {
		if _, ok := t.AttrIndex(a); !ok {
			return fmt.Errorf("%w: %s.%s", ErrUnknownAttr, d.AtomType, a)
		}
	}
	switch d.Method {
	case "":
		if len(d.Attrs) == 1 {
			d.Method = "BTREE"
		} else {
			d.Method = "GRID"
		}
	case "BTREE":
		if len(d.Attrs) != 1 {
			return fmt.Errorf("catalog: access path %s: BTREE supports exactly one attribute", d.Name)
		}
	case "GRID":
	default:
		return fmt.Errorf("catalog: access path %s: unknown method %q", d.Name, d.Method)
	}
	s.accessPath[d.Name] = d
	s.version++
	return nil
}

// AddSortOrder validates and registers a sort order definition, assigning
// its structure id.
func (s *Schema) AddSortOrder(d *SortOrderDef) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.checkLDLNameLocked(d.Name); err != nil {
		return err
	}
	t, ok := s.atomTypes[d.AtomType]
	if !ok {
		return fmt.Errorf("%w: %s", ErrUnknownType, d.AtomType)
	}
	if len(d.Attrs) == 0 {
		return fmt.Errorf("catalog: sort order %s has no attributes", d.Name)
	}
	for _, a := range d.Attrs {
		if _, ok := t.AttrIndex(a); !ok {
			return fmt.Errorf("%w: %s.%s", ErrUnknownAttr, d.AtomType, a)
		}
	}
	if d.Desc == nil {
		d.Desc = make([]bool, len(d.Attrs))
	}
	if len(d.Desc) != len(d.Attrs) {
		return fmt.Errorf("catalog: sort order %s: %d directions for %d attributes", d.Name, len(d.Desc), len(d.Attrs))
	}
	d.ID = s.nextStructID
	s.nextStructID++
	s.sortOrders[d.Name] = d
	s.version++
	return nil
}

// AddPartition validates and registers a partition definition, assigning its
// structure id.
func (s *Schema) AddPartition(d *PartitionDef) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.checkLDLNameLocked(d.Name); err != nil {
		return err
	}
	t, ok := s.atomTypes[d.AtomType]
	if !ok {
		return fmt.Errorf("%w: %s", ErrUnknownType, d.AtomType)
	}
	if len(d.Attrs) == 0 {
		return fmt.Errorf("catalog: partition %s has no attributes", d.Name)
	}
	for _, a := range d.Attrs {
		if _, ok := t.AttrIndex(a); !ok {
			return fmt.Errorf("%w: %s.%s", ErrUnknownAttr, d.AtomType, a)
		}
	}
	d.ID = s.nextStructID
	s.nextStructID++
	s.partitions[d.Name] = d
	s.version++
	return nil
}

// AddCluster validates and registers an atom-cluster type, assigning its
// structure id.
func (s *Schema) AddCluster(d *ClusterDef) error {
	if err := d.Molecule.Validate(s); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.checkLDLNameLocked(d.Name); err != nil {
		return err
	}
	d.ID = s.nextStructID
	s.nextStructID++
	s.clusters[d.Name] = d
	s.version++
	return nil
}

// DropLDL removes the named LDL structure of any kind and returns its
// definition for teardown by the access system.
func (s *Schema) DropLDL(name string) (interface{}, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if d, ok := s.accessPath[name]; ok {
		delete(s.accessPath, name)
		s.version++
		return d, nil
	}
	if d, ok := s.sortOrders[name]; ok {
		delete(s.sortOrders, name)
		s.version++
		return d, nil
	}
	if d, ok := s.partitions[name]; ok {
		delete(s.partitions, name)
		s.version++
		return d, nil
	}
	if d, ok := s.clusters[name]; ok {
		delete(s.clusters, name)
		s.version++
		return d, nil
	}
	return nil, fmt.Errorf("%w: LDL structure %s", ErrUnknownType, name)
}

// AccessPath returns the named access path definition.
func (s *Schema) AccessPath(name string) (*AccessPathDef, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	d, ok := s.accessPath[name]
	return d, ok
}

// AccessPathsFor returns access paths on the given atom type.
func (s *Schema) AccessPathsFor(atomType string) []*AccessPathDef {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var out []*AccessPathDef
	for _, d := range s.accessPath {
		if d.AtomType == atomType {
			out = append(out, d)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// SortOrdersFor returns sort orders on the given atom type.
func (s *Schema) SortOrdersFor(atomType string) []*SortOrderDef {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var out []*SortOrderDef
	for _, d := range s.sortOrders {
		if d.AtomType == atomType {
			out = append(out, d)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// PartitionsFor returns partitions on the given atom type.
func (s *Schema) PartitionsFor(atomType string) []*PartitionDef {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var out []*PartitionDef
	for _, d := range s.partitions {
		if d.AtomType == atomType {
			out = append(out, d)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// ClustersForRoot returns atom-cluster types whose characteristic root is
// the given atom type.
func (s *Schema) ClustersForRoot(atomType string) []*ClusterDef {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var out []*ClusterDef
	for _, d := range s.clusters {
		if d.RootType() == atomType {
			out = append(out, d)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// ClustersInvolving returns atom-cluster types that contain the given atom
// type anywhere in their molecule structure.
func (s *Schema) ClustersInvolving(atomType string) []*ClusterDef {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var out []*ClusterDef
	for _, d := range s.clusters {
		for _, at := range d.Molecule.AtomTypes() {
			if at == atomType {
				out = append(out, d)
				break
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Clusters returns all cluster definitions sorted by name.
func (s *Schema) Clusters() []*ClusterDef {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]*ClusterDef, 0, len(s.clusters))
	for _, d := range s.clusters {
		out = append(out, d)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}
