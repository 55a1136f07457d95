package catalog

import (
	"encoding/json"
	"errors"
	"fmt"
	"maps"
	"slices"
	"strings"

	"prima/internal/access/addr"
)

// schemaDoc is the on-disk JSON form of a schema.
type schemaDoc struct {
	AtomTypes    []*AtomType      `json:"atomTypes"`
	MolTypes     []*MoleculeType  `json:"moleculeTypes,omitempty"`
	AccessPaths  []*AccessPathDef `json:"accessPaths,omitempty"`
	SortOrders   []*SortOrderDef  `json:"sortOrders,omitempty"`
	Partitions   []*PartitionDef  `json:"partitions,omitempty"`
	Clusters     []*ClusterDef    `json:"clusters,omitempty"`
	NextTypeID   addr.TypeID      `json:"nextTypeID"`
	NextStructID addr.StructID    `json:"nextStructID"`
}

// Save serializes the schema to JSON. The output is a function of the
// schema: types in TypeID order, everything else by name.
func (s *Schema) Save() ([]byte, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	doc := schemaDoc{
		AtomTypes:    s.AtomTypesLockedOrder(),
		MolTypes:     sortedByName(s.molTypes, func(m *MoleculeType) string { return m.Name }),
		AccessPaths:  sortedByName(s.accessPath, func(d *AccessPathDef) string { return d.Name }),
		SortOrders:   sortedByName(s.sortOrders, func(d *SortOrderDef) string { return d.Name }),
		Partitions:   sortedByName(s.partitions, func(d *PartitionDef) string { return d.Name }),
		Clusters:     sortedByName(s.clusters, func(d *ClusterDef) string { return d.Name }),
		NextTypeID:   s.nextTypeID,
		NextStructID: s.nextStructID,
	}
	return json.MarshalIndent(doc, "", "  ")
}

func sortedByName[T any](m map[string]T, name func(T) string) []T {
	out := slices.Collect(maps.Values(m))
	slices.SortFunc(out, func(a, b T) int { return strings.Compare(name(a), name(b)) })
	return out
}

// AtomTypesLockedOrder returns atom types ordered by TypeID; the caller must
// hold at least a read lock (Save does).
func (s *Schema) AtomTypesLockedOrder() []*AtomType {
	out := make([]*AtomType, 0, len(s.atomTypes))
	for id := addr.TypeID(1); id < s.nextTypeID; id++ {
		if t, ok := s.byID[id]; ok {
			out = append(out, t)
		}
	}
	return out
}

// ErrBadSchemaFile marks a schema file Load refuses.
var ErrBadSchemaFile = errors.New("catalog: bad schema file")

// Load reconstructs a schema from Save output. The file is not trusted: every
// definition passes the validation DDL applies to it, and a file that names
// nothing, names a type or structure twice, or gives an id outside the
// counters it carries is refused with an error.
func Load(data []byte) (*Schema, error) {
	s, err := load(data)
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrBadSchemaFile, err)
	}
	return s, nil
}

func load(data []byte) (*Schema, error) {
	var doc schemaDoc
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, err
	}
	s := NewSchema()
	s.nextTypeID = max(doc.NextTypeID, 1)
	for _, t := range doc.AtomTypes {
		if t == nil {
			return nil, errors.New("null atom type")
		}
		if err := t.build(); err != nil {
			return nil, fmt.Errorf("atom type %s: %w", t.Name, err)
		}
		if _, dup := s.atomTypes[t.Name]; dup {
			return nil, fmt.Errorf("%w: atom type %s", ErrDuplicate, t.Name)
		}
		if _, dup := s.byID[t.ID]; dup || t.ID == 0 || t.ID >= s.nextTypeID {
			return nil, fmt.Errorf("atom type %s: type id %d is 0, taken, or not below the next id %d", t.Name, t.ID, s.nextTypeID)
		}
		s.atomTypes[t.Name] = t
		s.byID[t.ID] = t
	}
	if err := s.ResolveAssociations(); err != nil {
		return nil, err
	}
	for _, m := range doc.MolTypes {
		if m == nil {
			return nil, errors.New("null molecule type")
		}
		if err := m.Validate(s); err != nil {
			return nil, fmt.Errorf("molecule type %s: %w", m.Name, err)
		}
		if _, dup := s.molTypes[m.Name]; dup || m.Name == "" {
			return nil, fmt.Errorf("%w: molecule type %q empty or named twice", ErrBadMolecule, m.Name)
		}
		s.molTypes[m.Name] = m
	}
	// Structure ids survive the file: the stored structures are named by
	// them. Registration assigns fresh ones, so the file's are put back.
	next := max(doc.NextStructID, 1)
	ids := map[addr.StructID]string{}
	restore := func(kind, name string, id addr.StructID, set *addr.StructID, err error) error {
		if err != nil {
			return fmt.Errorf("%s %s: %w", kind, name, err)
		}
		if other, dup := ids[id]; dup || id == 0 || id >= next {
			return fmt.Errorf("%s %s: structure id %d is 0, %s's, or not below the next id %d", kind, name, id, other, next)
		}
		ids[id], *set = name, id
		return nil
	}
	for _, d := range doc.AccessPaths {
		if d == nil {
			return nil, errors.New("null access path")
		}
		if err := s.AddAccessPath(d); err != nil {
			return nil, fmt.Errorf("access path %s: %w", d.Name, err)
		}
	}
	for _, d := range doc.SortOrders {
		if d == nil {
			return nil, errors.New("null sort order")
		}
		id := d.ID
		if err := restore("sort order", d.Name, id, &d.ID, s.AddSortOrder(d)); err != nil {
			return nil, err
		}
	}
	for _, d := range doc.Partitions {
		if d == nil {
			return nil, errors.New("null partition")
		}
		id := d.ID
		if err := restore("partition", d.Name, id, &d.ID, s.AddPartition(d)); err != nil {
			return nil, err
		}
	}
	for _, d := range doc.Clusters {
		if d == nil || d.Molecule == nil {
			return nil, errors.New("null cluster or cluster molecule")
		}
		id := d.ID
		if err := restore("cluster", d.Name, id, &d.ID, s.AddCluster(d)); err != nil {
			return nil, err
		}
	}
	s.nextStructID = next
	return s, nil
}
