// Package core implements PRIMA's data system (§3.1): it maps the
// molecule-oriented MAD interface onto the atom-oriented access system.
// Query validation and modification, simplification, preparation, molecule
// management with a one-molecule-at-a-time cursor interface, recursion, and
// the DML all live here.
package core

import (
	"fmt"
	"sort"
	"strings"

	"prima/internal/access"
	"prima/internal/access/addr"
	"prima/internal/access/atom"
	"prima/internal/catalog"
)

// Molecule is one molecule occurrence: a tree of atoms assembled dynamically
// along the associations named by its molecule type.
type Molecule struct {
	Type *catalog.MoleculeType
	Root *MAtom
	// ByType lists the molecule's atoms grouped by atom type — indexed by the
	// type's ordinal in Type.AtomTypes() — each group in traversal order (the
	// flat view used by projection, quantifiers and the wire encoder).
	ByType [][]*MAtom
}

// MAtom is one atom inside a molecule, bound to the component (node) of the
// molecule type it instantiates. It holds the atom as the read path carries
// it — type, address and record image, which the wire ships as it is — and
// decodes on request: Value one attribute, Values the whole vector.
type MAtom struct {
	Rec   access.Record
	Node  *catalog.MolNode
	Level int // recursion level (0 = root)
	// Children holds the component atoms reached over each child edge of
	// Node (parallel to Node.Children); recursive self-edges come last.
	Children [][]*MAtom
	// Hidden marks connector atoms retained only for molecule structure
	// after projection.
	Hidden bool
}

// Addr returns the atom's logical address.
func (m *MAtom) Addr() addr.LogicalAddr { return m.Rec.Addr }

// Value decodes the named attribute (NULL when a projection dropped it).
func (m *MAtom) Value(name string) (atom.Value, bool) { return m.Rec.Value(name) }

// Values decodes the atom's attribute vector into Values the caller owns;
// attributes a projection dropped are NULL.
func (m *MAtom) Values() []atom.Value { return m.Rec.Image.Values() }

// Size returns the number of atoms in the molecule.
func (m *Molecule) Size() int {
	n := 0
	for _, atoms := range m.ByType {
		n += len(atoms)
	}
	return n
}

// AtomsOf returns the molecule's atoms of one type.
func (m *Molecule) AtomsOf(typeName string) []*MAtom {
	if o, ok := m.Type.TypeOrdinal(typeName); ok {
		return m.ByType[o]
	}
	return nil
}

// MaxLevel returns the deepest recursion level present.
func (m *Molecule) MaxLevel() int {
	max := 0
	for _, atoms := range m.ByType {
		for _, a := range atoms {
			if a.Level > max {
				max = a.Level
			}
		}
	}
	return max
}

// String renders the molecule as an indented tree (CLI / example output). A
// shared component is rendered under each of its parents; a reference that
// closes a recursion cycle is rendered as such and not followed.
func (m *Molecule) String() string {
	var sb strings.Builder
	onPath := map[*MAtom]bool{}
	var walk func(ma *MAtom, depth int)
	walk = func(ma *MAtom, depth int) {
		indent := strings.Repeat("  ", depth)
		t := ma.Rec.Type
		if onPath[ma] {
			fmt.Fprintf(&sb, "%s%s %s (cycle)\n", indent, t.Name, ma.Addr())
			return
		}
		onPath[ma] = true
		defer delete(onPath, ma)
		if ma.Hidden {
			fmt.Fprintf(&sb, "%s%s %s (connector)\n", indent, t.Name, ma.Addr())
		} else {
			fmt.Fprintf(&sb, "%s%s %s", indent, t.Name, ma.Addr())
			var attrs []string
			values := ma.Values()
			for i, attr := range t.Attrs {
				v := values[i]
				if v.IsNull() || attr.Type.IsRef() || attr.Type.Kind == atom.KindIdent {
					continue
				}
				attrs = append(attrs, fmt.Sprintf("%s=%s", attr.Name, v))
			}
			if len(attrs) > 0 {
				fmt.Fprintf(&sb, " {%s}", strings.Join(attrs, ", "))
			}
			sb.WriteByte('\n')
		}
		for _, group := range ma.Children {
			for _, c := range group {
				walk(c, depth+1)
			}
		}
	}
	walk(m.Root, 0)
	return sb.String()
}

// SortedAddrs returns all atom addresses of the molecule in ascending
// order (deterministic test output).
func (m *Molecule) SortedAddrs() []addr.LogicalAddr {
	var out []addr.LogicalAddr
	for _, atoms := range m.ByType {
		for _, a := range atoms {
			out = append(out, a.Addr())
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
