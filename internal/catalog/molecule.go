package catalog

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
)

// MoleculeType is a dynamically defined complex-object type: a tree of atom
// types connected by associations ("the molecule structure is superimposed
// dynamically on sets of atoms linked by associations", §2.1). Meshed
// (network) molecule expressions are resolved into this hierarchical
// normal form by query validation ("resolution of a meshed molecule type
// into an equivalent hierarchical one which is easier to cope with", §3.1).
type MoleculeType struct {
	Name string   `json:"name,omitempty"` // empty for molecule types defined inline in a query
	Root *MolNode `json:"root"`

	// What AtomTypes, TypeOrdinal and IsRecursive answer is a function of the
	// tree alone; it is derived on first use, after which the tree must not
	// change (validation, the only writer, runs before).
	derive    sync.Once
	types     []string
	recursive bool
}

// MolNode is one component type of a molecule type.
type MolNode struct {
	AtomType string `json:"atomType"`
	// Via is the reference attribute on the PARENT atom type whose targets
	// form this component ("" for the root). Association symmetry
	// guarantees such an attribute exists regardless of the direction the
	// association was declared in.
	Via string `json:"via,omitempty"`
	// Recursive marks a recursive edge (e.g. solid.sub-solid (RECURSIVE)):
	// the assembler re-applies Via level by level until no new atoms
	// qualify.
	Recursive bool       `json:"recursive,omitempty"`
	Children  []*MolNode `json:"children,omitempty"`
}

// ErrBadMolecule wraps all molecule type validation failures.
var ErrBadMolecule = errors.New("catalog: invalid molecule type")

// Validate checks the molecule type against the schema: every atom type
// exists and every edge is backed by an association; unqualified edges must
// be unambiguous. It normalizes edges so Via is always the parent-side
// attribute.
func (m *MoleculeType) Validate(s *Schema) error {
	if m.Root == nil {
		return fmt.Errorf("%w: no root", ErrBadMolecule)
	}
	return m.validateNode(s, m.Root, nil)
}

func (m *MoleculeType) validateNode(s *Schema, n *MolNode, parent *MolNode) error {
	at, ok := s.AtomType(n.AtomType)
	if !ok {
		return fmt.Errorf("%w: %w: %s", ErrBadMolecule, ErrUnknownType, n.AtomType)
	}
	if parent != nil {
		pt, ok := s.AtomType(parent.AtomType)
		if !ok {
			return fmt.Errorf("%w: %w: %s", ErrBadMolecule, ErrUnknownType, parent.AtomType)
		}
		if n.Via != "" {
			attr, ok := pt.Attr(n.Via)
			if !ok {
				return fmt.Errorf("%w: %s has no attribute %q", ErrBadMolecule, pt.Name, n.Via)
			}
			tt, _, isRef := attr.Type.RefTarget()
			if !isRef || tt != n.AtomType {
				return fmt.Errorf("%w: %s.%s does not reference %s", ErrBadMolecule, pt.Name, n.Via, n.AtomType)
			}
		} else {
			// Find the association(s) between parent and child. Thanks to
			// symmetry it is enough to look at parent-side attributes.
			cands := pt.AttrsTargeting(n.AtomType)
			if len(cands) == 0 {
				return fmt.Errorf("%w: no association between %s and %s", ErrBadMolecule, pt.Name, n.AtomType)
			}
			if len(cands) > 1 {
				names := make([]string, len(cands))
				for i, c := range cands {
					names[i] = pt.Attrs[c].Name
				}
				return fmt.Errorf("%w: association between %s and %s is ambiguous (%s); qualify with type.attr",
					ErrBadMolecule, pt.Name, n.AtomType, strings.Join(names, ", "))
			}
			n.Via = pt.Attrs[cands[0]].Name
		}
		if n.Recursive && parent.AtomType != n.AtomType {
			return fmt.Errorf("%w: recursive edge %s.%s must stay on one atom type", ErrBadMolecule, parent.AtomType, n.Via)
		}
	}
	_ = at
	seen := map[string]bool{}
	for _, c := range n.Children {
		if err := m.validateNode(s, c, n); err != nil {
			return err
		}
		key := c.AtomType + "." + c.Via
		if seen[key] {
			return fmt.Errorf("%w: duplicate component %s via %s", ErrBadMolecule, c.AtomType, c.Via)
		}
		seen[key] = true
	}
	return nil
}

// Clone returns a deep copy (molecule types are shared between catalog and
// plans; plans may annotate their copies).
func (m *MoleculeType) Clone() *MoleculeType {
	return &MoleculeType{Name: m.Name, Root: m.Root.clone()}
}

func (n *MolNode) clone() *MolNode {
	if n == nil {
		return nil
	}
	out := &MolNode{AtomType: n.AtomType, Via: n.Via, Recursive: n.Recursive}
	for _, c := range n.Children {
		out.Children = append(out.Children, c.clone())
	}
	return out
}

// derived walks the tree once for the component types and the recursion flag.
func (m *MoleculeType) derived() *MoleculeType {
	m.derive.Do(func() {
		var walk func(n *MolNode)
		walk = func(n *MolNode) {
			if !slices.Contains(m.types, n.AtomType) {
				m.types = append(m.types, n.AtomType)
			}
			for _, c := range n.Children {
				m.recursive = m.recursive || c.Recursive
				walk(c)
			}
		}
		walk(m.Root)
	})
	return m
}

// AtomTypes returns the distinct atom type names used by the molecule type,
// root first. The slice is shared: callers must not modify it.
func (m *MoleculeType) AtomTypes() []string { return m.derived().types }

// TypeOrdinal returns the position of an atom type in AtomTypes — the
// component-type ordinal molecules index their per-type atom lists by.
func (m *MoleculeType) TypeOrdinal(atomType string) (int, bool) {
	i := slices.Index(m.derived().types, atomType)
	return i, i >= 0
}

// IsRecursive reports whether any edge of the molecule type recurses.
func (m *MoleculeType) IsRecursive() bool { return m.derived().recursive }

// String renders the molecule type in FROM-clause syntax.
func (m *MoleculeType) String() string {
	var render func(n *MolNode) string
	render = func(n *MolNode) string {
		s := n.AtomType
		if len(n.Children) == 1 {
			c := n.Children[0]
			edge := "-"
			s += edge + render(c)
			if c.Recursive {
				s += " (RECURSIVE)"
			}
		} else if len(n.Children) > 1 {
			parts := make([]string, len(n.Children))
			for i, c := range n.Children {
				parts[i] = render(c)
			}
			s += "-(" + strings.Join(parts, ", ") + ")"
		}
		return s
	}
	return render(m.Root)
}
