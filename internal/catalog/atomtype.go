package catalog

import (
	"errors"
	"fmt"

	"prima/internal/access/addr"
	"prima/internal/access/atom"
)

// Errors returned by atom type construction and schema operations.
var (
	ErrBadAtomType = errors.New("catalog: invalid atom type")
	ErrUnknownType = errors.New("catalog: unknown atom type")
	ErrUnknownAttr = errors.New("catalog: unknown attribute")
	ErrDuplicate   = errors.New("catalog: duplicate name")
	ErrAsymmetric  = errors.New("catalog: asymmetric association")
	ErrInUse       = errors.New("catalog: object in use")
)

// Attribute is one attribute of an atom type.
type Attribute struct {
	Name string   `json:"name"`
	Type TypeSpec `json:"type"`
}

// AtomType describes one atom type: its attributes (exactly one IDENTIFIER
// among them) and key attributes (KEYS_ARE).
type AtomType struct {
	ID    addr.TypeID `json:"id"`
	Name  string      `json:"name"`
	Attrs []Attribute `json:"attrs"`
	Keys  []string    `json:"keys,omitempty"`

	attrIdx  map[string]int
	identIdx int
}

// NewAtomType validates and builds an atom type. The ID is assigned when the
// type is added to a schema.
func NewAtomType(name string, attrs []Attribute, keys []string) (*AtomType, error) {
	if name == "" {
		return nil, fmt.Errorf("%w: empty name", ErrBadAtomType)
	}
	t := &AtomType{Name: name, Attrs: attrs, Keys: keys}
	if err := t.build(); err != nil {
		return nil, err
	}
	return t, nil
}

// build derives the lookup structures and validates invariants.
func (t *AtomType) build() error {
	t.attrIdx = make(map[string]int, len(t.Attrs))
	t.identIdx = -1
	for i, a := range t.Attrs {
		if a.Name == "" {
			return fmt.Errorf("%w: %s: attribute %d has empty name", ErrBadAtomType, t.Name, i)
		}
		if _, dup := t.attrIdx[a.Name]; dup {
			return fmt.Errorf("%w: %s.%s declared twice", ErrDuplicate, t.Name, a.Name)
		}
		t.attrIdx[a.Name] = i
		if a.Type.Kind == atom.KindIdent {
			if t.identIdx >= 0 {
				return fmt.Errorf("%w: %s has more than one IDENTIFIER attribute", ErrBadAtomType, t.Name)
			}
			t.identIdx = i
		}
		if a.Type.nesting() > atom.MaxDepth {
			// A value of the type could be stored but never read back.
			return fmt.Errorf("%w: %s.%s nests deeper than %d levels", ErrBadAtomType, t.Name, a.Name, atom.MaxDepth)
		}
		if a.Type.IsRef() {
			if tt, ta, _ := a.Type.RefTarget(); tt == "" || ta == "" {
				return fmt.Errorf("%w: %s.%s: REF_TO needs a type.attr target", ErrBadAtomType, t.Name, a.Name)
			}
		}
	}
	if t.identIdx < 0 {
		return fmt.Errorf("%w: %s has no IDENTIFIER attribute", ErrBadAtomType, t.Name)
	}
	for _, k := range t.Keys {
		i, ok := t.attrIdx[k]
		if !ok {
			return fmt.Errorf("%w: %s: KEYS_ARE names unknown attribute %q", ErrBadAtomType, t.Name, k)
		}
		switch t.Attrs[i].Type.Kind {
		case atom.KindInt, atom.KindReal, atom.KindString, atom.KindBool, atom.KindIdent:
		default:
			return fmt.Errorf("%w: %s: key attribute %q must be scalar", ErrBadAtomType, t.Name, k)
		}
	}
	return nil
}

// AttrIndex returns the position of the named attribute.
func (t *AtomType) AttrIndex(name string) (int, bool) {
	i, ok := t.attrIdx[name]
	return i, ok
}

// Attr returns the named attribute.
func (t *AtomType) Attr(name string) (*Attribute, bool) {
	if i, ok := t.attrIdx[name]; ok {
		return &t.Attrs[i], true
	}
	return nil, false
}

// IdentIndex returns the position of the IDENTIFIER attribute.
func (t *AtomType) IdentIndex() int { return t.identIdx }

// RefAttrs returns the indices of all reference attributes (the association
// ends defined on this type).
func (t *AtomType) RefAttrs() []int {
	var out []int
	for i, a := range t.Attrs {
		if a.Type.IsRef() {
			out = append(out, i)
		}
	}
	return out
}

// AttrsTargeting returns the indices of reference attributes whose
// association partner is the named atom type.
func (t *AtomType) AttrsTargeting(typeName string) []int {
	var out []int
	for i, a := range t.Attrs {
		if tt, _, ok := a.Type.RefTarget(); ok && tt == typeName {
			out = append(out, i)
		}
	}
	return out
}

// NewAtomValues builds a full attribute vector with every attribute at its
// zero value and the IDENTIFIER set to id.
func (t *AtomType) NewAtomValues(id addr.LogicalAddr) []atom.Value {
	values := make([]atom.Value, len(t.Attrs))
	for i, a := range t.Attrs {
		values[i] = a.Type.Zero()
	}
	values[t.identIdx] = atom.Ident(id)
	return values
}

// CheckValues type-checks a full attribute vector against the type.
func (t *AtomType) CheckValues(values []atom.Value) error {
	if len(values) != len(t.Attrs) {
		return fmt.Errorf("%w: %s: %d values for %d attributes", ErrTypeCheck, t.Name, len(values), len(t.Attrs))
	}
	for i, a := range t.Attrs {
		if err := a.Type.Check(values[i]); err != nil {
			return fmt.Errorf("%s.%s: %w", t.Name, a.Name, err)
		}
	}
	return nil
}

// CheckCards validates all cardinality restrictions of a full vector.
func (t *AtomType) CheckCards(values []atom.Value) error {
	for i, a := range t.Attrs {
		if err := a.Type.CheckCard(values[i]); err != nil {
			return fmt.Errorf("%s.%s: %w", t.Name, a.Name, err)
		}
	}
	return nil
}
