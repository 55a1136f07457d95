// Package catalog holds PRIMA's metadata: atom types with the extended MAD
// attribute type concept (§2.2), molecule type definitions, and the
// LDL-declared storage structures (§2.3) that the access system materializes.
package catalog

import (
	"errors"
	"fmt"
	"strings"

	"prima/internal/access/atom"
)

// VarCard marks a variable ("VAR") cardinality bound on a SET/LIST type.
const VarCard = -1

// TypeSpec describes an attribute type. It mirrors the MAD-DDL grammar of
// Fig. 2.3: scalars, IDENTIFIER, REF_TO(type.attr), SET_OF/LIST_OF with
// optional (min,max) cardinality restrictions, ARRAY_OF(elem,n) and
// RECORD...END.
type TypeSpec struct {
	Kind     atom.Kind     `json:"kind"`
	Elem     *TypeSpec     `json:"elem,omitempty"`     // SET/LIST/ARRAY element type
	Fields   []RecordField `json:"fields,omitempty"`   // RECORD fields
	ArrayLen int           `json:"arrayLen,omitempty"` // ARRAY length
	RefType  string        `json:"refType,omitempty"`  // REF_TO target atom type
	RefAttr  string        `json:"refAttr,omitempty"`  // REF_TO target back-reference attribute
	MinCard  int           `json:"minCard,omitempty"`  // SET/LIST lower bound
	MaxCard  int           `json:"maxCard,omitempty"`  // SET/LIST upper bound; VarCard = unbounded
}

// RecordField is one field of a RECORD type.
type RecordField struct {
	Name string   `json:"name"`
	Type TypeSpec `json:"type"`
}

// Spec constructors.

// SpecInt returns the INTEGER type.
func SpecInt() TypeSpec { return TypeSpec{Kind: atom.KindInt} }

// SpecReal returns the REAL type.
func SpecReal() TypeSpec { return TypeSpec{Kind: atom.KindReal} }

// SpecBool returns the BOOLEAN type.
func SpecBool() TypeSpec { return TypeSpec{Kind: atom.KindBool} }

// SpecString returns the CHAR_VAR type.
func SpecString() TypeSpec { return TypeSpec{Kind: atom.KindString} }

// SpecIdent returns the IDENTIFIER type.
func SpecIdent() TypeSpec { return TypeSpec{Kind: atom.KindIdent} }

// SpecRef returns REF_TO(refType.refAttr).
func SpecRef(refType, refAttr string) TypeSpec {
	return TypeSpec{Kind: atom.KindRef, RefType: refType, RefAttr: refAttr}
}

// SpecSetOf returns SET_OF(elem) with cardinality bounds (use 0 and VarCard
// for unrestricted).
func SpecSetOf(elem TypeSpec, minCard, maxCard int) TypeSpec {
	return TypeSpec{Kind: atom.KindSet, Elem: &elem, MinCard: minCard, MaxCard: maxCard}
}

// SpecListOf returns LIST_OF(elem).
func SpecListOf(elem TypeSpec) TypeSpec {
	return TypeSpec{Kind: atom.KindList, Elem: &elem, MaxCard: VarCard}
}

// SpecArrayOf returns ARRAY_OF(elem, n).
func SpecArrayOf(elem TypeSpec, n int) TypeSpec {
	return TypeSpec{Kind: atom.KindArray, Elem: &elem, ArrayLen: n}
}

// SpecRecord returns RECORD f1,...,fn END.
func SpecRecord(fields ...RecordField) TypeSpec {
	return TypeSpec{Kind: atom.KindRecord, Fields: fields}
}

// IsRef reports whether the spec is a reference attribute: a scalar REF_TO
// or a repeating group of REF_TO. These attributes implement associations.
func (ts TypeSpec) IsRef() bool {
	switch ts.Kind {
	case atom.KindRef:
		return true
	case atom.KindSet, atom.KindList:
		return ts.Elem != nil && ts.Elem.Kind == atom.KindRef
	default:
		return false
	}
}

// RefTarget returns the association partner (atom type, attribute) of a
// reference attribute.
func (ts TypeSpec) RefTarget() (typeName, attrName string, ok bool) {
	switch ts.Kind {
	case atom.KindRef:
		return ts.RefType, ts.RefAttr, true
	case atom.KindSet, atom.KindList:
		if ts.Elem != nil && ts.Elem.Kind == atom.KindRef {
			return ts.Elem.RefType, ts.Elem.RefAttr, true
		}
	}
	return "", "", false
}

// nesting returns how deep the type's containers nest (0 for a scalar), which
// is how deep a value of the type nests in its encoding.
func (ts TypeSpec) nesting() int {
	deepest := 0
	if ts.Elem != nil {
		deepest = ts.Elem.nesting()
	}
	for _, f := range ts.Fields {
		deepest = max(deepest, f.Type.nesting())
	}
	switch ts.Kind {
	case atom.KindRecord, atom.KindArray, atom.KindSet, atom.KindList:
		return deepest + 1
	}
	return deepest
}

// ErrTypeCheck is wrapped by all value/type mismatches.
var ErrTypeCheck = errors.New("catalog: value does not match attribute type")

// Check validates a value against the spec. NULL is accepted for any
// non-IDENTIFIER attribute. INTEGER values are accepted where REAL is
// expected (numeric widening); no other coercion happens here.
func (ts TypeSpec) Check(v atom.Value) error {
	if v.IsNull() {
		if ts.Kind == atom.KindIdent {
			return fmt.Errorf("%w: IDENTIFIER must not be NULL", ErrTypeCheck)
		}
		return nil
	}
	switch ts.Kind {
	case atom.KindInt, atom.KindBool, atom.KindString, atom.KindIdent:
		if v.K != ts.Kind {
			return fmt.Errorf("%w: got %v, want %v", ErrTypeCheck, v.K, ts.Kind)
		}
	case atom.KindReal:
		if v.K != atom.KindReal && v.K != atom.KindInt {
			return fmt.Errorf("%w: got %v, want REAL", ErrTypeCheck, v.K)
		}
	case atom.KindRef:
		if v.K != atom.KindRef {
			return fmt.Errorf("%w: got %v, want REF_TO", ErrTypeCheck, v.K)
		}
	case atom.KindRecord:
		if v.K != atom.KindRecord {
			return fmt.Errorf("%w: got %v, want RECORD", ErrTypeCheck, v.K)
		}
		if len(v.E) != len(ts.Fields) {
			return fmt.Errorf("%w: RECORD has %d fields, want %d", ErrTypeCheck, len(v.E), len(ts.Fields))
		}
		for i, f := range ts.Fields {
			if err := f.Type.Check(v.E[i]); err != nil {
				return fmt.Errorf("field %s: %w", f.Name, err)
			}
		}
	case atom.KindArray:
		if v.K != atom.KindArray {
			return fmt.Errorf("%w: got %v, want ARRAY", ErrTypeCheck, v.K)
		}
		if len(v.E) != ts.ArrayLen {
			return fmt.Errorf("%w: ARRAY has %d elements, want %d", ErrTypeCheck, len(v.E), ts.ArrayLen)
		}
		for i, e := range v.E {
			if err := ts.Elem.Check(e); err != nil {
				return fmt.Errorf("element %d: %w", i, err)
			}
		}
	case atom.KindSet, atom.KindList:
		if v.K != ts.Kind {
			return fmt.Errorf("%w: got %v, want %v", ErrTypeCheck, v.K, ts.Kind)
		}
		for i, e := range v.E {
			if err := ts.Elem.Check(e); err != nil {
				return fmt.Errorf("element %d: %w", i, err)
			}
		}
	default:
		return fmt.Errorf("%w: unsupported spec kind %v", ErrTypeCheck, ts.Kind)
	}
	return nil
}

// CheckCard validates the cardinality restriction of a repeating group
// ("exact mapping of relationship types allowing for refined structural
// integrity enforced by the system", Fig. 2.3). It is checked separately
// from Check because molecules are built incrementally: the access system
// verifies bounds on demand, not on every intermediate state.
func (ts TypeSpec) CheckCard(v atom.Value) error {
	if ts.Kind != atom.KindSet && ts.Kind != atom.KindList {
		return nil
	}
	n := v.Len()
	if n < ts.MinCard {
		return fmt.Errorf("%w: %d elements, minimum %d", ErrTypeCheck, n, ts.MinCard)
	}
	if ts.MaxCard != VarCard && ts.MaxCard > 0 && n > ts.MaxCard {
		return fmt.Errorf("%w: %d elements, maximum %d", ErrTypeCheck, n, ts.MaxCard)
	}
	return nil
}

// Zero returns the natural empty value for the spec: NULL for scalars and
// references, empty groups for repeating groups, a NULL-filled RECORD/ARRAY.
func (ts TypeSpec) Zero() atom.Value {
	switch ts.Kind {
	case atom.KindSet:
		return atom.Set()
	case atom.KindList:
		return atom.List()
	case atom.KindArray:
		elems := make([]atom.Value, ts.ArrayLen)
		return atom.Array(elems...)
	case atom.KindRecord:
		elems := make([]atom.Value, len(ts.Fields))
		return atom.Record(elems...)
	default:
		return atom.Null()
	}
}

// String renders the spec in MAD-DDL syntax.
func (ts TypeSpec) String() string {
	switch ts.Kind {
	case atom.KindInt:
		return "INTEGER"
	case atom.KindReal:
		return "REAL"
	case atom.KindBool:
		return "BOOLEAN"
	case atom.KindString:
		return "CHAR_VAR"
	case atom.KindIdent:
		return "IDENTIFIER"
	case atom.KindRef:
		return fmt.Sprintf("REF_TO (%s.%s)", ts.RefType, ts.RefAttr)
	case atom.KindSet, atom.KindList:
		name := "SET_OF"
		if ts.Kind == atom.KindList {
			name = "LIST_OF"
		}
		card := ""
		if ts.MinCard != 0 || (ts.MaxCard != 0 && ts.MaxCard != VarCard) {
			hi := "VAR"
			if ts.MaxCard != VarCard {
				hi = fmt.Sprintf("%d", ts.MaxCard)
			}
			card = fmt.Sprintf(" (%d,%s)", ts.MinCard, hi)
		}
		return fmt.Sprintf("%s (%s)%s", name, ts.Elem, card)
	case atom.KindArray:
		return fmt.Sprintf("ARRAY_OF (%s, %d)", ts.Elem, ts.ArrayLen)
	case atom.KindRecord:
		parts := make([]string, len(ts.Fields))
		for i, f := range ts.Fields {
			parts[i] = fmt.Sprintf("%s: %s", f.Name, f.Type)
		}
		return "RECORD " + strings.Join(parts, ", ") + " END"
	default:
		return ts.Kind.String()
	}
}
