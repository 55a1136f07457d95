// Package atom implements the value model and binary codec for atoms.
//
// "Each atom is composed of attributes of various types ... The atom type is
// put together by the constituent attribute types to be chosen from a richer
// selection than in conventional data models. For identification and
// connection of atoms, we have introduced two special types of attributes
// [IDENTIFIER and REFERENCE]. The extended type concept also includes
// RECORD, ARRAY, and the repeating-group types SET and LIST." (§2.2)
//
// Values are self-describing trees; the codec produces the variable-length
// byte strings that become physical records in the access system. Because
// the encoding is self-describing and attribute-indexed, partitions can hold
// arbitrary attribute subsets of an atom (§3.2).
package atom

import (
	"fmt"
	"iter"
	"sort"
	"strings"

	"prima/internal/access/addr"
)

// Kind enumerates the attribute value kinds of the MAD type system.
type Kind uint8

// Value kinds.
const (
	KindNull   Kind = iota
	KindInt         // INTEGER
	KindReal        // REAL
	KindBool        // BOOLEAN
	KindString      // CHAR_VAR
	KindIdent       // IDENTIFIER (system surrogate)
	KindRef         // REF_TO (typed logical pointer)
	KindRecord      // RECORD ... END
	KindArray       // ARRAY_OF(elem, n)
	KindSet         // SET_OF(elem) — repeating group, no duplicates
	KindList        // LIST_OF(elem) — ordered repeating group
)

func (k Kind) String() string {
	switch k {
	case KindNull:
		return "NULL"
	case KindInt:
		return "INTEGER"
	case KindReal:
		return "REAL"
	case KindBool:
		return "BOOLEAN"
	case KindString:
		return "CHAR_VAR"
	case KindIdent:
		return "IDENTIFIER"
	case KindRef:
		return "REF_TO"
	case KindRecord:
		return "RECORD"
	case KindArray:
		return "ARRAY"
	case KindSet:
		return "SET_OF"
	case KindList:
		return "LIST_OF"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Value is one attribute value: a tagged union over the MAD kinds. The zero
// Value is NULL.
type Value struct {
	K Kind
	I int64            // Int; Bool stores 0/1
	F float64          // Real
	S string           // String
	A addr.LogicalAddr // Ident, Ref
	E []Value          // Record, Array, Set, List elements
}

// Constructors.

// Null returns the NULL value.
func Null() Value { return Value{} }

// Int builds an INTEGER value.
func Int(i int64) Value { return Value{K: KindInt, I: i} }

// Real builds a REAL value.
func Real(f float64) Value { return Value{K: KindReal, F: f} }

// Bool builds a BOOLEAN value.
func Bool(b bool) Value {
	v := Value{K: KindBool}
	if b {
		v.I = 1
	}
	return v
}

// Str builds a CHAR_VAR value.
func Str(s string) Value { return Value{K: KindString, S: s} }

// Ident builds an IDENTIFIER value holding a surrogate.
func Ident(a addr.LogicalAddr) Value { return Value{K: KindIdent, A: a} }

// Ref builds a REF_TO value holding a surrogate.
func Ref(a addr.LogicalAddr) Value { return Value{K: KindRef, A: a} }

// Record builds a RECORD value from its field values.
func Record(fields ...Value) Value { return Value{K: KindRecord, E: fields} }

// Array builds an ARRAY value.
func Array(elems ...Value) Value { return Value{K: KindArray, E: elems} }

// Set builds a SET_OF value.
func Set(elems ...Value) Value { return Value{K: KindSet, E: elems} }

// List builds a LIST_OF value.
func List(elems ...Value) Value { return Value{K: KindList, E: elems} }

// RefSet builds a SET_OF(REF_TO ...) value, the representation of
// association attributes.
func RefSet(addrs ...addr.LogicalAddr) Value {
	elems := make([]Value, len(addrs))
	for i, a := range addrs {
		elems[i] = Ref(a)
	}
	return Value{K: KindSet, E: elems}
}

// IsNull reports whether v is NULL.
func (v Value) IsNull() bool { return v.K == KindNull }

// Bool reports the boolean payload.
func (v Value) Bool() bool { return v.K == KindBool && v.I != 0 }

// Len returns the element count of a repeating group (0 for scalars and
// NULL, matching the paper's `attr = EMPTY` predicate on absent sets).
func (v Value) Len() int { return len(v.E) }

// AllRefs visits the logical addresses held by v in place, in element order:
// the address itself for REF/IDENTIFIER, the member addresses for repeating
// groups of references (zero addresses are skipped). Nothing is allocated —
// molecule assembly follows every reference of every atom through it, so it
// must cost no more than the eight bytes it reads.
func (v Value) AllRefs() iter.Seq[addr.LogicalAddr] {
	return func(yield func(addr.LogicalAddr) bool) { v.eachRef(yield) }
}

// eachRef reports whether the visit ran to the end (yield never said stop).
func (v *Value) eachRef(yield func(addr.LogicalAddr) bool) bool {
	switch v.K {
	case KindRef, KindIdent:
		return v.A.IsZero() || yield(v.A)
	case KindSet, KindList, KindArray, KindRecord:
		for i := range v.E {
			if !v.E[i].eachRef(yield) {
				return false
			}
		}
	}
	return true
}

// ContainsRef reports whether v (a REF or repeating group of REFs) holds a.
func (v Value) ContainsRef(a addr.LogicalAddr) bool {
	switch v.K {
	case KindRef, KindIdent:
		return v.A == a
	case KindSet, KindList, KindArray:
		for _, e := range v.E {
			if e.ContainsRef(a) {
				return true
			}
		}
	}
	return false
}

// WithRef returns a copy of v with a added. For a scalar REF the address is
// stored directly; for repeating groups it is appended unless present.
func (v Value) WithRef(a addr.LogicalAddr) Value {
	switch v.K {
	case KindNull:
		return Ref(a)
	case KindRef:
		return Ref(a)
	case KindSet:
		if v.ContainsRef(a) {
			return v
		}
		out := v.Clone()
		out.E = append(out.E, Ref(a))
		return out
	case KindList:
		out := v.Clone()
		out.E = append(out.E, Ref(a))
		return out
	default:
		return v
	}
}

// WithoutRef returns a copy of v with a removed. A scalar REF becomes NULL.
func (v Value) WithoutRef(a addr.LogicalAddr) Value {
	switch v.K {
	case KindRef:
		if v.A == a {
			return Null()
		}
		return v
	case KindSet, KindList:
		out := Value{K: v.K}
		for _, e := range v.E {
			if e.K == KindRef && e.A == a {
				continue
			}
			out.E = append(out.E, e.Clone())
		}
		return out
	default:
		return v
	}
}

// Clone returns a deep copy of v.
func (v Value) Clone() Value {
	out := v
	if v.E != nil {
		out.E = make([]Value, len(v.E))
		for i, e := range v.E {
			out.E[i] = e.Clone()
		}
	}
	return out
}

// Equal reports deep equality. Sets compare order-insensitively.
func (v Value) Equal(o Value) bool {
	if v.K != o.K {
		return false
	}
	switch v.K {
	case KindNull:
		return true
	case KindInt, KindBool:
		return v.I == o.I
	case KindReal:
		return v.F == o.F
	case KindString:
		return v.S == o.S
	case KindIdent, KindRef:
		return v.A == o.A
	case KindSet:
		if len(v.E) != len(o.E) {
			return false
		}
		used := make([]bool, len(o.E))
	outer:
		for _, e := range v.E {
			for j, f := range o.E {
				if !used[j] && e.Equal(f) {
					used[j] = true
					continue outer
				}
			}
			return false
		}
		return true
	default: // Record, Array, List: ordered
		if len(v.E) != len(o.E) {
			return false
		}
		for i := range v.E {
			if !v.E[i].Equal(o.E[i]) {
				return false
			}
		}
		return true
	}
}

// Compare orders two values for sort orders and index keys: NULL < numbers <
// strings < addresses < composites. Numbers compare numerically across
// INT/REAL. Composites compare lexicographically element-wise (sets by
// sorted element order).
func Compare(a, b Value) int {
	ra, rb := rank(a.K), rank(b.K)
	if ra != rb {
		return sign(ra - rb)
	}
	switch a.K {
	case KindNull:
		return 0
	case KindInt, KindReal, KindBool:
		fa, fb := a.numeric(), b.numeric()
		switch {
		case fa < fb:
			return -1
		case fa > fb:
			return 1
		default:
			return 0
		}
	case KindString:
		return strings.Compare(a.S, b.S)
	case KindIdent, KindRef:
		switch {
		case a.A < b.A:
			return -1
		case a.A > b.A:
			return 1
		default:
			return 0
		}
	default:
		ea, eb := a.E, b.E
		if a.K == KindSet {
			ea, eb = sortedElems(a.E), sortedElems(b.E)
		}
		for i := 0; i < len(ea) && i < len(eb); i++ {
			if c := Compare(ea[i], eb[i]); c != 0 {
				return c
			}
		}
		return sign(len(ea) - len(eb))
	}
}

func sortedElems(e []Value) []Value {
	out := make([]Value, len(e))
	copy(out, e)
	sort.Slice(out, func(i, j int) bool { return Compare(out[i], out[j]) < 0 })
	return out
}

// rank groups kinds into comparison classes. Each composite kind gets its
// own rank so cross-kind comparisons stay antisymmetric (a SET is only
// compared element-wise against another SET, etc.).
func rank(k Kind) int {
	switch k {
	case KindNull:
		return 0
	case KindInt, KindReal, KindBool:
		return 1
	case KindString:
		return 2
	case KindIdent, KindRef:
		return 3
	case KindRecord:
		return 4
	case KindArray:
		return 5
	case KindSet:
		return 6
	default: // KindList
		return 7
	}
}

func (v Value) numeric() float64 {
	if v.K == KindReal {
		return v.F
	}
	return float64(v.I)
}

func sign(i int) int {
	switch {
	case i < 0:
		return -1
	case i > 0:
		return 1
	default:
		return 0
	}
}

// String renders v for diagnostics and the CLI.
func (v Value) String() string {
	switch v.K {
	case KindNull:
		return "NULL"
	case KindInt:
		return fmt.Sprintf("%d", v.I)
	case KindReal:
		return fmt.Sprintf("%g", v.F)
	case KindBool:
		if v.I != 0 {
			return "TRUE"
		}
		return "FALSE"
	case KindString:
		return fmt.Sprintf("%q", v.S)
	case KindIdent, KindRef:
		return v.A.String()
	case KindRecord, KindArray, KindSet, KindList:
		parts := make([]string, len(v.E))
		for i, e := range v.E {
			parts[i] = e.String()
		}
		open, close := "(", ")"
		switch v.K {
		case KindSet:
			open, close = "{", "}"
		case KindList, KindArray:
			open, close = "[", "]"
		}
		return open + strings.Join(parts, ", ") + close
	default:
		return fmt.Sprintf("?%d", v.K)
	}
}
