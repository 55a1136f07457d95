package atom

import (
	"encoding/binary"
	"fmt"
	"iter"

	"prima/internal/access/addr"
)

// Image is a checked record image: the bytes AppendAtom writes for one atom,
// walked once end to end by CheckImage. It is the unit the read path carries
// — the atom cache holds images, molecule assembly follows the references in
// them, the wire ships them — and its accessors read single attributes
// straight off the bytes, trusting the check. The only ways to an Image are
// CheckImage, ImageOf and AppendProjected, so no accessor ever runs over
// unchecked bytes; whoever builds one must not write to its bytes afterwards.
// The zero Image holds no atom.
type Image struct{ b []byte }

// CheckImage validates a full attribute vector encoding — the attribute
// count, every value, container nesting within MaxDepth, no trailing bytes —
// without building a Value, and returns it as an Image that aliases data.
func CheckImage(data []byte) (Image, error) {
	n, err := attrCount(data)
	if err != nil {
		return Image{}, err
	}
	rest := data[2:]
	for i := 0; i < n; i++ {
		if rest, err = checkValue(rest, 0); err != nil {
			return Image{}, fmt.Errorf("atom: attribute %d: %w", i, err)
		}
	}
	if len(rest) != 0 {
		return Image{}, fmt.Errorf("atom: %d trailing bytes", len(rest))
	}
	return Image{data}, nil
}

// ImageOf encodes values that passed their atom type's check (so they nest no
// deeper than the declaration the catalog admitted).
func ImageOf(values []Value) Image { return Image{EncodeAtom(values)} }

// checkValue validates the value at the head of data and returns the
// remaining bytes: the one place encoded bytes are doubted. Over checked
// bytes it cannot fail, which makes it the accessors' skip.
func checkValue(data []byte, depth int) ([]byte, error) {
	if len(data) < 1 {
		return nil, ErrTruncated
	}
	k := Kind(data[0])
	data = data[1:]
	var size int
	switch k {
	case KindNull:
		return data, nil
	case KindInt, KindReal, KindIdent, KindRef:
		size = 8
	case KindBool:
		size = 1
	case KindString:
		if len(data) < 4 {
			return nil, ErrTruncated
		}
		size = 4 + int(binary.BigEndian.Uint32(data))
	case KindRecord, KindArray, KindSet, KindList:
		if len(data) < 4 {
			return nil, ErrTruncated
		}
		if depth >= MaxDepth {
			return nil, ErrTooDeep
		}
		n := int(binary.BigEndian.Uint32(data))
		data = data[4:]
		if n > len(data) {
			return nil, ErrTruncated
		}
		for ; n > 0; n-- {
			var err error
			if data, err = checkValue(data, depth+1); err != nil {
				return nil, err
			}
		}
		return data, nil
	default:
		return nil, fmt.Errorf("%w: %d", ErrBadKind, k)
	}
	if len(data) < size {
		return nil, ErrTruncated
	}
	return data[size:], nil
}

// IsZero reports whether m holds no atom.
func (m Image) IsZero() bool { return m.b == nil }

// Bytes returns the record image itself; callers must not modify it.
func (m Image) Bytes() []byte { return m.b }

// Len returns the number of attributes.
func (m Image) Len() int {
	if len(m.b) < 2 {
		return 0
	}
	return int(binary.BigEndian.Uint16(m.b))
}

// attr returns the image from the encoding of attribute i on, or nil when the
// atom has no attribute i.
func (m Image) attr(i int) []byte {
	if i < 0 || i >= m.Len() {
		return nil
	}
	data := m.b[2:]
	for ; i > 0; i-- {
		data, _ = checkValue(data, 0)
	}
	return data
}

// Attr decodes attribute i alone (NULL when the atom has no attribute i).
// Strings alias the image, so a scalar costs no allocation.
func (m Image) Attr(i int) Value {
	data := m.attr(i)
	if data == nil {
		return Value{}
	}
	v, _ := decodeValue(data, true)
	return v
}

// Values decodes the full attribute vector into fresh Values the caller owns;
// strings alias the image.
func (m Image) Values() []Value { return m.values(true) }

func (m Image) values(owned bool) []Value {
	values := make([]Value, m.Len())
	if len(values) == 0 {
		return values
	}
	data := m.b[2:]
	for i := range values {
		values[i], data = decodeValue(data, owned)
	}
	return values
}

// Refs visits the logical addresses attribute i holds, in element order —
// what Value.AllRefs visits on the decoded attribute — without allocating:
// molecule assembly follows every reference of every atom through it.
func (m Image) Refs(i int) iter.Seq[addr.LogicalAddr] {
	return func(yield func(addr.LogicalAddr) bool) { eachRef(m.attr(i), yield) }
}

// eachRef visits the addresses in the value at the head of data and returns
// the remaining bytes; more is false once yield said stop.
func eachRef(data []byte, yield func(addr.LogicalAddr) bool) (rest []byte, more bool) {
	if len(data) == 0 {
		return nil, true
	}
	switch Kind(data[0]) {
	case KindRef, KindIdent:
		a := addr.LogicalAddr(binary.BigEndian.Uint64(data[1:]))
		return data[9:], a.IsZero() || yield(a)
	case KindRecord, KindArray, KindSet, KindList:
		n := binary.BigEndian.Uint32(data[1:])
		data = data[5:]
		for ; n > 0; n-- {
			if data, more = eachRef(data, yield); !more {
				return nil, false
			}
		}
		return data, true
	default:
		rest, _ = checkValue(data, 0)
		return rest, true
	}
}

// AppendProjected appends img to dst with every attribute i for which keep[i]
// does not hold replaced by NULL — the image of the projected attribute
// vector — and returns the extended slice and that image, which aliases it.
func AppendProjected(dst []byte, img Image, keep []bool) ([]byte, Image) {
	if img.IsZero() {
		return dst, Image{}
	}
	start := len(dst)
	dst = append(dst, img.b[:2]...)
	data := img.b[2:]
	for i, n := 0, img.Len(); i < n; i++ {
		rest, _ := checkValue(data, 0)
		if i < len(keep) && keep[i] {
			dst = append(dst, data[:len(data)-len(rest)]...)
		} else {
			dst = append(dst, byte(KindNull))
		}
		data = rest
	}
	return dst, Image{dst[start:len(dst):len(dst)]}
}
