package atom

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"
	"unsafe"

	"prima/internal/access/addr"
)

// Binary encoding. Every value is (kind:1, payload); containers carry an
// element count. Atoms (attribute vectors) are encoded as
// (attrCount:2, values...) and attribute subsets — the partitions of §3.2 —
// as (pairCount:2, (attrIdx:2, value)...). All integers big-endian.

// Errors returned by the codec.
var (
	ErrTruncated = errors.New("atom: truncated encoding")
	ErrBadKind   = errors.New("atom: unknown value kind")
	ErrTooDeep   = errors.New("atom: value nested too deeply")
)

// AppendValue encodes v onto buf and returns the extended slice.
func AppendValue(buf []byte, v Value) []byte {
	buf = append(buf, byte(v.K))
	switch v.K {
	case KindNull:
	case KindInt:
		buf = binary.BigEndian.AppendUint64(buf, uint64(v.I))
	case KindReal:
		buf = binary.BigEndian.AppendUint64(buf, math.Float64bits(v.F))
	case KindBool:
		if v.I != 0 {
			buf = append(buf, 1)
		} else {
			buf = append(buf, 0)
		}
	case KindString:
		buf = binary.BigEndian.AppendUint32(buf, uint32(len(v.S)))
		buf = append(buf, v.S...)
	case KindIdent, KindRef:
		buf = binary.BigEndian.AppendUint64(buf, uint64(v.A))
	case KindRecord, KindArray, KindSet, KindList:
		buf = binary.BigEndian.AppendUint32(buf, uint32(len(v.E)))
		for _, e := range v.E {
			buf = AppendValue(buf, e)
		}
	}
	return buf
}

// DecodeValue decodes one value from data, returning it and the remaining
// bytes. Strings are copied out of data, so the caller may reuse the input
// buffer afterwards.
func DecodeValue(data []byte) (Value, []byte, error) {
	if _, err := checkValue(data, 0); err != nil {
		return Value{}, nil, err
	}
	v, rest := decodeValue(data, false)
	return v, rest, nil
}

// MaxDepth bounds container nesting in every walk over an encoded value.
// Attribute types nest as deep as their declaration does, a handful of levels
// (the catalog refuses a deeper declaration); the bound keeps a hostile
// encoding from recursing until the stack is exhausted.
const MaxDepth = 64

// decodeValue decodes the value at the head of data, which checkValue has
// admitted: every entry point validates first, so the decoder itself reads
// without looking. When owned is true the input buffer belongs to the decoded
// result: string payloads alias data instead of being copied (the zero-copy
// fast path for cache-owned record images).
func decodeValue(data []byte, owned bool) (Value, []byte) {
	k := Kind(data[0])
	data = data[1:]
	switch k {
	case KindInt:
		return Value{K: k, I: int64(binary.BigEndian.Uint64(data))}, data[8:]
	case KindReal:
		return Value{K: k, F: math.Float64frombits(binary.BigEndian.Uint64(data))}, data[8:]
	case KindBool:
		return Value{K: k, I: int64(data[0] & 1)}, data[1:]
	case KindString:
		n := int(binary.BigEndian.Uint32(data))
		data = data[4:]
		s := aliasString(data[:n])
		if !owned {
			s = strings.Clone(s)
		}
		return Value{K: k, S: s}, data[n:]
	case KindIdent, KindRef:
		return Value{K: k, A: addr.LogicalAddr(binary.BigEndian.Uint64(data))}, data[8:]
	case KindRecord, KindArray, KindSet, KindList:
		v := Value{K: k}
		if n := binary.BigEndian.Uint32(data); n > 0 {
			v.E = make([]Value, n)
		}
		data = data[4:]
		for i := range v.E {
			v.E[i], data = decodeValue(data, owned)
		}
		return v, data
	default: // KindNull
		return Value{}, data
	}
}

// AppendLiteral renders the encoded value at the head of data in MQL literal
// syntax onto dst, without building a Value, and returns the extended slice
// and the remaining bytes. It is the walk of decodeValue with a text sink:
// the wire client renders checked-out record images with it, and what it
// writes can be fed back through a checkin statement. A NULL renders as
// NULL; callers that omit NULL attributes test the kind byte themselves.
func AppendLiteral(dst, data []byte) ([]byte, []byte, error) {
	return appendLiteral(dst, data, 0)
}

func appendLiteral(dst, data []byte, depth int) ([]byte, []byte, error) {
	if len(data) < 1 {
		return dst, nil, ErrTruncated
	}
	k := Kind(data[0])
	data = data[1:]
	switch k {
	case KindNull:
		return append(dst, "NULL"...), data, nil
	case KindInt, KindReal, KindIdent, KindRef:
		if len(data) < 8 {
			return dst, nil, ErrTruncated
		}
		u := binary.BigEndian.Uint64(data)
		switch k {
		case KindInt:
			dst = strconv.AppendInt(dst, int64(u), 10)
		case KindReal:
			dst = strconv.AppendFloat(dst, math.Float64frombits(u), 'g', -1, 64)
		default:
			a := addr.LogicalAddr(u)
			dst = append(dst, '@')
			dst = strconv.AppendUint(dst, uint64(a.Type()), 10)
			dst = append(dst, '.')
			dst = strconv.AppendUint(dst, a.Seq(), 10)
		}
		return dst, data[8:], nil
	case KindBool:
		if len(data) < 1 {
			return dst, nil, ErrTruncated
		}
		if data[0]&1 != 0 {
			return append(dst, "TRUE"...), data[1:], nil
		}
		return append(dst, "FALSE"...), data[1:], nil
	case KindString:
		if len(data) < 4 {
			return dst, nil, ErrTruncated
		}
		n := int(binary.BigEndian.Uint32(data))
		data = data[4:]
		if len(data) < n {
			return dst, nil, ErrTruncated
		}
		dst = append(dst, '\'')
		for s := data[:n]; ; {
			i := bytes.IndexByte(s, '\'')
			if i < 0 {
				dst = append(dst, s...)
				break
			}
			dst = append(dst, s[:i+1]...) // the quote itself, then its double
			dst = append(dst, '\'')
			s = s[i+1:]
		}
		return append(dst, '\''), data[n:], nil
	case KindRecord, KindArray, KindSet, KindList:
		if len(data) < 4 {
			return dst, nil, ErrTruncated
		}
		if depth >= MaxDepth {
			return dst, nil, ErrTooDeep
		}
		n := int(binary.BigEndian.Uint32(data))
		data = data[4:]
		open, close := byte('{'), byte('}')
		switch k {
		case KindList, KindArray:
			open, close = '[', ']'
		case KindRecord:
			open, close = '(', ')'
		}
		dst = append(dst, open)
		for i := 0; i < n; i++ {
			if i > 0 {
				dst = append(dst, ", "...)
			}
			var err error
			if dst, data, err = appendLiteral(dst, data, depth+1); err != nil {
				return dst, nil, err
			}
		}
		return append(dst, close), data, nil
	default:
		return dst, nil, fmt.Errorf("%w: %d", ErrBadKind, k)
	}
}

// aliasString views b as a string without copying. Only used for buffers the
// decoded values own exclusively (fresh record copies): the values are
// immutable afterwards, so the aliased bytes are never rewritten.
func aliasString(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	return unsafe.String(&b[0], len(b))
}

// EncodeAtom serializes a full attribute vector.
func EncodeAtom(values []Value) []byte {
	return AppendAtom(make([]byte, 0, 16+16*len(values)), values)
}

// AppendAtom serializes a full attribute vector onto buf and returns the
// extended slice — the allocation-free variant of EncodeAtom for callers
// that pool their encode scratch (the record layers copy the bytes into
// pages, so the buffer never needs to outlive the call).
func AppendAtom(buf []byte, values []Value) []byte {
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(values)))
	for _, v := range values {
		buf = AppendValue(buf, v)
	}
	return buf
}

// DecodeAtom deserializes a full attribute vector. Strings are copied, so
// the input buffer may be reused.
func DecodeAtom(data []byte) ([]Value, error) {
	return decodeAtom(data, false)
}

// DecodeAtomOwned deserializes a full attribute vector from a buffer the
// result takes ownership of: string values alias the input bytes instead of
// copying them. Callers pass freshly read record images (which the container
// layer already copies out of its pages) and must not modify data afterwards.
func DecodeAtomOwned(data []byte) ([]Value, error) {
	return decodeAtom(data, true)
}

// decodeAtom is CheckImage followed by the decode the check made safe, so the
// two accept the same images and reject the rest with the same errors.
func decodeAtom(data []byte, owned bool) ([]Value, error) {
	img, err := CheckImage(data)
	if err != nil {
		return nil, err
	}
	return img.values(owned), nil
}

// attrCount reads a record image's attribute count. Every value takes at
// least its kind byte: a count the image cannot back must not size an
// allocation.
func attrCount(data []byte) (int, error) {
	if len(data) < 2 {
		return 0, ErrTruncated
	}
	n := int(binary.BigEndian.Uint16(data))
	if n > len(data)-2 {
		return 0, ErrTruncated
	}
	return n, nil
}

// EncodeProjection serializes the chosen attributes (by index) of an atom.
// This is the physical format of partition records, which hold "separate
// storage of attribute combinations" (§3.2).
func EncodeProjection(indices []int, values []Value) []byte {
	buf := make([]byte, 0, 16+16*len(indices))
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(indices)))
	for _, idx := range indices {
		buf = binary.BigEndian.AppendUint16(buf, uint16(idx))
		buf = AppendValue(buf, values[idx])
	}
	return buf
}

// DecodeProjectionFunc streams the (attrIndex, value) pairs of a partition
// record through fn — the read path of partition-covered projected reads.
// owned selects zero-copy string decoding (see DecodeAtomOwned).
func DecodeProjectionFunc(data []byte, owned bool, fn func(idx int, v Value)) error {
	if len(data) < 2 {
		return ErrTruncated
	}
	n := int(binary.BigEndian.Uint16(data))
	data = data[2:]
	for i := 0; i < n; i++ {
		if len(data) < 2 {
			return ErrTruncated
		}
		idx := int(binary.BigEndian.Uint16(data))
		data = data[2:]
		if _, err := checkValue(data, 0); err != nil {
			return fmt.Errorf("atom: projection pair %d: %w", i, err)
		}
		var v Value
		v, data = decodeValue(data, owned)
		fn(idx, v)
	}
	if len(data) != 0 {
		return fmt.Errorf("atom: %d trailing bytes", len(data))
	}
	return nil
}
