package wire

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/bits"

	"prima/internal/access"
	"prima/internal/access/addr"
	"prima/internal/access/atom"
	"prima/internal/catalog"
	"prima/internal/core"
	"prima/internal/obs"
)

// Frame layout. Every message, either way, is one frame:
//
//	frame    = length:u32be body              length = len(body) <= maxFrame
//
//	request  = op:1 addr:uvarint n:uvarint mql:bytes-to-end
//
//	response = flags:1 count:uvarint epoch:uvarint error:str message:str
//	           traceID:str ninserted:uvarint addr* entry*
//	flags    = ok(1) | more(2) | retryable(4)
//	str      = len:uvarint bytes
//	addr     = uvarint of the logical address rotated left by 16 bits: the
//	           atom type lands in the low bits, so a small sequence number
//	           makes a short varint
//	entry    = 1 ordinal:uvarint name:str nattrs:uvarint (name:str kind:1)*
//	         | 2 root:addr natoms:uvarint atom*
//	         | 3 atom
//	         | 4 json-to-end
//	atom     = ordinal:uvarint addr image
//
// Entry 1 is a dictionary entry: it defines the next free type ordinal of the
// connection (ordinals count up from 0 and are never redefined) and precedes
// the first atom of that type; kind is the attribute's declared atom.Kind,
// and the attribute of kind IDENTIFIER is the type's identifier. Entry 2 is
// a molecule, entry 3 the lone atom of a getatom response. image is the
// record image atom.AppendAtom writes, self-delimiting, with one value per
// dictionary attribute: the bytes the access system stores and caches,
// appended as they are (a projection's dropped attributes are NULL). Entry 4
// is the opaque JSON body of the diagnostic ops (stats, slow) and ends the
// frame. A checkout stream ends with the first frame whose more flag is
// unset: the terminal frame, which carries the total count or the error that
// cut the stream short.

// maxFrame bounds a frame body (16 MiB).
const maxFrame = 16 << 20

// keepBuf is the largest frame buffer a connection keeps between messages;
// a bigger one (a blob molecule went through) is dropped after use.
const keepBuf = 1 << 20

const (
	flagOK = 1 << iota
	flagMore
	flagRetryable
)

const (
	entryType = 1 + iota
	entryMolecule
	entryAtom
	entryDiag
)

// errMalformed is returned for a frame that does not follow the layout.
var errMalformed = errors.New("wire: malformed frame")

func malformed(format string, args ...any) error {
	return fmt.Errorf("%w: %s", errMalformed, fmt.Sprintf(format, args...))
}

// diagPayload is the JSON body of entry 4.
type diagPayload struct {
	Metrics *obs.MetricsSnapshot `json:"metrics,omitempty"`
	Traces  []*obs.TraceSnapshot `json:"traces,omitempty"`
}

func appendStr(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

func appendAddr(b []byte, a uint64) []byte {
	return binary.AppendUvarint(b, bits.RotateLeft64(a, 16))
}

// finishFrame fills in the length prefix of the frame that starts at buf[0].
func finishFrame(buf []byte) ([]byte, error) {
	n := len(buf) - 4
	if n > maxFrame {
		return nil, fmt.Errorf("%w: %d bytes", ErrFrameTooBig, n)
	}
	binary.BigEndian.PutUint32(buf, uint32(n))
	return buf, nil
}

// readFrameLen reads a frame's length prefix, through buf so that the four
// bytes need no allocation of their own. The server waits for it under its
// idle deadline and reads the body under the read deadline: a peer may stay
// silent between requests for as long as the idle budget allows, but once
// it starts a frame it has to finish it promptly.
func readFrameLen(r io.Reader, buf []byte) ([]byte, int, error) {
	if cap(buf) < 4 {
		buf = make([]byte, 0, 512)
	}
	hdr := buf[:4]
	if _, err := io.ReadFull(r, hdr); err != nil {
		return buf, 0, err
	}
	n := binary.BigEndian.Uint32(hdr)
	if n > maxFrame {
		return buf, 0, fmt.Errorf("%w: %d bytes announced", ErrFrameTooBig, n)
	}
	return buf, int(n), nil
}

// readFrameBody reads an n-byte frame body into buf, grown if it has to be,
// and returns it.
func readFrameBody(r io.Reader, buf []byte, n int) ([]byte, error) {
	if cap(buf) < n {
		buf = make([]byte, n)
	}
	buf = buf[:n]
	_, err := io.ReadFull(r, buf)
	return buf, err
}

// readFrame reads one frame into buf and returns its body.
func readFrame(r io.Reader, buf []byte) ([]byte, error) {
	buf, n, err := readFrameLen(r, buf)
	if err != nil {
		return buf, err
	}
	return readFrameBody(r, buf, n)
}

// appendRequest appends req as one frame.
func appendRequest(buf []byte, req *Request) ([]byte, error) {
	buf = append(buf[:0], 0, 0, 0, 0, byte(req.Op))
	buf = binary.AppendUvarint(buf, req.Addr)
	buf = binary.AppendUvarint(buf, uint64(req.N))
	buf = append(buf, req.MQL...)
	return finishFrame(buf)
}

// decodeRequest decodes a request frame body.
func decodeRequest(body []byte, req *Request) error {
	r := reader{b: body}
	op := Op(r.byte())
	addr := r.uvarint()
	n := r.uvarint()
	if r.err != nil {
		return r.err
	}
	if op == 0 || op >= numOps {
		return malformed("unknown op %d", op)
	}
	if n > maxFrame {
		return malformed("result bound %d", n)
	}
	*req = Request{Op: op, Addr: addr, N: int(n), MQL: string(r.b)}
	return nil
}

// reader walks a frame body; the first failure sticks and every later read
// returns zero values.
type reader struct {
	b   []byte
	err error
}

func (r *reader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = malformed(format, args...)
	}
	r.b = nil
}

func (r *reader) byte() byte {
	if len(r.b) == 0 {
		r.fail("truncated")
		return 0
	}
	c := r.b[0]
	r.b = r.b[1:]
	return c
}

func (r *reader) uvarint() uint64 {
	v, n := binary.Uvarint(r.b)
	if n <= 0 {
		r.fail("bad varint")
		return 0
	}
	r.b = r.b[n:]
	return v
}

func (r *reader) addr() uint64 { return bits.RotateLeft64(r.uvarint(), -16) }

// count reads an element count and checks it against the bytes left, each
// element taking at least min of them: nothing is ever allocated for more
// elements than the frame can hold.
func (r *reader) count(min int) int {
	n := r.uvarint()
	if n > uint64(len(r.b)/min) {
		r.fail("count %d exceeds frame", n)
		return 0
	}
	return int(n)
}

// str reads a string, copied out of the frame.
func (r *reader) str() string {
	n := r.count(1)
	s := string(r.b[:n])
	r.b = r.b[n:]
	return s
}

// reply is a response in the form the server holds it: the head fields of
// Response, and the payload as the engine's own molecules and atoms.
type reply struct {
	OK, More, Retryable     bool
	Error, Message, TraceID string
	Count                   int
	Epoch                   uint64
	Inserted                []addr.LogicalAddr
	Molecules               []*core.Molecule
	Atom                    access.Record // the zero record: none
	Diag                    *diagPayload
}

// encoder builds the response frames of one connection in one reused buffer
// and keeps the connection's type dictionary.
type encoder struct {
	buf   []byte
	types map[*catalog.AtomType]uint64 // ordinal of every type sent so far
	sent  []*catalog.AtomType          // the same by ordinal, for rollback
}

// mark is a point the frame under construction can be rolled back to.
type mark struct{ buf, types int }

func (e *encoder) mark() mark { return mark{len(e.buf), len(e.sent)} }

// rollback drops what was appended since m, dictionary entries included: the
// peer never sees them, so their types must be announced again.
func (e *encoder) rollback(m mark) {
	e.buf = e.buf[:m.buf]
	for _, t := range e.sent[m.types:] {
		delete(e.types, t)
	}
	e.sent = e.sent[:m.types]
}

// begin starts a frame with r's head.
func (e *encoder) begin(r *reply) {
	var flags byte
	if r.OK {
		flags |= flagOK
	}
	if r.More {
		flags |= flagMore
	}
	if r.Retryable {
		flags |= flagRetryable
	}
	b := append(e.buf[:0], 0, 0, 0, 0, flags)
	b = binary.AppendUvarint(b, uint64(r.Count))
	b = binary.AppendUvarint(b, r.Epoch)
	b = appendStr(b, r.Error)
	b = appendStr(b, r.Message)
	b = appendStr(b, r.TraceID)
	b = binary.AppendUvarint(b, uint64(len(r.Inserted)))
	for _, a := range r.Inserted {
		b = appendAddr(b, uint64(a))
	}
	e.buf = b
}

// response encodes r whole. A response too big for a frame leaves the
// dictionary as it was.
func (e *encoder) response(r *reply) ([]byte, error) {
	start := mark{0, len(e.sent)}
	e.begin(r)
	for _, mol := range r.Molecules {
		e.molecule(mol)
	}
	if r.Atom.Type != nil {
		ord := e.ordinal(r.Atom.Type)
		e.buf = append(e.buf, entryAtom)
		e.atom(r.Atom, ord)
	}
	if r.Diag != nil {
		body, err := json.Marshal(r.Diag)
		if err != nil {
			return nil, fmt.Errorf("wire: marshal diagnostics: %w", err)
		}
		e.buf = append(append(e.buf, entryDiag), body...)
	}
	frame, err := e.finish()
	if err != nil {
		e.rollback(start)
	}
	return frame, err
}

// chunk encodes one frame of a checkout stream: as many of mols as the
// frame's byte budget allows, at least one, under head if that takes them
// all. It returns the frame and how many it took. head may be the stream's
// terminal head; a frame that leaves some of mols behind is not the terminal
// one and gets a continuation head instead. A molecule that no frame can
// hold is an error; the frame is abandoned then and the dictionary is as it
// was.
func (e *encoder) chunk(head *reply, mols []*core.Molecule) ([]byte, int, error) {
	start := mark{0, len(e.sent)}
	n := 0
	for {
		e.begin(head)
		body := len(e.buf)
		for n = 0; n < len(mols); n++ {
			m := e.mark()
			e.molecule(mols[n])
			if size := len(e.buf) - m.buf; size > maxFrame-1024 {
				e.rollback(start)
				return nil, 0, fmt.Errorf("%w: molecule %v encodes to %d bytes", ErrFrameTooBig, mols[n].Root.Addr(), size)
			}
			if n > 0 && len(e.buf)-body > frameBudget {
				e.rollback(m) // it opens the next frame
				break
			}
		}
		if n == len(mols) || head.More {
			break
		}
		e.rollback(start)
		head = &reply{OK: true, Epoch: head.Epoch, More: true}
	}
	frame, err := e.finish()
	if err != nil {
		e.rollback(start)
	}
	return frame, n, err
}

// EncodeMolecules returns the frames a fresh connection's checkout stream
// carries mols in, end to end. The bytes are a function of the molecules
// alone — roots, per-type atom order, hidden flags, attribute values — which
// is what the data system's differential tests compare two assemblers by.
func EncodeMolecules(mols []*core.Molecule) ([]byte, error) {
	var e encoder
	var stream []byte
	for len(mols) > 0 {
		frame, n, err := e.chunk(&reply{OK: true, Count: len(mols)}, mols)
		if err != nil {
			return nil, err
		}
		stream, mols = append(stream, frame...), mols[n:]
	}
	return stream, nil
}

// finish closes the frame and hands it out; it is valid until the next
// begin.
func (e *encoder) finish() ([]byte, error) {
	frame, err := finishFrame(e.buf)
	if cap(e.buf) > keepBuf {
		e.buf = nil
	}
	return frame, err
}

// ordinal returns t's ordinal on this connection, appending its dictionary
// entry first if the peer has not been told about t yet.
func (e *encoder) ordinal(t *catalog.AtomType) uint64 {
	if ord, ok := e.types[t]; ok {
		return ord
	}
	if e.types == nil {
		e.types = map[*catalog.AtomType]uint64{}
	}
	ord := uint64(len(e.sent))
	e.types[t] = ord
	e.sent = append(e.sent, t)
	b := append(e.buf, entryType)
	b = binary.AppendUvarint(b, ord)
	b = appendStr(b, t.Name)
	b = binary.AppendUvarint(b, uint64(len(t.Attrs)))
	for _, a := range t.Attrs {
		b = appendStr(b, a.Name)
		b = append(b, byte(a.Type.Kind))
	}
	e.buf = b
	return ord
}

// molecule appends m: its visible atoms grouped by type in the order of the
// molecule type's tree, preceded by the dictionary entries they need.
func (e *encoder) molecule(m *core.Molecule) {
	// Atoms of one type lie together, so the dictionary is consulted once
	// per run of them, not once per atom.
	var t *catalog.AtomType
	n := 0
	for _, atoms := range m.ByType {
		for _, ma := range atoms {
			if ma.Hidden {
				continue
			}
			n++
			if ma.Rec.Type != t {
				t = ma.Rec.Type
				e.ordinal(t)
			}
		}
	}
	e.buf = append(e.buf, entryMolecule)
	e.buf = appendAddr(e.buf, uint64(m.Root.Addr()))
	e.buf = binary.AppendUvarint(e.buf, uint64(n))
	t = nil
	var ord uint64
	for _, atoms := range m.ByType {
		for _, ma := range atoms {
			if ma.Hidden {
				continue
			}
			if ma.Rec.Type != t {
				t = ma.Rec.Type
				ord = e.types[t]
			}
			e.atom(ma.Rec, ord)
		}
	}
}

func (e *encoder) atom(rec access.Record, ord uint64) {
	b := binary.AppendUvarint(e.buf, ord)
	b = appendAddr(b, uint64(rec.Addr))
	e.buf = append(b, rec.Image.Bytes()...)
}

// wireType is one dictionary entry as the client keeps it.
type wireType struct {
	name  string
	attrs []string
}

// decoder decodes the response frames of one connection: it holds the
// connection's type dictionary and the scratch a molecule is rendered in.
type decoder struct {
	types []*wireType
	// idents names the IDENTIFIER attribute of every type any connection
	// of the client has announced; it outlives reset.
	idents map[string]string

	lit   []byte    // the literals of the molecule being decoded, end to end
	atoms []pending // its atoms, waiting for the arena string
	ends  []litEnd  // where each literal ends in lit

	// held lists the atoms decoded since it was emptied, as an object buffer
	// keeps them, if hold is set: the response is a checkout's.
	held []heldAtom
	hold bool
}

// buffered is an atom as the object buffer holds it: its type and its record
// image, the unit the read path carries — a piece of the one pointer-free blob
// its molecule's images were copied into; rendered once, it renders again.
type buffered struct {
	t      *wireType
	image  []byte
	staged map[string]string // StageModify's literals over it, by attribute
}

type heldAtom struct {
	addr uint64
	buffered
}

// pending is a decoded atom whose values still lie in decoder.lit.
type pending struct {
	t     *wireType
	nvals int
}

type litEnd struct{ attr, end int }

// reset forgets the dictionary: the connection it belonged to is gone.
func (d *decoder) reset() { d.types = d.types[:0] }

// response decodes a response frame body into resp, appending to
// resp.Molecules. Nothing in resp aliases body afterwards.
func (d *decoder) response(body []byte, resp *Response) error {
	r := reader{b: body}
	flags := r.byte()
	resp.OK = flags&flagOK != 0
	resp.More = flags&flagMore != 0
	resp.Retryable = flags&flagRetryable != 0
	if count := r.uvarint(); count > math.MaxInt {
		r.fail("count %d", count)
	} else {
		resp.Count = int(count)
	}
	resp.Epoch = r.uvarint()
	resp.Error = r.str()
	resp.Message = r.str()
	resp.TraceID = r.str()
	if n := r.count(1); n > 0 {
		resp.Inserted = make([]uint64, n)
		for i := range resp.Inserted {
			resp.Inserted[i] = r.addr()
		}
	}
	for r.err == nil && len(r.b) > 0 {
		switch tag := r.byte(); tag {
		case entryType:
			d.typeEntry(&r)
		case entryMolecule:
			if m, ok := d.molecule(&r); ok {
				resp.Molecules = append(resp.Molecules, m)
			}
		case entryAtom:
			d.lit, d.atoms, d.ends = d.lit[:0], d.atoms[:0], d.ends[:0]
			a := make([]AtomJSON, 1)
			a[0].Addr, _, _ = d.atom(&r)
			if r.err == nil {
				d.render(a)
				resp.Atom = &a[0]
			}
		case entryDiag:
			var p diagPayload
			if err := json.Unmarshal(r.b, &p); err != nil {
				r.fail("diagnostics: %v", err)
			}
			resp.Metrics, resp.Traces = p.Metrics, p.Traces
			r.b = nil
		default:
			r.fail("unknown entry %d", tag)
		}
	}
	return r.err
}

// typeEntry reads a dictionary entry. It must define the next free ordinal:
// anything else redefines a live one or leaves a gap, and either way the two
// ends no longer agree on what the ordinals mean.
func (d *decoder) typeEntry(r *reader) {
	ord := r.uvarint()
	t := &wireType{name: r.str()}
	n := r.count(2)
	if r.err != nil {
		return
	}
	if ord != uint64(len(d.types)) {
		r.fail("dictionary entry for ordinal %d, next free is %d", ord, len(d.types))
		return
	}
	t.attrs = make([]string, n)
	ident := ""
	for i := range t.attrs {
		t.attrs[i] = r.str()
		if atom.Kind(r.byte()) == atom.KindIdent {
			ident = t.attrs[i]
		}
	}
	if r.err != nil {
		return
	}
	d.types = append(d.types, t)
	if d.idents != nil {
		d.idents[t.name] = ident
	}
}

// molecule reads a molecule entry: it renders the atoms for the caller and
// appends them to d.held, their images copied out of the frame as one blob.
func (d *decoder) molecule(r *reader) (MoleculeJSON, bool) {
	m := MoleculeJSON{Root: r.addr()}
	n := r.count(4) // ordinal, address, attribute count
	if r.err != nil {
		return m, false
	}
	d.lit, d.atoms, d.ends = d.lit[:0], d.atoms[:0], d.ends[:0]
	m.Atoms = make([]AtomJSON, n)
	first, size := len(d.held), 0
	for i := range m.Atoms {
		a, t, image := d.atom(r)
		m.Atoms[i].Addr = a
		if d.hold {
			d.held = append(d.held, heldAtom{a, buffered{t: t, image: image}})
			size += len(image)
		}
	}
	if r.err != nil {
		d.held = d.held[:first]
		return m, false
	}
	blob := make([]byte, 0, size)
	for i := first; i < len(d.held); i++ {
		h := &d.held[i]
		blob = append(blob, h.image...)
		h.image = blob[len(blob)-len(h.image) : len(blob) : len(blob)]
	}
	d.render(m.Atoms)
	return m, true
}

// atom reads one atom: it renders the image's non-NULL values onto d.lit,
// queues the atom in d.atoms and returns its address, its type and the image
// where it lies in the frame.
func (d *decoder) atom(r *reader) (uint64, *wireType, []byte) {
	ord := r.uvarint()
	a := r.addr()
	if r.err != nil {
		return 0, nil, nil
	}
	if ord >= uint64(len(d.types)) {
		r.fail("unknown type ordinal %d", ord)
		return 0, nil, nil
	}
	t, from := d.types[ord], r.b
	d.image(t, r)
	return a, t, from[:len(from)-len(r.b)]
}

// image reads the record image of a t: it renders its non-NULL values onto
// d.lit and queues the atom in d.atoms.
func (d *decoder) image(t *wireType, r *reader) {
	if len(r.b) < 2 || int(binary.BigEndian.Uint16(r.b)) != len(t.attrs) {
		r.fail("%s image does not hold %d attributes", t.name, len(t.attrs))
		return
	}
	data := r.b[2:]
	first := len(d.ends)
	for i := range t.attrs {
		if len(data) > 0 && atom.Kind(data[0]) == atom.KindNull {
			data = data[1:]
			continue
		}
		var err error
		if d.lit, data, err = atom.AppendLiteral(d.lit, data); err != nil {
			r.fail("%s.%s: %v", t.name, t.attrs[i], err)
			return
		}
		d.ends = append(d.ends, litEnd{i, len(d.lit)})
	}
	r.b = data
	d.atoms = append(d.atoms, pending{t, len(d.ends) - first})
}

// rendered renders a buffered atom afresh, staged literals over the image's.
func (d *decoder) rendered(a uint64, b buffered) AtomJSON {
	d.lit, d.atoms, d.ends = d.lit[:0], d.atoms[:0], d.ends[:0]
	d.image(b.t, &reader{b: b.image}) // rendered once already: it cannot fail
	out := []AtomJSON{{Addr: a}}
	d.render(out)
	for attr, lit := range b.staged {
		out[0].Values[attr] = lit
	}
	return out[0]
}

// render turns the queued atoms into out's Type and Values: one arena string
// for all literals, each value a substring of it.
func (d *decoder) render(out []AtomJSON) {
	arena := string(d.lit)
	ends, start := d.ends, 0
	for i, p := range d.atoms {
		vals := make(map[string]string, p.nvals)
		for _, e := range ends[:p.nvals] {
			vals[p.t.attrs[e.attr]] = arena[start:e.end]
			start = e.end
		}
		ends = ends[p.nvals:]
		out[i].Type, out[i].Values = p.t.name, vals
	}
	if cap(d.lit) > keepBuf {
		d.lit = nil
	}
}
