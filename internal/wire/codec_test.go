package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"net"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"prima"
	"prima/internal/access"
	"prima/internal/access/addr"
	"prima/internal/access/atom"
	"prima/internal/core"
	"prima/internal/workload/brepgen"
)

// The reference renderer: what the server did while frames were JSON. It
// built the client's structs from the engine's molecules directly, one
// fmt/strconv call per value. The binary codec must produce the same
// structs, literal for literal.

func refMolecules(mols []*core.Molecule) []MoleculeJSON {
	out := make([]MoleculeJSON, 0, len(mols))
	for _, m := range mols {
		mj := MoleculeJSON{Root: uint64(m.Root.Addr())}
		for _, tn := range m.Type.AtomTypes() {
			for _, ma := range m.AtomsOf(tn) {
				if ma.Hidden {
					continue
				}
				mj.Atoms = append(mj.Atoms, refAtom(ma.Rec.Decode()))
			}
		}
		out = append(out, mj)
	}
	return out
}

func refAtom(at *access.Atom) AtomJSON {
	aj := AtomJSON{Addr: uint64(at.Addr), Type: at.Type.Name, Values: map[string]string{}}
	for i, a := range at.Type.Attrs {
		v := at.Values[i]
		if v.IsNull() {
			continue
		}
		aj.Values[a.Name] = refValue(v)
	}
	return aj
}

// refValue renders a value in MQL literal syntax (so clients can feed it
// back through checkin statements).
func refValue(v atom.Value) string {
	switch v.K {
	case atom.KindInt:
		return strconv.FormatInt(v.I, 10)
	case atom.KindReal:
		return strconv.FormatFloat(v.F, 'g', -1, 64)
	case atom.KindBool:
		if v.I != 0 {
			return "TRUE"
		}
		return "FALSE"
	case atom.KindString:
		return "'" + strings.ReplaceAll(v.S, "'", "''") + "'"
	case atom.KindIdent, atom.KindRef:
		return fmt.Sprintf("@%d.%d", v.A.Type(), v.A.Seq())
	case atom.KindSet, atom.KindList, atom.KindRecord, atom.KindArray:
		parts := make([]string, len(v.E))
		for i, e := range v.E {
			parts[i] = refValue(e)
		}
		open, close := "{", "}"
		switch v.K {
		case atom.KindList, atom.KindArray:
			open, close = "[", "]"
		case atom.KindRecord:
			open, close = "(", ")"
		}
		return open + strings.Join(parts, ", ") + close
	default:
		return "NULL"
	}
}

// viaCodec encodes mols as one response frame and decodes it again.
func viaCodec(t *testing.T, enc *encoder, dec *decoder, mols []*core.Molecule) []MoleculeJSON {
	t.Helper()
	frame, err := enc.response(&reply{OK: true, Count: len(mols), Molecules: mols})
	if err != nil {
		t.Fatal(err)
	}
	var resp Response
	if err := dec.response(frame[4:], &resp); err != nil {
		t.Fatal(err)
	}
	if !resp.OK || resp.Count != len(mols) {
		t.Fatalf("head: ok=%v count=%d, want true, %d", resp.OK, resp.Count, len(mols))
	}
	return resp.Molecules
}

// sameMolecules fails unless got and want are deeply equal, naming the first
// atom that differs.
func sameMolecules(t *testing.T, what string, got, want []MoleculeJSON) {
	t.Helper()
	if reflect.DeepEqual(got, want) {
		return
	}
	if len(got) != len(want) {
		t.Fatalf("%s: %d molecules, reference has %d", what, len(got), len(want))
	}
	for i := range want {
		if got[i].Root != want[i].Root || len(got[i].Atoms) != len(want[i].Atoms) {
			t.Fatalf("%s: molecule %d is @%d with %d atoms, reference @%d with %d",
				what, i, got[i].Root, len(got[i].Atoms), want[i].Root, len(want[i].Atoms))
		}
		for j := range want[i].Atoms {
			if !reflect.DeepEqual(got[i].Atoms[j], want[i].Atoms[j]) {
				t.Fatalf("%s: molecule %d atom %d:\n got %+v\nwant %+v", what, i, j, got[i].Atoms[j], want[i].Atoms[j])
			}
		}
	}
	t.Fatalf("%s: differs from the reference", what)
}

// kindsDDL declares one attribute of every kind, nested ones included; the
// identifiers are called oid, not <type>_id.
const kindsDDL = `
CREATE ATOM_TYPE part
  ( oid   : IDENTIFIER,
    n     : INTEGER,
    r     : REAL,
    ok    : BOOLEAN,
    name  : CHAR_VAR,
    tags  : SET_OF (CHAR_VAR),
    route : LIST_OF (INTEGER),
    pos   : RECORD x, y : REAL, label : CHAR_VAR, END,
    cells : ARRAY_OF (ARRAY_OF (INTEGER, 2), 2),
    hist  : LIST_OF (RECORD at : INTEGER, dims : SET_OF (REAL), END),
    owner : REF_TO (owner.parts),
    spare : INTEGER );
CREATE ATOM_TYPE owner
  ( oid   : IDENTIFIER,
    parts : SET_OF (REF_TO (part.owner)) );
`

// kindsDB holds an owner with parts whose values cover every literal form.
func kindsDB(t testing.TB) *prima.DB {
	t.Helper()
	db, err := prima.Open(prima.Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	if _, err := db.Exec(kindsDDL); err != nil {
		t.Fatal(err)
	}
	sys := db.System()
	owner, err := sys.Insert("owner", nil)
	if err != nil {
		t.Fatal(err)
	}
	reals := []float64{0, -0.5, 1e21, 1e-7, 123456789.125, math.MaxFloat64, math.SmallestNonzeroFloat64, math.Inf(1)}
	names := []string{"plain", "it's", "''", "", "tab\tand\nnewline", "naïve ✓"}
	for i, f := range reals {
		values := map[string]atom.Value{
			"n":     atom.Int(int64(i) * -1234567890123),
			"r":     atom.Real(f),
			"ok":    atom.Bool(i%2 == 0),
			"name":  atom.Str(names[i%len(names)]),
			"tags":  atom.Set(atom.Str("a'b"), atom.Str("c")),
			"route": atom.List(atom.Int(1), atom.Int(-2), atom.Int(math.MinInt64)),
			"pos":   atom.Record(atom.Real(f), atom.Null(), atom.Str("p'")),
			"cells": atom.Array(atom.Array(atom.Int(1), atom.Int(2)), atom.Array(atom.Int(3), atom.Int(4))),
			"hist":  atom.List(atom.Record(atom.Int(7), atom.Set(atom.Real(1.5), atom.Real(2e-9))), atom.Record(atom.Int(8), atom.Set())),
			"owner": atom.Ref(owner),
		}
		if _, err := sys.Insert("part", values); err != nil {
			t.Fatalf("part %d: %v", i, err)
		}
	}
	// The last part leaves every scalar NULL.
	if _, err := sys.Insert("part", map[string]atom.Value{"owner": atom.Ref(owner)}); err != nil {
		t.Fatal(err)
	}
	return db
}

func mustSelect(t testing.TB, db *prima.DB, q string) []*core.Molecule {
	t.Helper()
	res, err := db.ExecOne(q)
	if err != nil {
		t.Fatalf("%s: %v", q, err)
	}
	if len(res.Molecules) == 0 {
		t.Fatalf("%s: no molecules", q)
	}
	return res.Molecules
}

// TestCodecMatchesReference is the differential test: for every value kind
// and for the brepgen scene, binary encode then client decode yields the
// structs the reference renderer builds.
func TestCodecMatchesReference(t *testing.T) {
	kinds := kindsDB(t)
	scene := sceneDB(t)
	cases := []struct {
		db *prima.DB
		q  string
		// in must occur in some literal of the reference: the case covers
		// what it is meant to.
		in []string
	}{
		{kinds, `SELECT ALL FROM part`, []string{"1e+21", "1e-07", "+Inf", "5e-324", "-0.5", "TRUE", "FALSE",
			"'it''s'", "''''''", "''", "{'a''b', 'c'}", "[1, -2, -9223372036854775808]", "NULL, 'p''')",
			"[[1, 2], [3, 4]]", "[(7, {1.5, 2e-09}), (8, {})]", "@"}},
		{kinds, `SELECT ALL FROM owner-part`, []string{"{@"}},
		{scene, `SELECT ALL FROM brep-face-edge-point`, []string{"(", "[", "{@"}},
		{scene, `SELECT ALL FROM solid`, nil},
		{scene, `SELECT ALL FROM piece_list`, nil},
		// Hidden brep connectors, faces projected to two attributes.
		{scene, `SELECT edge, (point, face := SELECT face_id, square_dim FROM face WHERE square_dim > 1.0)
		         FROM brep-edge-(face, point) WHERE brep_no >= 1`, nil},
	}
	// One connection sees every case, so that most types get an ordinal
	// other than 0 and a dictionary entry in an earlier frame.
	var connEnc encoder
	var connDec decoder
	for _, tc := range cases {
		mols := mustSelect(t, tc.db, tc.q)
		want := refMolecules(mols)
		var enc encoder
		var dec decoder
		sameMolecules(t, tc.q, viaCodec(t, &enc, &dec, mols), want)
		sameMolecules(t, tc.q+" (shared connection)", viaCodec(t, &connEnc, &connDec, mols), want)
		for _, lit := range tc.in {
			if !referenceHas(want, lit) {
				t.Errorf("%s: no literal contains %q; the case does not cover it", tc.q, lit)
			}
		}
	}

	// NULL attributes are left out and hidden atoms skipped, in the reference
	// and therefore in the codec's output.
	parts := refMolecules(mustSelect(t, kinds, `SELECT ALL FROM part`))
	sparse := parts[len(parts)-1].Atoms[0].Values
	for _, attr := range []string{"n", "r", "ok", "name", "spare"} {
		if v, ok := sparse[attr]; ok {
			t.Fatalf("NULL attribute %s rendered as %q", attr, v)
		}
	}
	projected := mustSelect(t, scene, cases[5].q)
	hidden := 0
	for _, m := range projected {
		for _, ma := range m.AtomsOf("brep") {
			if ma.Hidden {
				hidden++
			}
		}
	}
	if hidden == 0 {
		t.Fatal("projection case hides no atom")
	}
}

func referenceHas(mols []MoleculeJSON, lit string) bool {
	for _, m := range mols {
		for _, a := range m.Atoms {
			for _, v := range a.Values {
				if strings.Contains(v, lit) {
					return true
				}
			}
		}
	}
	return false
}

// TestClientMatchesReference runs the same comparison through a server and a
// Client: checkout streams of several frames, exec responses and getatom.
func TestClientMatchesReference(t *testing.T) {
	db, err := prima.Open(prima.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec(brepgen.SchemaDDL); err != nil {
		t.Fatal(err)
	}
	if _, err := brepgen.BuildScene(db.Engine(), 2*streamChunk+5); err != nil {
		t.Fatal(err)
	}
	srv, err := Serve(db, "")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		srv.Close()
		db.Close()
	})
	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	for _, q := range []string{
		`SELECT ALL FROM brep-face-edge-point`,
		`SELECT ALL FROM brep-face-edge-point WHERE brep_no = 7`,
		`SELECT ALL FROM piece_list`,
	} {
		want := refMolecules(mustSelect(t, db, q))
		got, err := c.Checkout(q)
		if err != nil {
			t.Fatalf("Checkout %s: %v", q, err)
		}
		sameMolecules(t, "checkout "+q, got, want)
		resp, err := c.Exec(q)
		if err != nil {
			t.Fatalf("Exec %s: %v", q, err)
		}
		sameMolecules(t, "exec "+q, resp.Molecules, want)
	}

	face := mustSelect(t, db, `SELECT ALL FROM face`)[0].Root.Rec.Decode()
	got, err := c.FetchAtom(uint64(face.Addr))
	if err != nil {
		t.Fatal(err)
	}
	if want := refAtom(face); !reflect.DeepEqual(got, want) {
		t.Fatalf("FetchAtom:\n got %+v\nwant %+v", got, want)
	}
}

// TestStageModifyUsesDictionaryIdentifier: the staged MODIFY names the
// IDENTIFIER attribute the type dictionary announced, whatever it is called.
func TestStageModifyUsesDictionaryIdentifier(t *testing.T) {
	db := kindsDB(t)
	srv, err := Serve(db, "")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	mols, err := c.Checkout(`SELECT ALL FROM part WHERE n = 0`)
	if err != nil || len(mols) != 1 {
		t.Fatalf("Checkout: %d molecules, %v", len(mols), err)
	}
	a := mols[0].Atoms[0]
	if err := c.StageModify("part", a.Addr, "name", "'renamed'"); err != nil {
		t.Fatal(err)
	}
	if p := c.Pending(); len(p) != 1 || !strings.Contains(p[0], " WHERE oid = @") {
		t.Fatalf("staged statement %q does not key on oid", p)
	}
	resp, err := c.Checkin()
	if err != nil || resp.Count != 1 {
		t.Fatalf("Checkin: %+v, %v", resp, err)
	}
	if got := mustSelect(t, db, `SELECT ALL FROM part WHERE n = 0`)[0].Root.Values()[4].S; got != "renamed" {
		t.Fatalf("server holds name %q after checkin", got)
	}
}

// TestSchemaChangeResendsDictionary drops and recreates a type in the middle
// of a connection: the new type gets a new ordinal and a dictionary entry
// of its own, and the client decodes and stages against the new shape.
func TestSchemaChangeResendsDictionary(t *testing.T) {
	db, err := prima.Open(prima.Config{})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := Serve(db, "")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		srv.Close()
		db.Close()
	})
	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	exec := func(src string) {
		t.Helper()
		if _, err := c.Exec(src); err != nil {
			t.Fatalf("%s: %v", src, err)
		}
	}

	exec(`CREATE ATOM_TYPE note (note_id: IDENTIFIER, n: INTEGER)`)
	exec(`INSERT INTO note (n) VALUES (1)`)
	mols, err := c.Checkout(`SELECT ALL FROM note`)
	if err != nil {
		t.Fatal(err)
	}
	if v := mols[0].Atoms[0].Values; v["n"] != "1" || len(v) != 2 {
		t.Fatalf("first shape: %v", v)
	}

	exec(`DROP ATOM_TYPE note`)
	exec(`CREATE ATOM_TYPE note (key: IDENTIFIER, title: CHAR_VAR, n: INTEGER)`)
	exec(`INSERT INTO note (title, n) VALUES ('second', 2)`)
	mols, err = c.Checkout(`SELECT ALL FROM note`)
	if err != nil {
		t.Fatalf("checkout after the schema change: %v", err)
	}
	a := mols[0].Atoms[0]
	if v := a.Values; v["title"] != "'second'" || v["n"] != "2" || v["key"] == "" || len(v) != 3 {
		t.Fatalf("second shape: %v", v)
	}
	if got := len(c.dec.types); got != 2 {
		t.Fatalf("connection dictionary has %d entries, want the old note and the new one", got)
	}
	if err := c.StageModify("note", a.Addr, "n", "3"); err != nil {
		t.Fatal(err)
	}
	if resp, err := c.Checkin(); err != nil || resp.Count != 1 {
		t.Fatalf("checkin against the new identifier: %+v, %v (staged %q)", resp, err, c.Pending())
	}
}

// TestOversizedResponseKeepsDictionary: an exec response too big for a frame
// is answered with an error on a connection that stays usable, and the
// dictionary entries the abandoned frame carried are sent again.
func TestOversizedResponseKeepsDictionary(t *testing.T) {
	_, srv := blobServer(t, 2*streamChunk, 700<<10, ServerConfig{})
	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Exec(`SELECT ALL FROM blob`); !errors.Is(err, ErrRemote) || !strings.Contains(err.Error(), "frame exceeds limit") {
		t.Fatalf("oversized exec response: %v", err)
	}
	mols, err := c.Checkout(`SELECT ALL FROM blob WHERE n = 3`)
	if err != nil || len(mols) != 1 || mols[0].Atoms[0].Values["n"] != "3" {
		t.Fatalf("checkout after the refused response: %v, %v", mols, err)
	}
}

// frameOf builds a response frame body by hand. Every step returns a fresh
// slice, so cases grown from one prefix never share bytes.
type frameOf []byte

func (f frameOf) add(b ...byte) frameOf { return append(append(frameOf(nil), f...), b...) }

func (f frameOf) uvarint(vs ...uint64) frameOf {
	f = f.add()
	for _, v := range vs {
		f = binary.AppendUvarint(f, v)
	}
	return f
}

func (f frameOf) str(s string) frameOf { return f.uvarint(uint64(len(s))).add([]byte(s)...) }

// okHead is the head of an OK response with nothing set.
func okHead() frameOf {
	return frameOf{flagOK}.uvarint(0, 0).str("").str("").str("").uvarint(0)
}

func (f frameOf) dict(ord uint64, name string, attrs ...string) frameOf {
	f = f.add(entryType).uvarint(ord).str(name).uvarint(uint64(len(attrs)))
	for i, a := range attrs {
		kind := atom.KindInt
		if i == 0 {
			kind = atom.KindIdent
		}
		f = f.str(a).add(byte(kind))
	}
	return f
}

func (f frameOf) molecule(root addr.LogicalAddr, natoms uint64) frameOf {
	return frameOf(appendAddr(f.add(entryMolecule), uint64(root))).uvarint(natoms)
}

func (f frameOf) atom(ord uint64, a addr.LogicalAddr, values ...atom.Value) frameOf {
	return atom.AppendAtom(appendAddr(f.uvarint(ord), uint64(a)), values)
}

// hostileNote is the address of the atom in the hand-built frames below.
var hostileNote = addr.New(3, 9)

// goodNoteFrame is a well-formed frame: the dictionary entry of a type note
// (id: IDENTIFIER, n: INTEGER) and one molecule of one note atom.
func goodNoteFrame() frameOf {
	a := hostileNote
	return okHead().dict(0, "note", "id", "n").molecule(a, 1).atom(0, a, atom.Ident(a), atom.Int(5))
}

// hostileResponseFrames are frames that break the layout, one per rule.
func hostileResponseFrames() map[string]frameOf {
	a := hostileNote
	note := okHead().dict(0, "note", "id", "n")
	good := goodNoteFrame()
	// image starts an atom of type 0 whose record image the case spells out.
	image := frameOf(appendAddr(note.molecule(a, 1).uvarint(0), uint64(a))).add(0, 2)
	return map[string]frameOf{
		"empty":                     {},
		"truncated head":            okHead()[:3],
		"unknown entry":             okHead().add(9),
		"unknown type ordinal":      note.molecule(a, 1).atom(1, a, atom.Ident(a), atom.Int(5)),
		"ordinal before dictionary": okHead().molecule(a, 1).atom(0, a, atom.Ident(a), atom.Int(5)),
		"redefined live ordinal":    note.dict(0, "other", "id"),
		"skipped ordinal":           note.dict(2, "other", "id"),
		"truncated record image":    good[:len(good)-3],
		"attribute count mismatch":  note.molecule(a, 1).atom(0, a, atom.Ident(a)),
		"unknown value kind":        image.add(99, 0),
		"atom count beyond frame":   note.molecule(a, 1<<40),
		"string beyond frame":       frameOf{flagOK}.uvarint(0, 0, 1<<30),
		"inserted count beyond":     frameOf{flagOK}.uvarint(0, 0).str("").str("").str("").uvarint(1 << 50),
		"dictionary attrs beyond":   okHead().add(entryType).uvarint(0).str("t").uvarint(1 << 33),
		"bad diagnostics":           okHead().add(entryDiag, '{'),
		"container count beyond":    image.add(byte(atom.KindNull), byte(atom.KindSet), 0xff, 0xff, 0xff, 0xff),
		"container nested too deep": image.add(byte(atom.KindNull)).add(deepList(100)...),
		"varint overflow":           frameOf{flagOK, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01},
		"count overflows int":       frameOf{flagOK, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01},
		"unknown entry after atoms": good.add(0xee),
	}
}

// TestDecoderRejectsHostileFrames: frames that break the layout yield an
// error, never a panic, and no molecule of the entry that broke it.
func TestDecoderRejectsHostileFrames(t *testing.T) {
	var dec decoder
	var resp Response
	if err := dec.response(goodNoteFrame(), &resp); err != nil {
		t.Fatalf("well-formed frame: %v", err)
	}
	if len(resp.Molecules) != 1 || resp.Molecules[0].Atoms[0].Values["n"] != "5" || resp.Molecules[0].Atoms[0].Values["id"] != "@3.9" {
		t.Fatalf("well-formed frame decoded to %+v", resp.Molecules)
	}
	for name, frame := range hostileResponseFrames() {
		var dec decoder
		var resp Response
		err := dec.response(frame, &resp)
		if !errors.Is(err, errMalformed) {
			t.Errorf("%s: error %v, want a malformed-frame error", name, err)
		}
		if len(resp.Molecules) != 0 && name != "unknown entry after atoms" {
			t.Errorf("%s: %d molecules came out of a rejected frame", name, len(resp.Molecules))
		}
	}
}

// deepList is the image of n LIST_OF values nested in each other.
func deepList(n int) []byte {
	var b []byte
	for i := 0; i < n; i++ {
		b = append(b, byte(atom.KindList), 0, 0, 0, 1)
	}
	return append(b, byte(atom.KindNull))
}

// hostileRequests are request frame bodies that break the layout.
var hostileRequests = map[string][]byte{
	"unknown op":       {99, 0, 0},
	"op zero":          {0, 0, 0},
	"empty body":       {},
	"truncated varint": {byte(OpGetAtom), 0x80},
	"huge bound":       {byte(OpSlow), 0, 0xff, 0xff, 0xff, 0xff, 0x7f},
}

// TestServerRejectsHostileRequests: a request frame that breaks the layout
// closes the connection; the server neither panics nor serves it.
func TestServerRejectsHostileRequests(t *testing.T) {
	db, srv := startServer(t)
	panics := db.Metrics().Counter("wire_panics")
	frames := map[string][]byte{"length above maxFrame": {0xff, 0xff, 0xff, 0xff}}
	for name, body := range hostileRequests {
		frames[name] = append([]byte{0, 0, 0, byte(len(body))}, body...)
	}
	for name, frame := range frames {
		conn := dialRaw(t, srv.Addr())
		if _, err := conn.Write(frame); err != nil {
			t.Fatal(err)
		}
		var resp Response
		if err := conn.ReadMsg(&resp); err == nil {
			t.Errorf("%s: server answered %+v, want the connection closed", name, resp)
		}
		conn.Close()
	}
	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Ping(); err != nil {
		t.Fatalf("server unusable after hostile requests: %v", err)
	}
	if got := db.Metrics().Counter("wire_panics"); got != panics {
		t.Fatalf("wire_panics went from %d to %d", panics, got)
	}
}

// TestClientDropsConnOnHostileFrame: a malformed response is a transport
// failure to the client: it drops the connection and retries an idempotent
// op on a fresh one.
func TestClientDropsConnOnHostileFrame(t *testing.T) {
	_, srv := startServer(t)
	first := true
	c, err := DialConfig(srv.Addr(), ClientConfig{
		BackoffBase: 1,
		Dialer:      corruptFirstConn(&first),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	mols, err := c.Checkout(`SELECT ALL FROM brep-face-edge-point WHERE brep_no = 1`)
	if err != nil || len(mols) != 1 {
		t.Fatalf("checkout through a corrupted first connection: %d molecules, %v", len(mols), err)
	}
	if retries, reconnects := c.Retries(); retries == 0 || reconnects == 0 {
		t.Fatalf("retries=%d reconnects=%d, want both > 0", retries, reconnects)
	}
}

// corruptFirstConn dials for real, but the first connection answers every
// request with a frame that breaks the layout.
func corruptFirstConn(first *bool) func(address string) (net.Conn, error) {
	return func(address string) (net.Conn, error) {
		conn, err := net.Dial("tcp", address)
		if err != nil || !*first {
			return conn, err
		}
		*first = false
		return &cannedConn{Conn: conn, answer: bytes.NewReader([]byte{0, 0, 0, 2, flagOK, 0x80})}, nil
	}
}

type cannedConn struct {
	net.Conn
	answer *bytes.Reader
}

func (c *cannedConn) Read(p []byte) (int, error) { return c.answer.Read(p) }
