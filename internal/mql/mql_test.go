package mql

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"prima/internal/access/atom"
	"prima/internal/catalog"
)

// fig23DDL is the Fig. 2.3 schema verbatim (modulo OCR fixes).
const fig23DDL = `
CREATE ATOM_TYPE solid
  ( solid_id    : IDENTIFIER,
    solid_no    : INTEGER,
    description : CHAR_VAR,
    sub         : SET_OF (REF_TO (solid.super)),
    super       : SET_OF (REF_TO (solid.sub)),
    brep        : REF_TO (brep.solid) )
  KEYS_ARE (solid_no);

CREATE ATOM_TYPE brep
  ( brep_id : IDENTIFIER,
    brep_no : INTEGER,
    hull    : HULL_DIM(3),
    solid   : REF_TO (solid.brep),
    faces   : SET_OF (REF_TO (face.brep)) (4,VAR),
    edges   : SET_OF (REF_TO (edge.brep)) (6,VAR),
    points  : SET_OF (REF_TO (point.brep)) (4,VAR) )
  KEYS_ARE (brep_no);

CREATE ATOM_TYPE face
  ( face_id    : IDENTIFIER,
    square_dim : REAL,
    border     : SET_OF (REF_TO (edge.face)) (3,VAR),
    crosspoint : SET_OF (REF_TO (point.face)) (3,VAR),
    brep       : REF_TO (brep.faces) );

CREATE ATOM_TYPE edge
  ( edge_id  : IDENTIFIER,
    length   : REAL,
    boundary : SET_OF (REF_TO (point.line)) (2,VAR),
    face     : SET_OF (REF_TO (face.border)) (2,VAR),
    brep     : REF_TO (brep.edges) );

CREATE ATOM_TYPE point
  ( point_id  : IDENTIFIER,
    placement : RECORD
                  x_coord, y_coord, z_coord : REAL,
                END,
    line : SET_OF (REF_TO (edge.boundary)) (1,VAR),
    face : SET_OF (REF_TO (face.crosspoint)) (1,VAR),
    brep : REF_TO (brep.points) );

DEFINE MOLECULE TYPE edge_obj   FROM edge - point;
DEFINE MOLECULE TYPE face_obj   FROM face - edge_obj;
DEFINE MOLECULE TYPE brep_obj   FROM brep - face_obj;
DEFINE MOLECULE TYPE piece_list FROM solid.sub - solid (RECURSIVE);
`

func TestLexerBasics(t *testing.T) {
	toks, err := lexAll(`SELECT ALL FROM brep-face WHERE brep_no = 1713 (* qualification *) AND x <> 1.9E4 -- tail`)
	if err != nil {
		t.Fatalf("lexAll: %v", err)
	}
	var kinds []tokKind
	for _, tk := range toks {
		kinds = append(kinds, tk.kind)
	}
	want := []tokKind{tokKeyword, tokKeyword, tokKeyword, tokIdent, tokMinus, tokIdent,
		tokKeyword, tokIdent, tokEQ, tokInt, tokKeyword, tokIdent, tokNE, tokReal, tokEOF}
	if len(kinds) != len(want) {
		t.Fatalf("kinds = %v, want %v", kinds, want)
	}
	for i := range want {
		if kinds[i] != want[i] {
			t.Fatalf("token %d = %v, want %v", i, kinds[i], want[i])
		}
	}
	// Literal payloads.
	if toks[9].i != 1713 {
		t.Fatalf("int literal = %d", toks[9].i)
	}
	if toks[13].f != 1.9e4 {
		t.Fatalf("real literal = %g", toks[13].f)
	}
}

func TestLexerStringsAndAddrs(t *testing.T) {
	toks, err := lexAll(`'it''s' @3.17`)
	if err != nil {
		t.Fatalf("lexAll: %v", err)
	}
	if toks[0].kind != tokString || toks[0].text != "it's" {
		t.Fatalf("string = %+v", toks[0])
	}
	if toks[1].kind != tokAddr || toks[1].i != 3<<48|17 {
		t.Fatalf("addr = %+v", toks[1])
	}
	if _, err := lexAll("'unterminated"); !errors.Is(err, ErrSyntax) {
		t.Fatal("unterminated string accepted")
	}
	if _, err := lexAll("@banana"); !errors.Is(err, ErrSyntax) {
		t.Fatal("bad addr literal accepted")
	}
	if _, err := lexAll("(* never closed"); !errors.Is(err, ErrSyntax) {
		t.Fatal("unterminated comment accepted")
	}
	if _, err := lexAll("SELECT ? FROM x"); !errors.Is(err, ErrSyntax) {
		t.Fatal("bad character accepted")
	}
}

func TestParseFig23DDL(t *testing.T) {
	stmts, err := Parse(fig23DDL)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if len(stmts) != 9 {
		t.Fatalf("parsed %d statements, want 9", len(stmts))
	}
	solid, ok := stmts[0].(*CreateAtomType)
	if !ok || solid.Name != "solid" {
		t.Fatalf("stmt 0 = %T %v", stmts[0], stmts[0])
	}
	if len(solid.Attrs) != 6 || solid.Keys[0] != "solid_no" {
		t.Fatalf("solid: %d attrs keys=%v", len(solid.Attrs), solid.Keys)
	}
	if solid.Attrs[3].Type.Kind != "SET_OF" || solid.Attrs[3].Type.Elem.RefType != "solid" {
		t.Fatalf("solid.sub type = %+v", solid.Attrs[3].Type)
	}

	brep := stmts[1].(*CreateAtomType)
	if brep.Attrs[2].Type.Kind != "ARRAY_OF" || brep.Attrs[2].Type.ArrayLen != 6 || brep.Attrs[2].Type.HullDim != 3 {
		t.Fatalf("HULL_DIM(3) lowering = %+v", brep.Attrs[2].Type)
	}
	if brep.Attrs[4].Type.Min != 4 || brep.Attrs[4].Type.Max != -1 {
		t.Fatalf("faces cardinality = %+v", brep.Attrs[4].Type)
	}

	point := stmts[4].(*CreateAtomType)
	if point.Attrs[1].Type.Kind != "RECORD" || len(point.Attrs[1].Type.Fields) != 3 {
		t.Fatalf("placement RECORD = %+v", point.Attrs[1].Type)
	}

	pl := stmts[8].(*DefineMoleculeType)
	if pl.Name != "piece_list" || pl.From.EdgeAttr != "sub" {
		t.Fatalf("piece_list = %+v", pl.From)
	}
	if len(pl.From.Children) != 1 || !pl.From.Children[0].Recursive {
		t.Fatalf("piece_list children = %+v", pl.From.Children)
	}
}

// parseOne parses a text of exactly one statement.
func parseOne(src string) (Stmt, error) {
	stmts, err := Parse(src)
	if err == nil && len(stmts) != 1 {
		err = fmt.Errorf("%w: expected exactly one statement, got %d", ErrSyntax, len(stmts))
	}
	if err != nil {
		return nil, err
	}
	return stmts[0], nil
}

func TestParseTable21Queries(t *testing.T) {
	// (a) vertical access to network molecules.
	s, err := parseOne(`SELECT ALL FROM brep-face-edge-point WHERE brep_no = 1713`)
	if err != nil {
		t.Fatalf("(a): %v", err)
	}
	qa := s.(*Select)
	if !qa.All || qa.From.Name != "brep" {
		t.Fatalf("(a) = %+v", qa)
	}
	// Chain depth 4.
	depth := 0
	for n := qa.From; n != nil; {
		depth++
		if len(n.Children) == 0 {
			break
		}
		n = n.Children[0]
	}
	if depth != 4 {
		t.Fatalf("(a) chain depth = %d", depth)
	}
	cmp := qa.Where.(*Compare)
	if cmp.Op != CmpEQ || cmp.L.(*AttrRef).Parts[0] != "brep_no" || cmp.R.(*Lit).V.I != 1713 {
		t.Fatalf("(a) where = %+v", qa.Where)
	}

	// (b) vertical access to recursive molecules with seed qualification.
	s, err = parseOne(`SELECT ALL FROM piece_list WHERE piece_list(0).solid_no = 4711`)
	if err != nil {
		t.Fatalf("(b): %v", err)
	}
	qb := s.(*Select)
	ref := qb.Where.(*Compare).L.(*AttrRef)
	if !ref.HasLevel || ref.Level != 0 || ref.Parts[0] != "piece_list" || ref.Parts[1] != "solid_no" {
		t.Fatalf("(b) seed ref = %+v", ref)
	}

	// (c) horizontal access with unqualified projection.
	s, err = parseOne(`SELECT solid_no, description FROM solid WHERE sub = EMPTY`)
	if err != nil {
		t.Fatalf("(c): %v", err)
	}
	qc := s.(*Select)
	if len(qc.Items) != 2 || qc.Items[0].Name != "solid_no" {
		t.Fatalf("(c) items = %+v", qc.Items)
	}
	if _, ok := qc.Where.(*Compare).R.(*EmptyLit); !ok {
		t.Fatalf("(c) where = %+v", qc.Where)
	}

	// (d) branching FROM, quantifier, qualified projection.
	s, err = parseOne(`
	  SELECT edge, (point,
	         face := SELECT face_id, square_dim
	                 FROM face
	                 WHERE square_dim > 1.9E4)
	  FROM brep-edge-(face, point)
	  WHERE brep_no = 1713
	  AND EXISTS_AT_LEAST (2) edge: edge.length > 1.0E2`)
	if err != nil {
		t.Fatalf("(d): %v", err)
	}
	qd := s.(*Select)
	if len(qd.Items) != 3 {
		t.Fatalf("(d) items = %d", len(qd.Items))
	}
	if qd.Items[2].Sub == nil || qd.Items[2].Qualifier != "face" {
		t.Fatalf("(d) qualified projection = %+v", qd.Items[2])
	}
	sub := qd.Items[2].Sub
	if len(sub.Items) != 2 || sub.From.Name != "face" {
		t.Fatalf("(d) sub-select = %+v", sub)
	}
	// FROM structure: brep -> edge -> (face, point).
	if qd.From.Name != "brep" || qd.From.Children[0].Name != "edge" || len(qd.From.Children[0].Children) != 2 {
		t.Fatalf("(d) FROM = %+v", qd.From)
	}
	// Quantifier.
	and := qd.Where.(*Binary)
	q := and.R.(*Quant)
	if q.Kind != "EXISTS_AT_LEAST" || q.N != 2 || q.Var != "edge" {
		t.Fatalf("(d) quantifier = %+v", q)
	}
	if q.Cond.(*Compare).L.(*AttrRef).Parts[1] != "length" {
		t.Fatalf("(d) quantifier cond = %+v", q.Cond)
	}
}

func TestParseDML(t *testing.T) {
	s, err := parseOne(`INSERT INTO solid (solid_no, description, sub) VALUES (1, 'base', {@1.2, @1.3})`)
	if err != nil {
		t.Fatalf("INSERT: %v", err)
	}
	ins := s.(*Insert)
	if ins.AtomType != "solid" || len(ins.Rows) != 1 || len(ins.Rows[0]) != 3 {
		t.Fatalf("INSERT = %+v", ins)
	}
	set, _ := LitValue(ins.Rows[0][2])
	if set.K != atom.KindSet || set.Len() != 2 {
		t.Fatalf("set literal = %v", set)
	}

	s, err = parseOne(`MODIFY solid SET description = 'changed', solid_no = -5 WHERE solid_no = 1`)
	if err != nil {
		t.Fatalf("MODIFY: %v", err)
	}
	mod := s.(*Modify)
	if len(mod.Set) != 2 {
		t.Fatalf("MODIFY = %+v", mod)
	}
	v, _ := LitValue(mod.Set[1].Value)
	if v.I != -5 {
		t.Fatalf("negative literal = %v", v)
	}

	s, err = parseOne(`DELETE FROM brep-face WHERE brep_no = 9`)
	if err != nil {
		t.Fatalf("DELETE: %v", err)
	}
	del := s.(*Delete)
	if del.From.Name != "brep" || del.Where == nil {
		t.Fatalf("DELETE = %+v", del)
	}

	s, err = parseOne(`CONNECT @1.1 TO @1.2 VIA sub`)
	if err != nil {
		t.Fatalf("CONNECT: %v", err)
	}
	con := s.(*Connect)
	if con.Via != "sub" {
		t.Fatalf("CONNECT = %+v", con)
	}
	if _, err = parseOne(`DISCONNECT @1.1 FROM @1.2 VIA sub`); err != nil {
		t.Fatalf("DISCONNECT: %v", err)
	}
}

func TestParseLDL(t *testing.T) {
	stmts, err := Parse(`
	  CREATE ACCESS PATH solid_no_idx ON solid (solid_no) USING BTREE;
	  CREATE ACCESS PATH geo ON face (square_dim, face_id) USING GRID;
	  CREATE SORT ORDER edge_len ON edge (length DESC);
	  CREATE PARTITION solid_names ON solid (solid_no, description);
	  CREATE ATOM_CLUSTER brep_cluster ON brep-face-edge-point;
	  DROP solid_no_idx;
	  CHECK INTEGRITY solid;
	  PROPAGATE DEFERRED;
	`)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if len(stmts) != 8 {
		t.Fatalf("parsed %d statements", len(stmts))
	}
	ap := stmts[0].(*CreateAccessPath)
	if ap.Using != "BTREE" || ap.Attrs[0] != "solid_no" {
		t.Fatalf("access path = %+v", ap)
	}
	so := stmts[2].(*CreateSortOrder)
	if !so.Desc[0] {
		t.Fatalf("sort order = %+v", so)
	}
	cl := stmts[4].(*CreateCluster)
	if cl.From.Name != "brep" {
		t.Fatalf("cluster = %+v", cl)
	}
	drop := stmts[5].(*Drop)
	if drop.Kind != "LDL" || drop.Name != "solid_no_idx" {
		t.Fatalf("drop = %+v", drop)
	}
	if stmts[6].(*CheckIntegrity).AtomType != "solid" {
		t.Fatalf("check = %+v", stmts[6])
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		`SELECT`,
		`SELECT ALL`,
		`SELECT ALL FROM`,
		`SELECT ALL FROM a WHERE`,
		`INSERT INTO x (a) VALUES (1, 2)`, // arity
		`CREATE ATOM_TYPE ( a : INTEGER )`,
		`CREATE ATOM_TYPE x ( a : BANANA )`,
		`DEFINE MOLECULE TYPE m FROM`,
		`MODIFY SET a = 1`,
		`FOO BAR`,
		`SELECT x FROM a WHERE b >`,
		`SELECT x FROM a WHERE EXISTS_AT_LEAST edge: b = 1`, // missing (n)
		`SELECT ALL FROM a-(b,c) (RECURSIVE)`,               // recursive needs 1 child
		// Nesting is bounded: these used to recurse until the goroutine
		// stack limit killed the process.
		`SELECT ALL FROM a WHERE ` + strings.Repeat(`(`, 1<<20) + `x = 1`,
		`SELECT ALL FROM a WHERE ` + strings.Repeat(`NOT `, 1<<12) + `x = 1`,
		`SELECT ALL FROM a WHERE ` + strings.Repeat(`EXISTS a: `, 1<<12) + `x = 1`,
		`SELECT ALL FROM a` + strings.Repeat(`-(b`, 1<<12),
		`SELECT ` + strings.Repeat(`(`, 1<<12) + `a FROM a`,
		`INSERT INTO a (x) VALUES (` + strings.Repeat(`{`, 1<<12),
		`CREATE ATOM_TYPE x ( a : ` + strings.Repeat(`SET_OF (`, 1<<12),
	}
	for _, src := range bad {
		if _, err := Parse(src); !errors.Is(err, ErrSyntax) {
			t.Errorf("Parse(%.60q) = %v, want ErrSyntax", src, err)
		}
	}
}

func TestLowerFig23ToCatalog(t *testing.T) {
	stmts, err := Parse(fig23DDL)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	schema := catalog.NewSchema()
	for _, s := range stmts {
		switch st := s.(type) {
		case *CreateAtomType:
			at, err := LowerAtomType(st)
			if err != nil {
				t.Fatalf("LowerAtomType(%s): %v", st.Name, err)
			}
			if err := schema.AddAtomType(at); err != nil {
				t.Fatalf("AddAtomType(%s): %v", st.Name, err)
			}
		case *DefineMoleculeType:
			m, err := LowerMolecule(schema, st.Name, st.From)
			if err != nil {
				t.Fatalf("LowerMolecule(%s): %v", st.Name, err)
			}
			if err := schema.DefineMoleculeType(m); err != nil {
				t.Fatalf("DefineMoleculeType(%s): %v", st.Name, err)
			}
		}
	}
	if err := schema.ResolveAssociations(); err != nil {
		t.Fatalf("ResolveAssociations: %v", err)
	}

	// Molecule type inlining: brep_obj = brep-face-edge-point.
	bo, ok := schema.MoleculeType("brep_obj")
	if !ok {
		t.Fatal("brep_obj missing")
	}
	types := bo.AtomTypes()
	want := []string{"brep", "face", "edge", "point"}
	if len(types) != 4 {
		t.Fatalf("brep_obj types = %v", types)
	}
	for i := range want {
		if types[i] != want[i] {
			t.Fatalf("brep_obj types = %v, want %v", types, want)
		}
	}
	// piece_list is recursive with Via=sub.
	pl, _ := schema.MoleculeType("piece_list")
	if !pl.IsRecursive() || pl.Root.Children[0].Via != "sub" {
		t.Fatalf("piece_list = %+v", pl.Root.Children[0])
	}

	// Cardinalities arrived in the catalog.
	brep, _ := schema.AtomType("brep")
	faces, _ := brep.Attr("faces")
	if faces.Type.MinCard != 4 || faces.Type.MaxCard != catalog.VarCard {
		t.Fatalf("faces spec = %+v", faces.Type)
	}
	// HULL_DIM(3) became ARRAY_OF(REAL, 6).
	hull, _ := brep.Attr("hull")
	if hull.Type.Kind != atom.KindArray || hull.Type.ArrayLen != 6 {
		t.Fatalf("hull spec = %+v", hull.Type)
	}
}

func TestLowerMoleculeErrors(t *testing.T) {
	schema := catalog.NewSchema()
	a, _ := catalog.NewAtomType("a", []catalog.Attribute{{Name: "id", Type: catalog.SpecIdent()}}, nil)
	schema.AddAtomType(a)
	if _, err := LowerMolecule(schema, "", &MolComponent{Name: "ghost"}); !errors.Is(err, catalog.ErrUnknownType) {
		t.Fatalf("unknown component = %v", err)
	}
	// No association between a and a.
	if _, err := LowerMolecule(schema, "", &MolComponent{
		Name: "a", Children: []*MolComponent{{Name: "a"}},
	}); !errors.Is(err, catalog.ErrBadMolecule) {
		t.Fatalf("no association = %v", err)
	}
}

func TestRoundTripLongScript(t *testing.T) {
	// A longer script exercising every statement kind in one parse.
	var sb strings.Builder
	sb.WriteString(fig23DDL)
	sb.WriteString(`
	  INSERT INTO solid (solid_no, description) VALUES (1, 'one'), (2, 'two');
	  SELECT ALL FROM brep_obj;
	  SELECT solid_no FROM solid WHERE NOT (solid_no < 5 OR solid_no > 10) AND description <> 'x';
	  MODIFY solid SET description = 'y' WHERE solid_no = 2;
	  DELETE FROM solid WHERE solid_no = 1;
	`)
	stmts, err := Parse(sb.String())
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if len(stmts) != 14 {
		t.Fatalf("parsed %d statements, want 14", len(stmts))
	}
}

// TestStatementTokenBudget: a statement over the budget is refused while it
// is still being lexed, with an error that names the limit; a script of many
// statements and a statement with a huge literal are not; and the longest
// statements the benchmark and the load generator send — bench/spec.go's
// point and bulk checkouts, the MODIFY a wire client stages per face at
// checkin, internal/load's four shapes, each with the widest numbers they can
// carry — stay far below it.
func TestStatementTokenBudget(t *testing.T) {
	start := time.Now()
	_, err := Parse(overlongStatement())
	if !errors.Is(err, ErrSyntax) || !strings.Contains(err.Error(), fmt.Sprintf("longer than %d tokens", maxStatementTokens)) {
		t.Fatalf("overlong statement: %v", err)
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Fatalf("refusing the overlong statement took %v", d)
	}
	if _, err := Parse(strings.Repeat("SELECT ALL FROM x WHERE a = 1;\n", maxStatementTokens/4)); err != nil {
		t.Fatalf("a script of many short statements: %v", err)
	}
	if _, err := Parse("INSERT INTO x (s) VALUES ('" + strings.Repeat("b", 4*maxStatementTokens) + "')"); err != nil {
		t.Fatalf("a statement with one long literal: %v", err)
	}
	for _, stmt := range []string{
		"SELECT ALL FROM brep-face-edge-point WHERE brep_no = 9223372036854775807",
		"SELECT ALL FROM brep-face-edge-point",
		"MODIFY face SET square_dim = 1.7976931348623157e+308 WHERE face_id = @65535.140737488355327",
		"INSERT INTO part (serial, grade) VALUES (9223372036854775807, 0)",
		"SELECT ALL FROM part WHERE serial = 9223372036854775807",
		"SELECT ALL FROM part WHERE serial >= 9223372036854775807 AND serial < 9223372036854775807",
	} {
		toks, err := lexAll(stmt)
		if err != nil {
			t.Fatalf("%s: %v", stmt, err)
		}
		if _, err := Parse(stmt); err != nil {
			t.Fatalf("%s: %v", stmt, err)
		}
		if len(toks) > maxStatementTokens/1000 {
			t.Errorf("%s: %d tokens, within 1000x of the budget %d", stmt, len(toks), maxStatementTokens)
		}
	}
}
