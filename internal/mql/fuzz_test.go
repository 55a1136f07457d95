package mql

import (
	"errors"
	"reflect"
	"strings"
	"testing"
	"time"
)

// overlongStatement is one statement of just over maxStatementTokens tokens.
func overlongStatement() string {
	return "SELECT ALL FROM x WHERE " + strings.Repeat("a=1 AND ", maxStatementTokens/4) + "a=1"
}

// FuzzParse feeds arbitrary bytes to the parser: MQL text arrives from wire
// clients, so Parse must return statements or an ErrSyntax error — never
// panic, never hang. What parses is pushed through the lowering the engine
// applies to a parsed statement before touching the schema (LowerAtomType,
// LitValue), which must hold to the same rule. The seed corpus under
// testdata/fuzz/FuzzParse holds the Fig. 2.3 DDL, the Table 2.1 queries, the
// DML and LDL statements of mql_test.go, and hostile inputs — among them the
// deep nestings that overflowed the stack before the parser bounded its
// recursion (maxNesting); a statement just over the token budget
// (maxStatementTokens) is seeded below, being too long for a file. What
// parses must also keep the shape contract (checkShapes). CI runs the target
// for 20 s:
//
//	go test ./internal/mql -run '^$' -fuzz FuzzParse -fuzztime 20s
func FuzzParse(f *testing.F) {
	f.Add([]byte(overlongStatement()))
	f.Fuzz(func(t *testing.T, src []byte) {
		start := time.Now()
		stmts, err := Parse(string(src))
		if d := time.Since(start); d > 5*time.Second {
			t.Fatalf("parsing %d bytes took %v", len(src), d)
		}
		if err != nil {
			if !errors.Is(err, ErrSyntax) {
				t.Fatalf("error is not a syntax error: %v", err)
			}
			return
		}
		checkShapes(t, string(src), stmts)
		for _, s := range stmts {
			switch v := s.(type) {
			case nil:
				t.Fatal("Parse returned a nil statement without an error")
			case *CreateAtomType:
				_, _ = LowerAtomType(v) // may reject the type, must not panic
			case *Insert:
				for _, row := range v.Rows {
					if len(row) != len(v.Attrs) {
						t.Fatalf("INSERT row of %d values for %d attributes", len(row), len(v.Attrs))
					}
					for _, e := range row {
						_, _ = LitValue(e)
					}
				}
			case *Modify:
				for _, as := range v.Set {
					_, _ = LitValue(as.Value)
				}
			}
		}
	})
}

// checkShapes checks the shape contract of Statement on a script that
// parses to stmts: Lex splits it into the same statements; the parameters
// Lex extracts are the values of the tree's literals; a script changed only
// at literals lexes to the same shapes; and changed only at the literals the
// tree carries as Lit nodes, it parses to the tree of the original with the
// new parameters substituted — what binding a prepared plan relies on.
func checkShapes(t *testing.T, src string, stmts []Stmt) {
	lexed, err := Lex(src)
	if err != nil || len(lexed) != len(stmts) {
		t.Fatalf("Lex: %d statements, %v; Parse: %d statements", len(lexed), err, len(stmts))
	}
	slotted := map[[2]int]bool{} // statement, parameter → a Lit node of the tree
	for i := range lexed {
		tree, err := lexed[i].Parse()
		if err != nil || !reflect.DeepEqual(tree, stmts[i]) {
			t.Fatalf("statement %d parses alone to another tree (%v)", i+1, err)
		}
		st := &lexed[i]
		WalkLits(tree, func(l *Lit) {
			if l.Param == 0 {
				return
			}
			slotted[[2]int{i, l.Param}] = true
			if st.Shape != nil && !reflect.DeepEqual(l.V, st.Params[l.Param-1]) {
				t.Fatalf("statement %d: literal %d is %v, its parameter %v", i+1, l.Param, l.V, st.Params[l.Param-1])
			}
		})
	}
	all := mutateLiterals(t, src, func(int, int) bool { return true })
	lexedAll, err := Lex(all)
	if err != nil || len(lexedAll) != len(lexed) {
		t.Fatalf("literals changed: %d statements, %v\n%s", len(lexedAll), err, all)
	}
	for i := range lexed {
		if string(lexedAll[i].Shape) != string(lexed[i].Shape) {
			t.Fatalf("statement %d: changing literals changed the shape\n%q\n%q", i+1, src, all)
		}
	}
	some := mutateLiterals(t, src, func(stmt, param int) bool { return slotted[[2]int{stmt, param}] })
	lexedSome, err := Lex(some)
	if err != nil || len(lexedSome) != len(lexed) {
		t.Fatalf("Lit values changed: %d statements, %v\n%s", len(lexedSome), err, some)
	}
	for i := range lexed {
		if lexed[i].Shape == nil {
			continue
		}
		want, err := lexedSome[i].Parse()
		if err != nil {
			t.Fatalf("statement %d no longer parses with other Lit values: %v\n%s", i+1, err, some)
		}
		bound, _ := lexed[i].Parse()
		params := lexedSome[i].Params
		WalkLits(bound, func(l *Lit) {
			if l.Param > 0 {
				l.V = params[l.Param-1]
			}
		})
		if !reflect.DeepEqual(bound, want) {
			t.Fatalf("statement %d: binding the changed parameters does not give the changed statement's tree\n%q\n%q", i+1, src, some)
		}
	}
}

// mutateLiterals rewrites src with each scalar literal for which change
// (statement index, parameter ordinal) holds replaced by another value of
// its kind: nonzero, so a folded '-' stays folded; a negated zero is kept,
// its '-' being part of the shape.
func mutateLiterals(t *testing.T, src string, change func(stmt, param int) bool) string {
	var b strings.Builder
	l := newLexer(src)
	last, stmt, param := 0, 0, 0
	var prev token
	for {
		if err := l.skipSpace(); err != nil {
			t.Fatalf("relex: %v", err)
		}
		start := l.pos
		tok, err := l.next()
		if err != nil {
			t.Fatalf("relex: %v", err)
		}
		var repl string
		switch tok.kind {
		case tokEOF:
			b.WriteString(src[last:])
			return b.String()
		case tokSemi:
			stmt, param = stmt+1, 0
		case tokInt:
			param++
			repl = "7"
		case tokReal:
			param++
			repl = "7.5"
		case tokString:
			param++
			repl = "'q'"
		case tokAddr:
			param++
			repl = "@7.7"
		}
		if repl != "" && change(stmt, param) && !(prev.kind == tokMinus && !foldsMinus(tok)) {
			b.WriteString(src[last:start])
			b.WriteString(repl)
			last = l.pos
		}
		prev = tok
	}
}
