package mql

import (
	"fmt"
	"strings"

	"prima/internal/access/atom"
)

// Statement is one statement of a script as the lexer sees it, before any
// parsing. The statements the data system prepares — SELECT, DELETE,
// MODIFY, and the SELECT under an EXPLAIN — carry a Shape: the statement's
// token stream with every scalar literal (integer, real, string, address; a
// leading '-' folded into a nonzero number) replaced by a placeholder tagged
// with the literal's kind. Params holds the literals' values in token
// order: parameter i is Params[i-1], and the Lit the parser builds from it
// carries Param i.
//
// The parser decides on token kinds and words alone, never on a literal's
// value, so two statements of one shape parse to the same tree up to the
// values of their literals. Literals the parser consumes as structure — the
// n of EXISTS_AT_LEAST (n) and EXISTS_EXACTLY (n), the level of m(n).attr,
// the elements of a {…}, […] or (…) constructor — are parameters of the
// shape but not Lit nodes of the tree (see WalkLits); whoever reuses a tree
// across a shape must compare their values. A negated zero keeps its '-' in
// the shape, so a structural 0 and a -0 never share one.
type Statement struct {
	Verb    string // the leading keyword: SELECT, DELETE, MODIFY, EXPLAIN, INSERT, …
	Analyze bool   // EXPLAIN ANALYZE
	// Shape is nil for statements that are not prepared. For EXPLAIN it is
	// the shape of the SELECT it explains, so both share one prepared plan.
	Shape  []byte
	Params []atom.Value
	toks   []token // through the statement's ';' or the end of input
}

// Lex splits a script into its statements, skipping empty ones, and
// extracts the shape and parameters of every statement the data system
// prepares. It lexes only: a statement's syntax is checked by its Parse.
func Lex(src string) ([]Statement, error) {
	toks, err := lexAll(src)
	if err != nil {
		return nil, err
	}
	n, literals := 1, 0
	for _, t := range toks {
		switch t.kind {
		case tokSemi:
			n++
		case tokInt, tokReal, tokString, tokAddr:
			literals++
		}
	}
	out := make([]Statement, 0, n)
	var shapes []byte
	var params []atom.Value
	for start := 0; toks[start].kind != tokEOF; {
		end := start
		for toks[end].kind != tokSemi && toks[end].kind != tokEOF {
			end++
		}
		if end == start { // empty statement
			start++
			continue
		}
		st := Statement{toks: toks[start : end+1]}
		if first := toks[start]; first.kind == tokKeyword {
			st.Verb = first.text
		}
		if from, ok := st.prepared(); ok {
			if shapes == nil {
				shapes = make([]byte, 0, min(len(src)+8, 4096))
				params = make([]atom.Value, 0, min(literals, 64))
			}
			s0, p0 := len(shapes), len(params)
			shapes, params = appendShape(shapes, params, st.toks[from:len(st.toks)-1])
			st.Shape, st.Params = shapes[s0:len(shapes):len(shapes)], params[p0:len(params):len(params)]
		}
		out = append(out, st)
		if toks[end].kind == tokEOF {
			break
		}
		start = end + 1
	}
	return out, nil
}

// prepared reports whether the statement is one the data system prepares,
// and where the prepared part starts: the SELECT of an EXPLAIN [ANALYZE].
func (s *Statement) prepared() (from int, ok bool) {
	switch s.Verb {
	case "SELECT", "DELETE", "MODIFY":
		return 0, true
	case "EXPLAIN":
		from = 1
		if t := s.toks[from]; t.kind == tokKeyword && t.text == "ANALYZE" {
			s.Analyze = true
			from++
		}
		t := s.toks[from]
		return from, t.kind == tokKeyword && t.text == "SELECT"
	}
	return 0, false
}

// appendShape appends the shape of toks to shape and their literals' values
// to params. A token is its kind byte, followed by its text for words;
// kinds are below ' ' and words are made of letters, digits and '_', so the
// encoding is unambiguous. A literal is its kind byte alone.
func appendShape(shape []byte, params []atom.Value, toks []token) ([]byte, []atom.Value) {
	for i, t := range toks {
		switch t.kind {
		case tokIdent, tokKeyword:
			shape = append(shape, byte(t.kind))
			shape = append(shape, t.text...)
		case tokInt, tokReal, tokString, tokAddr:
			neg := i > 0 && toks[i-1].kind == tokMinus
			shape = append(shape, byte(t.kind))
			params = append(params, literalValue(t, neg))
		case tokMinus:
			if i+1 < len(toks) && foldsMinus(toks[i+1]) {
				continue
			}
			shape = append(shape, byte(t.kind))
		default:
			shape = append(shape, byte(t.kind))
		}
	}
	return shape, params
}

// foldsMinus reports whether a '-' before t folds into t's parameter: t is
// a nonzero number.
func foldsMinus(t token) bool {
	return (t.kind == tokInt && t.i != 0) || (t.kind == tokReal && t.f != 0)
}

// Parse parses the statement. Its literals carry their parameter ordinals.
func (s *Statement) Parse() (Stmt, error) {
	p := &parser{toks: s.toks}
	st, err := p.statement()
	if err != nil {
		return nil, err
	}
	if k := p.peek().kind; k != tokSemi && k != tokEOF {
		return nil, p.errf("expected ';' or end of input, got %s", k)
	}
	return st, nil
}

// ShapeText renders a shape as MQL text with its parameters as $1, $2, ….
func ShapeText(shape []byte) string {
	var b strings.Builder
	param := 0
	glue := true // no space before the next token
	for i := 0; i < len(shape); {
		k := tokKind(shape[i])
		i++
		var text string
		switch k {
		case tokIdent, tokKeyword:
			j := i
			for j < len(shape) && shape[j] >= ' ' {
				j++
			}
			text, i = string(shape[i:j]), j
		case tokInt, tokReal, tokString, tokAddr:
			param++
			text = fmt.Sprintf("$%d", param)
		case tokMinus, tokDot:
			b.WriteString(k.String()[1:2])
			glue = true
			continue
		case tokRParen, tokRBrace, tokRBrack, tokComma:
			glue = true
			text = k.String()[1:2]
		default:
			text = strings.Trim(k.String(), "'")
		}
		if !glue {
			b.WriteByte(' ')
		}
		b.WriteString(text)
		glue = k == tokLParen || k == tokLBrace || k == tokLBrack
	}
	return b.String()
}

// WalkLits calls fn for every Lit node of a prepared statement — a SELECT,
// DELETE, MODIFY or EXPLAIN — in source order.
func WalkLits(s Stmt, fn func(*Lit)) {
	var expr func(Expr)
	expr = func(x Expr) {
		switch v := x.(type) {
		case *Lit:
			fn(v)
		case *Binary:
			expr(v.L)
			expr(v.R)
		case *Not:
			expr(v.X)
		case *Compare:
			expr(v.L)
			expr(v.R)
		case *Quant:
			expr(v.Cond)
		}
	}
	var sel func(*Select)
	sel = func(q *Select) {
		for _, it := range q.Items {
			if it.Sub != nil {
				sel(it.Sub)
			}
		}
		expr(q.Where)
	}
	switch v := s.(type) {
	case *Select:
		sel(v)
	case *Explain:
		sel(v.Query)
	case *Delete:
		expr(v.Where)
	case *Modify:
		for _, as := range v.Set {
			expr(as.Value)
		}
		expr(v.Where)
	}
}
