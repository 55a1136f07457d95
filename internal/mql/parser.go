package mql

import (
	"fmt"

	"prima/internal/access/addr"
	"prima/internal/access/atom"
)

// Parser is a recursive-descent parser over the token stream.
type parser struct {
	toks  []token
	pos   int
	depth int // current nesting of recursive productions, see nest
}

// maxNesting bounds how deep the recursive productions (parentheses, NOT,
// quantifier bodies, molecule structures, constructor literals, type
// expressions, projection groups) may nest. Statements arrive from wire
// clients: without a bound, a megabyte of '(' recurses until the goroutine
// stack limit kills the process. Real statements nest a handful of levels.
const maxNesting = 200

// nest enters one level of a recursive production; the caller defers unnest.
func (p *parser) nest() error {
	p.depth++
	if p.depth > maxNesting {
		return p.errf("nesting deeper than %d levels", maxNesting)
	}
	return nil
}

func (p *parser) unnest() { p.depth-- }

// Parse parses a script of semicolon-separated statements.
func Parse(src string) ([]Stmt, error) {
	toks, err := lexAll(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	var out []Stmt
	for {
		for p.peek().kind == tokSemi {
			p.advance()
		}
		if p.peek().kind == tokEOF {
			return out, nil
		}
		s, err := p.statement()
		if err != nil {
			return nil, err
		}
		out = append(out, s)
		switch p.peek().kind {
		case tokSemi:
			p.advance()
		case tokEOF:
		default:
			return nil, p.errf("expected ';' or end of input, got %s", p.peek().kind)
		}
	}
}

func (p *parser) peek() token { return p.toks[p.pos] }
func (p *parser) peek2() token {
	if p.pos+1 < len(p.toks) {
		return p.toks[p.pos+1]
	}
	return p.toks[len(p.toks)-1]
}
func (p *parser) advance() token {
	t := p.toks[p.pos]
	if p.pos < len(p.toks)-1 {
		p.pos++
	}
	return t
}

func (p *parser) errf(format string, args ...interface{}) error {
	t := p.peek()
	return fmt.Errorf("%w: line %d col %d: %s", ErrSyntax, t.line, t.col, fmt.Sprintf(format, args...))
}

// expect consumes a token of the given kind.
func (p *parser) expect(k tokKind) (token, error) {
	if p.peek().kind != k {
		return token{}, p.errf("expected %s, got %s %q", k, p.peek().kind, p.peek().text)
	}
	return p.advance(), nil
}

// keyword consumes the given keyword.
func (p *parser) keyword(kw string) error {
	t := p.peek()
	if t.kind != tokKeyword || t.text != kw {
		return p.errf("expected %s", kw)
	}
	p.advance()
	return nil
}

// atKeyword reports whether the next token is the keyword.
func (p *parser) atKeyword(kw string) bool {
	t := p.peek()
	return t.kind == tokKeyword && t.text == kw
}

// ident consumes an identifier (also accepting non-reserved-looking
// keywords used as names is NOT allowed: names must be identifiers).
func (p *parser) ident() (string, error) {
	t, err := p.expect(tokIdent)
	if err != nil {
		return "", err
	}
	return t.text, nil
}

// statement dispatches on the leading keyword.
func (p *parser) statement() (Stmt, error) {
	t := p.peek()
	if t.kind != tokKeyword {
		return nil, p.errf("expected a statement keyword, got %q", t.text)
	}
	switch t.text {
	case "SELECT":
		return p.selectStmt()
	case "INSERT":
		return p.insertStmt()
	case "DELETE":
		return p.deleteStmt()
	case "MODIFY":
		return p.modifyStmt()
	case "CONNECT":
		return p.connectStmt(false)
	case "DISCONNECT":
		return p.connectStmt(true)
	case "CREATE":
		return p.createStmt()
	case "DEFINE":
		return p.defineMoleculeType()
	case "DROP":
		return p.dropStmt()
	case "CHECK":
		p.advance()
		if err := p.keyword("INTEGRITY"); err != nil {
			return nil, err
		}
		out := &CheckIntegrity{}
		if p.peek().kind == tokIdent {
			out.AtomType = p.advance().text
		}
		return out, nil
	case "PROPAGATE":
		p.advance()
		if p.atKeyword("DEFERRED") {
			p.advance()
		}
		return &PropagateDeferred{}, nil
	case "EXPLAIN":
		p.advance()
		out := &Explain{}
		if p.atKeyword("ANALYZE") {
			p.advance()
			out.Analyze = true
		}
		if !p.atKeyword("SELECT") {
			return nil, p.errf("EXPLAIN expects a SELECT statement, got %q", p.peek().text)
		}
		sel, err := p.selectStmt()
		if err != nil {
			return nil, err
		}
		out.Query = sel
		return out, nil
	default:
		return nil, p.errf("unexpected keyword %s", t.text)
	}
}

// --- DDL ----------------------------------------------------------------------

func (p *parser) createStmt() (Stmt, error) {
	p.advance() // CREATE
	switch {
	case p.atKeyword("ATOM_TYPE"):
		return p.createAtomType()
	case p.atKeyword("ACCESS"):
		p.advance()
		if err := p.keyword("PATH"); err != nil {
			return nil, err
		}
		name, err := p.ident()
		if err != nil {
			return nil, err
		}
		if err := p.keyword("ON"); err != nil {
			return nil, err
		}
		typ, err := p.ident()
		if err != nil {
			return nil, err
		}
		attrs, err := p.parenIdentList()
		if err != nil {
			return nil, err
		}
		out := &CreateAccessPath{Name: name, AtomType: typ, Attrs: attrs}
		if p.atKeyword("USING") {
			p.advance()
			switch {
			case p.atKeyword("BTREE"):
				out.Using = "BTREE"
			case p.atKeyword("GRID"):
				out.Using = "GRID"
			default:
				return nil, p.errf("expected BTREE or GRID")
			}
			p.advance()
		}
		return out, nil
	case p.atKeyword("SORT"):
		p.advance()
		if err := p.keyword("ORDER"); err != nil {
			return nil, err
		}
		name, err := p.ident()
		if err != nil {
			return nil, err
		}
		if err := p.keyword("ON"); err != nil {
			return nil, err
		}
		typ, err := p.ident()
		if err != nil {
			return nil, err
		}
		out := &CreateSortOrder{Name: name, AtomType: typ}
		if _, err := p.expect(tokLParen); err != nil {
			return nil, err
		}
		for {
			a, err := p.ident()
			if err != nil {
				return nil, err
			}
			desc := false
			if p.atKeyword("DESC") {
				desc = true
				p.advance()
			} else if p.atKeyword("ASC") {
				p.advance()
			}
			out.Attrs = append(out.Attrs, a)
			out.Desc = append(out.Desc, desc)
			if p.peek().kind != tokComma {
				break
			}
			p.advance()
		}
		if _, err := p.expect(tokRParen); err != nil {
			return nil, err
		}
		return out, nil
	case p.atKeyword("PARTITION"):
		p.advance()
		name, err := p.ident()
		if err != nil {
			return nil, err
		}
		if err := p.keyword("ON"); err != nil {
			return nil, err
		}
		typ, err := p.ident()
		if err != nil {
			return nil, err
		}
		attrs, err := p.parenIdentList()
		if err != nil {
			return nil, err
		}
		return &CreatePartition{Name: name, AtomType: typ, Attrs: attrs}, nil
	case p.atKeyword("ATOM_CLUSTER"):
		p.advance()
		name, err := p.ident()
		if err != nil {
			return nil, err
		}
		if err := p.keyword("ON"); err != nil {
			return nil, err
		}
		mol, err := p.molExpr()
		if err != nil {
			return nil, err
		}
		return &CreateCluster{Name: name, From: mol}, nil
	default:
		return nil, p.errf("expected ATOM_TYPE, ACCESS PATH, SORT ORDER, PARTITION or ATOM_CLUSTER after CREATE")
	}
}

func (p *parser) createAtomType() (Stmt, error) {
	p.advance() // ATOM_TYPE
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tokLParen); err != nil {
		return nil, err
	}
	out := &CreateAtomType{Name: name}
	for {
		attr, err := p.ident()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokColon); err != nil {
			return nil, err
		}
		te, err := p.typeExpr()
		if err != nil {
			return nil, err
		}
		out.Attrs = append(out.Attrs, AttrDef{Name: attr, Type: te})
		if p.peek().kind == tokComma {
			p.advance()
			continue
		}
		break
	}
	if _, err := p.expect(tokRParen); err != nil {
		return nil, err
	}
	if p.atKeyword("KEYS_ARE") {
		p.advance()
		keys, err := p.parenIdentList()
		if err != nil {
			return nil, err
		}
		out.Keys = keys
	}
	return out, nil
}

// typeExpr parses one attribute type.
func (p *parser) typeExpr() (TypeExpr, error) {
	if err := p.nest(); err != nil {
		return TypeExpr{}, err
	}
	defer p.unnest()
	t := p.peek()
	if t.kind != tokKeyword {
		return TypeExpr{}, p.errf("expected a type, got %q", t.text)
	}
	switch t.text {
	case "INTEGER", "REAL", "BOOLEAN", "CHAR_VAR", "IDENTIFIER":
		p.advance()
		return TypeExpr{Kind: t.text}, nil
	case "REF_TO":
		p.advance()
		if _, err := p.expect(tokLParen); err != nil {
			return TypeExpr{}, err
		}
		typ, err := p.ident()
		if err != nil {
			return TypeExpr{}, err
		}
		if _, err := p.expect(tokDot); err != nil {
			return TypeExpr{}, err
		}
		attr, err := p.ident()
		if err != nil {
			return TypeExpr{}, err
		}
		if _, err := p.expect(tokRParen); err != nil {
			return TypeExpr{}, err
		}
		return TypeExpr{Kind: "REF_TO", RefType: typ, RefAttr: attr}, nil
	case "SET_OF", "LIST_OF":
		p.advance()
		if _, err := p.expect(tokLParen); err != nil {
			return TypeExpr{}, err
		}
		elem, err := p.typeExpr()
		if err != nil {
			return TypeExpr{}, err
		}
		if _, err := p.expect(tokRParen); err != nil {
			return TypeExpr{}, err
		}
		out := TypeExpr{Kind: t.text, Elem: &elem, Max: -1}
		// Optional cardinality restriction (min,max|VAR).
		if p.peek().kind == tokLParen {
			p.advance()
			lo, err := p.expect(tokInt)
			if err != nil {
				return TypeExpr{}, err
			}
			out.Min = int(lo.i)
			if _, err := p.expect(tokComma); err != nil {
				return TypeExpr{}, err
			}
			if p.atKeyword("VAR") {
				p.advance()
				out.Max = -1
			} else {
				hi, err := p.expect(tokInt)
				if err != nil {
					return TypeExpr{}, err
				}
				out.Max = int(hi.i)
			}
			if _, err := p.expect(tokRParen); err != nil {
				return TypeExpr{}, err
			}
		}
		return out, nil
	case "ARRAY_OF":
		p.advance()
		if _, err := p.expect(tokLParen); err != nil {
			return TypeExpr{}, err
		}
		elem, err := p.typeExpr()
		if err != nil {
			return TypeExpr{}, err
		}
		if _, err := p.expect(tokComma); err != nil {
			return TypeExpr{}, err
		}
		n, err := p.expect(tokInt)
		if err != nil {
			return TypeExpr{}, err
		}
		if _, err := p.expect(tokRParen); err != nil {
			return TypeExpr{}, err
		}
		return TypeExpr{Kind: "ARRAY_OF", Elem: &elem, ArrayLen: int(n.i)}, nil
	case "HULL_DIM":
		// Application-specific type from Fig. 2.3: HULL_DIM(n) is treated
		// as ARRAY_OF(REAL, 2n), a min/max bounding box per dimension
		// (documented substitution in DESIGN.md).
		p.advance()
		if _, err := p.expect(tokLParen); err != nil {
			return TypeExpr{}, err
		}
		n, err := p.expect(tokInt)
		if err != nil {
			return TypeExpr{}, err
		}
		if _, err := p.expect(tokRParen); err != nil {
			return TypeExpr{}, err
		}
		elem := TypeExpr{Kind: "REAL"}
		return TypeExpr{Kind: "ARRAY_OF", Elem: &elem, ArrayLen: 2 * int(n.i), HullDim: int(n.i)}, nil
	case "RECORD":
		p.advance()
		out := TypeExpr{Kind: "RECORD"}
		for {
			// One field group: n1, n2, n3 : TYPE
			var names []string
			for {
				n, err := p.ident()
				if err != nil {
					return TypeExpr{}, err
				}
				names = append(names, n)
				if p.peek().kind == tokComma {
					p.advance()
					continue
				}
				break
			}
			if _, err := p.expect(tokColon); err != nil {
				return TypeExpr{}, err
			}
			ft, err := p.typeExpr()
			if err != nil {
				return TypeExpr{}, err
			}
			for _, n := range names {
				out.Fields = append(out.Fields, AttrDef{Name: n, Type: ft})
			}
			if p.peek().kind == tokComma {
				p.advance()
				if p.atKeyword("END") { // trailing comma before END
					break
				}
				continue
			}
			break
		}
		if err := p.keyword("END"); err != nil {
			return TypeExpr{}, err
		}
		return out, nil
	default:
		return TypeExpr{}, p.errf("unknown type %s", t.text)
	}
}

func (p *parser) defineMoleculeType() (Stmt, error) {
	p.advance() // DEFINE
	if err := p.keyword("MOLECULE"); err != nil {
		return nil, err
	}
	if err := p.keyword("TYPE"); err != nil {
		return nil, err
	}
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	if err := p.keyword("FROM"); err != nil {
		return nil, err
	}
	mol, err := p.molExpr()
	if err != nil {
		return nil, err
	}
	return &DefineMoleculeType{Name: name, From: mol}, nil
}

func (p *parser) dropStmt() (Stmt, error) {
	p.advance() // DROP
	switch {
	case p.atKeyword("ATOM_TYPE"):
		p.advance()
		name, err := p.ident()
		if err != nil {
			return nil, err
		}
		return &Drop{Kind: "ATOM_TYPE", Name: name}, nil
	case p.atKeyword("MOLECULE"):
		p.advance()
		if err := p.keyword("TYPE"); err != nil {
			return nil, err
		}
		name, err := p.ident()
		if err != nil {
			return nil, err
		}
		return &Drop{Kind: "MOLECULE_TYPE", Name: name}, nil
	default:
		name, err := p.ident()
		if err != nil {
			return nil, err
		}
		return &Drop{Kind: "LDL", Name: name}, nil
	}
}

// parenIdentList parses ( a, b, c ).
func (p *parser) parenIdentList() ([]string, error) {
	if _, err := p.expect(tokLParen); err != nil {
		return nil, err
	}
	var out []string
	for {
		n, err := p.ident()
		if err != nil {
			return nil, err
		}
		out = append(out, n)
		if p.peek().kind == tokComma {
			p.advance()
			continue
		}
		break
	}
	if _, err := p.expect(tokRParen); err != nil {
		return nil, err
	}
	return out, nil
}

// --- molecule expressions -------------------------------------------------------

// molExpr parses a FROM-clause molecule expression:
//
//	component        := atomRef [ '-' children ] [ '(' RECURSIVE ')' ]
//	children         := component | '(' component { ',' component } ')'
//	atomRef          := IDENT [ '.' IDENT ]
func (p *parser) molExpr() (*MolComponent, error) {
	return p.molComponent()
}

func (p *parser) molComponent() (*MolComponent, error) {
	if err := p.nest(); err != nil {
		return nil, err
	}
	defer p.unnest()
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	node := &MolComponent{Name: name}
	if p.peek().kind == tokDot {
		p.advance()
		attr, err := p.ident()
		if err != nil {
			return nil, err
		}
		node.EdgeAttr = attr
	}
	if p.peek().kind == tokMinus {
		p.advance()
		if p.peek().kind == tokLParen {
			p.advance()
			for {
				c, err := p.molComponent()
				if err != nil {
					return nil, err
				}
				node.Children = append(node.Children, c)
				if p.peek().kind == tokComma {
					p.advance()
					continue
				}
				break
			}
			if _, err := p.expect(tokRParen); err != nil {
				return nil, err
			}
		} else {
			c, err := p.molComponent()
			if err != nil {
				return nil, err
			}
			node.Children = append(node.Children, c)
		}
	}
	// Trailing (RECURSIVE) marks the edge into this component (the last
	// component of the chain consumes it: solid.sub-solid (RECURSIVE)).
	if p.peek().kind == tokLParen && p.peek2().kind == tokKeyword && p.peek2().text == "RECURSIVE" {
		p.advance()
		p.advance()
		if _, err := p.expect(tokRParen); err != nil {
			return nil, err
		}
		switch len(node.Children) {
		case 0:
			node.Recursive = true
		case 1:
			node.Children[0].Recursive = true
		default:
			return nil, p.errf("(RECURSIVE) cannot follow a branching component list")
		}
	}
	return node, nil
}

// --- DML ----------------------------------------------------------------------

func (p *parser) selectStmt() (*Select, error) {
	p.advance() // SELECT
	out := &Select{}
	if p.atKeyword("ALL") {
		p.advance()
		out.All = true
	} else {
		items, err := p.selectItems(false)
		if err != nil {
			return nil, err
		}
		out.Items = items
	}
	if err := p.keyword("FROM"); err != nil {
		return nil, err
	}
	mol, err := p.molExpr()
	if err != nil {
		return nil, err
	}
	out.From = mol
	if p.atKeyword("WHERE") {
		p.advance()
		w, err := p.expr()
		if err != nil {
			return nil, err
		}
		out.Where = w
	}
	return out, nil
}

// selectItems parses the projection list; parentheses group items and are
// flattened (Table 2.1d: SELECT edge, (point, face := SELECT ...)).
func (p *parser) selectItems(inGroup bool) ([]SelectItem, error) {
	if err := p.nest(); err != nil {
		return nil, err
	}
	defer p.unnest()
	var out []SelectItem
	for {
		if p.peek().kind == tokLParen {
			p.advance()
			sub, err := p.selectItems(true)
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(tokRParen); err != nil {
				return nil, err
			}
			out = append(out, sub...)
		} else {
			name, err := p.ident()
			if err != nil {
				return nil, err
			}
			switch p.peek().kind {
			case tokAssign:
				// Qualified projection: name := SELECT ...
				p.advance()
				sub, err := p.selectStmt()
				if err != nil {
					return nil, err
				}
				out = append(out, SelectItem{Qualifier: name, Sub: sub})
			case tokDot:
				p.advance()
				attr, err := p.ident()
				if err != nil {
					return nil, err
				}
				out = append(out, SelectItem{Qualifier: name, Name: attr})
			default:
				out = append(out, SelectItem{Name: name})
			}
		}
		if p.peek().kind == tokComma {
			p.advance()
			continue
		}
		return out, nil
	}
}

func (p *parser) insertStmt() (Stmt, error) {
	p.advance() // INSERT
	if err := p.keyword("INTO"); err != nil {
		return nil, err
	}
	typ, err := p.ident()
	if err != nil {
		return nil, err
	}
	attrs, err := p.parenIdentList()
	if err != nil {
		return nil, err
	}
	if err := p.keyword("VALUES"); err != nil {
		return nil, err
	}
	out := &Insert{AtomType: typ, Attrs: attrs}
	for {
		if _, err := p.expect(tokLParen); err != nil {
			return nil, err
		}
		var row []Expr
		for {
			v, err := p.valueExpr()
			if err != nil {
				return nil, err
			}
			row = append(row, v)
			if p.peek().kind == tokComma {
				p.advance()
				continue
			}
			break
		}
		if _, err := p.expect(tokRParen); err != nil {
			return nil, err
		}
		if len(row) != len(attrs) {
			return nil, p.errf("row has %d values for %d attributes", len(row), len(attrs))
		}
		out.Rows = append(out.Rows, row)
		if p.peek().kind == tokComma {
			p.advance()
			continue
		}
		break
	}
	return out, nil
}

func (p *parser) deleteStmt() (Stmt, error) {
	p.advance() // DELETE
	if err := p.keyword("FROM"); err != nil {
		return nil, err
	}
	mol, err := p.molExpr()
	if err != nil {
		return nil, err
	}
	out := &Delete{From: mol}
	if p.atKeyword("WHERE") {
		p.advance()
		w, err := p.expr()
		if err != nil {
			return nil, err
		}
		out.Where = w
	}
	return out, nil
}

func (p *parser) modifyStmt() (Stmt, error) {
	p.advance() // MODIFY
	typ, err := p.ident()
	if err != nil {
		return nil, err
	}
	if err := p.keyword("SET"); err != nil {
		return nil, err
	}
	out := &Modify{AtomType: typ}
	for {
		attr, err := p.ident()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokEQ); err != nil {
			return nil, err
		}
		v, err := p.valueExpr()
		if err != nil {
			return nil, err
		}
		out.Set = append(out.Set, Assign{Attr: attr, Value: v})
		if p.peek().kind == tokComma {
			p.advance()
			continue
		}
		break
	}
	if p.atKeyword("WHERE") {
		p.advance()
		w, err := p.expr()
		if err != nil {
			return nil, err
		}
		out.Where = w
	}
	return out, nil
}

func (p *parser) connectStmt(disconnect bool) (Stmt, error) {
	p.advance() // CONNECT / DISCONNECT
	from, err := p.valueExpr()
	if err != nil {
		return nil, err
	}
	if disconnect {
		if err := p.keyword("FROM"); err != nil {
			return nil, err
		}
	} else if err := p.keyword("TO"); err != nil {
		return nil, err
	}
	to, err := p.valueExpr()
	if err != nil {
		return nil, err
	}
	if err := p.keyword("VIA"); err != nil {
		return nil, err
	}
	via, err := p.ident()
	if err != nil {
		return nil, err
	}
	if disconnect {
		return &Disconnect{From: from, To: to, Via: via}, nil
	}
	return &Connect{From: from, To: to, Via: via}, nil
}

// --- expressions ----------------------------------------------------------------

// expr := andExpr { OR andExpr }
func (p *parser) expr() (Expr, error) {
	l, err := p.andExpr()
	if err != nil {
		return nil, err
	}
	for p.atKeyword("OR") {
		p.advance()
		r, err := p.andExpr()
		if err != nil {
			return nil, err
		}
		l = &Binary{Op: "OR", L: l, R: r}
	}
	return l, nil
}

func (p *parser) andExpr() (Expr, error) {
	l, err := p.notExpr()
	if err != nil {
		return nil, err
	}
	for p.atKeyword("AND") {
		p.advance()
		r, err := p.notExpr()
		if err != nil {
			return nil, err
		}
		l = &Binary{Op: "AND", L: l, R: r}
	}
	return l, nil
}

func (p *parser) notExpr() (Expr, error) {
	if err := p.nest(); err != nil {
		return nil, err
	}
	defer p.unnest()
	if p.atKeyword("NOT") {
		p.advance()
		x, err := p.notExpr()
		if err != nil {
			return nil, err
		}
		return &Not{X: x}, nil
	}
	return p.predicate()
}

// predicate := quantifier | '(' expr ')' | comparison
func (p *parser) predicate() (Expr, error) {
	t := p.peek()
	if t.kind == tokKeyword {
		switch t.text {
		case "EXISTS", "FOR_ALL", "EXISTS_AT_LEAST", "EXISTS_EXACTLY":
			return p.quantifier()
		}
	}
	if t.kind == tokLParen {
		// Could be a parenthesized predicate.
		p.advance()
		x, err := p.expr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokRParen); err != nil {
			return nil, err
		}
		return x, nil
	}
	return p.comparison()
}

func (p *parser) quantifier() (Expr, error) {
	if err := p.nest(); err != nil {
		return nil, err
	}
	defer p.unnest()
	kw := p.advance().text
	q := &Quant{Kind: kw, N: 1}
	if kw == "EXISTS_AT_LEAST" || kw == "EXISTS_EXACTLY" {
		if _, err := p.expect(tokLParen); err != nil {
			return nil, err
		}
		n, err := p.expect(tokInt)
		if err != nil {
			return nil, err
		}
		q.N = int(n.i)
		if _, err := p.expect(tokRParen); err != nil {
			return nil, err
		}
	}
	v, err := p.ident()
	if err != nil {
		return nil, err
	}
	q.Var = v
	if _, err := p.expect(tokColon); err != nil {
		return nil, err
	}
	// The quantifier body is a single predicate; parenthesize for more.
	cond, err := p.predicate()
	if err != nil {
		return nil, err
	}
	q.Cond = cond
	return q, nil
}

// comparison := operand [op operand]
func (p *parser) comparison() (Expr, error) {
	l, err := p.operand()
	if err != nil {
		return nil, err
	}
	var op CmpOp
	switch p.peek().kind {
	case tokEQ:
		op = CmpEQ
	case tokNE:
		op = CmpNE
	case tokLT:
		op = CmpLT
	case tokLE:
		op = CmpLE
	case tokGT:
		op = CmpGT
	case tokGE:
		op = CmpGE
	default:
		return nil, p.errf("expected a comparison operator")
	}
	p.advance()
	r, err := p.operand()
	if err != nil {
		return nil, err
	}
	return &Compare{Op: op, L: l, R: r}, nil
}

// operand := literal | EMPTY | attrRef
func (p *parser) operand() (Expr, error) {
	t := p.peek()
	switch t.kind {
	case tokKeyword:
		switch t.text {
		case "EMPTY":
			p.advance()
			return &EmptyLit{}, nil
		case "NULL", "TRUE", "FALSE":
			return p.valueExpr()
		}
		return nil, p.errf("unexpected keyword %s in expression", t.text)
	case tokInt, tokReal, tokString, tokAddr, tokMinus, tokLBrace, tokLBrack:
		return p.valueExpr()
	case tokIdent:
		return p.attrRef()
	default:
		return nil, p.errf("unexpected %s in expression", t.kind)
	}
}

// attrRef := IDENT [ '(' INT ')' ] { '.' IDENT }
func (p *parser) attrRef() (Expr, error) {
	first, err := p.ident()
	if err != nil {
		return nil, err
	}
	ref := &AttrRef{Parts: []string{first}}
	if p.peek().kind == tokLParen && p.peek2().kind == tokInt {
		p.advance()
		n, err := p.expect(tokInt)
		if err != nil {
			return nil, err
		}
		ref.Level = int(n.i)
		ref.HasLevel = true
		if _, err := p.expect(tokRParen); err != nil {
			return nil, err
		}
	}
	for p.peek().kind == tokDot {
		p.advance()
		part, err := p.ident()
		if err != nil {
			return nil, err
		}
		ref.Parts = append(ref.Parts, part)
	}
	return ref, nil
}

// valueExpr parses a literal value: numbers (with optional leading '-'),
// strings, booleans, NULL, address literals, and {…} / […] / (…)
// constructors for SET / LIST / RECORD values.
func (p *parser) valueExpr() (Expr, error) {
	if err := p.nest(); err != nil {
		return nil, err
	}
	defer p.unnest()
	t := p.peek()
	switch t.kind {
	case tokMinus:
		p.advance()
		n := p.peek()
		switch n.kind {
		case tokInt, tokReal:
			p.advance()
			return &Lit{V: literalValue(n, true), Param: n.param}, nil
		default:
			return nil, p.errf("expected a number after '-'")
		}
	case tokInt, tokReal, tokString, tokAddr:
		p.advance()
		return &Lit{V: literalValue(t, false), Param: t.param}, nil
	case tokKeyword:
		switch t.text {
		case "NULL":
			p.advance()
			return &Lit{V: atom.Null()}, nil
		case "TRUE":
			p.advance()
			return &Lit{V: atom.Bool(true)}, nil
		case "FALSE":
			p.advance()
			return &Lit{V: atom.Bool(false)}, nil
		case "EMPTY":
			p.advance()
			return &Lit{V: atom.Set()}, nil
		}
		return nil, p.errf("unexpected keyword %s in value", t.text)
	case tokLBrace: // SET literal
		p.advance()
		elems, err := p.valueList(tokRBrace)
		if err != nil {
			return nil, err
		}
		return &Lit{V: atom.Value{K: atom.KindSet, E: elems}}, nil
	case tokLBrack: // LIST literal
		p.advance()
		elems, err := p.valueList(tokRBrack)
		if err != nil {
			return nil, err
		}
		return &Lit{V: atom.Value{K: atom.KindList, E: elems}}, nil
	case tokLParen: // RECORD literal
		p.advance()
		elems, err := p.valueList(tokRParen)
		if err != nil {
			return nil, err
		}
		return &Lit{V: atom.Value{K: atom.KindRecord, E: elems}}, nil
	default:
		return nil, p.errf("expected a value, got %s", t.kind)
	}
}

// literalValue is the value of a scalar literal token, negated when a '-'
// precedes it.
func literalValue(t token, neg bool) atom.Value {
	switch t.kind {
	case tokInt:
		if neg {
			return atom.Int(-t.i)
		}
		return atom.Int(t.i)
	case tokReal:
		if neg {
			return atom.Real(-t.f)
		}
		return atom.Real(t.f)
	case tokString:
		return atom.Str(t.text)
	default:
		return atom.Ref(addr.LogicalAddr(uint64(t.i)))
	}
}

// valueList parses value { ',' value } closer; empty lists are allowed.
func (p *parser) valueList(closer tokKind) ([]atom.Value, error) {
	var out []atom.Value
	if p.peek().kind == closer {
		p.advance()
		return out, nil
	}
	for {
		v, err := p.valueExpr()
		if err != nil {
			return nil, err
		}
		lit, ok := v.(*Lit)
		if !ok {
			return nil, p.errf("constructor elements must be literals")
		}
		out = append(out, lit.V)
		if p.peek().kind == tokComma {
			p.advance()
			continue
		}
		break
	}
	if _, err := p.expect(closer); err != nil {
		return nil, err
	}
	return out, nil
}
