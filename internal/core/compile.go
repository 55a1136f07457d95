package core

import (
	"fmt"
	"sync"

	"prima/internal/access/atom"
	"prima/internal/catalog"
	"prima/internal/mql"
)

// Plan-time predicate compilation (§3.1 query preparation). The residual
// WHERE predicate and qualified-projection predicates are lowered once, at
// plan time, into a tree of closures over pre-resolved (atom type, attribute
// index, RECORD field path) targets. Execution then runs the closures per
// molecule with zero schema lookups, zero string comparisons, and a reusable
// quantifier-binding scratch. The interpretive evaluator this replaced lives
// on in reference_test.go as the model the differential tests compare
// against.

// cscratch is the per-evaluation scratch of one compiled predicate:
// quantifier bindings by slot, one value buffer per attribute operand, and
// the bound parameter vector that parameter operands read (nil for a plan
// prepared from a statement tree). It is pooled by the owning compiledPred,
// so steady-state evaluation does not allocate.
type cscratch struct {
	bound  []*MAtom
	bufs   [][]atom.Value
	params []atom.Value
}

// cnode is one compiled predicate node.
type cnode func(m *Molecule, s *cscratch) (bool, error)

// compiledPred is a fully compiled molecule predicate. It is immutable after
// compilation and safe for concurrent evaluation (each Eval checks out its
// own scratch), so cached plans may be shared across cursors.
type compiledPred struct {
	fn   cnode
	pool sync.Pool
}

// Eval decides the predicate for one molecule under the bound parameters
// (nil: the literals it was compiled from).
func (cp *compiledPred) Eval(m *Molecule, params []atom.Value) (bool, error) {
	s := cp.pool.Get().(*cscratch)
	s.params = params
	ok, err := cp.fn(m, s)
	s.params = nil
	cp.pool.Put(s)
	return ok, err
}

// predCompiler carries compilation state: the lexical scope of quantifier
// variables (atom type name -> binding slot) and the running slot/buffer
// counters that size the scratch.
type predCompiler struct {
	e     *Engine
	mol   *catalog.MoleculeType
	scope map[string]int
	slots int
	bufs  int
}

// compilePredicate lowers a predicate that already passed checkExpr.
// Compilation itself never fails: operand forms that cannot be evaluated
// compile to closures returning the error lazily, exactly where the
// reference interpreter raises it (a query whose cursor never evaluates the
// predicate must not fail at plan time).
func (e *Engine) compilePredicate(x mql.Expr, mol *catalog.MoleculeType) *compiledPred {
	pc := &predCompiler{e: e, mol: mol, scope: map[string]int{}}
	fn := pc.compile(x)
	slots, bufs := pc.slots, pc.bufs
	cp := &compiledPred{fn: fn}
	cp.pool.New = func() any {
		return &cscratch{
			bound: make([]*MAtom, slots),
			bufs:  make([][]atom.Value, bufs),
		}
	}
	return cp
}

// errNode defers an error to evaluation time.
func errNode(err error) cnode {
	return func(*Molecule, *cscratch) (bool, error) { return false, err }
}

func (pc *predCompiler) compile(x mql.Expr) cnode {
	switch v := x.(type) {
	case *mql.Binary:
		l, r := pc.compile(v.L), pc.compile(v.R)
		if v.Op == "AND" {
			return func(m *Molecule, s *cscratch) (bool, error) {
				ok, err := l(m, s)
				if err != nil || !ok {
					return false, err
				}
				return r(m, s)
			}
		}
		return func(m *Molecule, s *cscratch) (bool, error) {
			ok, err := l(m, s)
			if err != nil || ok {
				return ok, err
			}
			return r(m, s)
		}
	case *mql.Not:
		inner := pc.compile(v.X)
		return func(m *Molecule, s *cscratch) (bool, error) {
			ok, err := inner(m, s)
			return !ok, err
		}
	case *mql.Quant:
		return pc.compileQuant(v)
	case *mql.Compare:
		return pc.compileCompare(v)
	default:
		return errNode(fmt.Errorf("%w: predicate %T", ErrSemantic, x))
	}
}

func (pc *predCompiler) compileQuant(q *mql.Quant) cnode {
	var decide func(count, total int) bool
	switch q.Kind {
	case "EXISTS":
		decide = func(c, _ int) bool { return c >= 1 }
	case "FOR_ALL":
		decide = func(c, t int) bool { return c == t }
	case "EXISTS_AT_LEAST":
		n := q.N
		decide = func(c, _ int) bool { return c >= n }
	case "EXISTS_EXACTLY":
		n := q.N
		decide = func(c, _ int) bool { return c == n }
	default:
		return errNode(fmt.Errorf("%w: quantifier %s", ErrSemantic, q.Kind))
	}

	// The quantifier variable is the component type name; references to it
	// inside Cond resolve to this slot, shadowing any outer binding of the
	// same name — the lexical analogue of the reference interpreter's dynamic
	// binding map.
	slot := pc.slots
	pc.slots++
	prev, shadowed := pc.scope[q.Var]
	pc.scope[q.Var] = slot
	cond := pc.compile(q.Cond)
	if shadowed {
		pc.scope[q.Var] = prev
	} else {
		delete(pc.scope, q.Var)
	}

	ord, ok := pc.mol.TypeOrdinal(q.Var)
	if !ok {
		return errNode(fmt.Errorf("%w: quantifier variable %s is not a component type", ErrSemantic, q.Var))
	}
	return func(m *Molecule, s *cscratch) (bool, error) {
		atoms := m.ByType[ord]
		count := 0
		for _, ma := range atoms {
			s.bound[slot] = ma
			ok, err := cond(m, s)
			if err != nil {
				return false, err
			}
			if ok {
				count++
			}
		}
		s.bound[slot] = nil
		return decide(count, len(atoms)), nil
	}
}

func (pc *predCompiler) compileCompare(c *mql.Compare) cnode {
	// attr = EMPTY / attr <> EMPTY: repeating-group emptiness.
	if _, isEmpty := c.R.(*mql.EmptyLit); isEmpty {
		ref, ok := c.L.(*mql.AttrRef)
		if !ok {
			return errNode(fmt.Errorf("%w: EMPTY requires an attribute operand", ErrSemantic))
		}
		cr, err := pc.compileRef(ref)
		if err != nil {
			return errNode(err)
		}
		bufIdx := pc.newBuf()
		op := c.Op
		return func(m *Molecule, s *cscratch) (bool, error) {
			for _, v := range cr.values(m, s, bufIdx) {
				empty := v.Len() == 0
				if (op == mql.CmpEQ && empty) || (op == mql.CmpNE && !empty) {
					return true, nil
				}
			}
			return false, nil
		}
	}

	// attr = NULL / attr <> NULL: IS-NULL semantics.
	if lit, isLit := c.R.(*mql.Lit); isLit && lit.V.IsNull() {
		ref, ok := c.L.(*mql.AttrRef)
		if !ok {
			return errNode(fmt.Errorf("%w: NULL requires an attribute operand", ErrSemantic))
		}
		cr, err := pc.compileRef(ref)
		if err != nil {
			return errNode(err)
		}
		bufIdx := pc.newBuf()
		op := c.Op
		return func(m *Molecule, s *cscratch) (bool, error) {
			for _, v := range cr.values(m, s, bufIdx) {
				if (op == mql.CmpEQ && v.IsNull()) || (op == mql.CmpNE && !v.IsNull()) {
					return true, nil
				}
			}
			return false, nil
		}
	}

	l, err := pc.compileOperand(c.L)
	if err != nil {
		return errNode(err)
	}
	r, err := pc.compileOperand(c.R)
	if err != nil {
		return errNode(err)
	}
	op := c.Op
	return func(m *Molecule, s *cscratch) (bool, error) {
		lvals := l.values(m, s)
		rvals := r.values(m, s)
		for _, lv := range lvals {
			for _, rv := range rvals {
				if lv.IsNull() || rv.IsNull() {
					continue
				}
				if cmpHolds(op, atom.Compare(lv, rv)) {
					return true, nil
				}
			}
		}
		return false, nil
	}
}

func cmpHolds(op mql.CmpOp, cmp int) bool {
	switch op {
	case mql.CmpEQ:
		return cmp == 0
	case mql.CmpNE:
		return cmp != 0
	case mql.CmpLT:
		return cmp < 0
	case mql.CmpLE:
		return cmp <= 0
	case mql.CmpGT:
		return cmp > 0
	default:
		return cmp >= 0
	}
}

// coperand is one comparison operand: a literal (pre-wrapped in a shared,
// read-only one-element slice) — read from the bound parameters when it is
// a parameter — or a compiled attribute reference with its dedicated
// scratch buffer.
type coperand struct {
	ref    *cref
	bufIdx int
	lit    []atom.Value
	param  int
}

func (pc *predCompiler) compileOperand(x mql.Expr) (*coperand, error) {
	switch v := x.(type) {
	case *mql.Lit:
		return &coperand{lit: []atom.Value{v.V}, param: v.Param}, nil
	case *mql.AttrRef:
		cr, err := pc.compileRef(v)
		if err != nil {
			return nil, err
		}
		return &coperand{ref: cr, bufIdx: pc.newBuf()}, nil
	default:
		return nil, fmt.Errorf("%w: operand %T", ErrSemantic, x)
	}
}

func (o *coperand) values(m *Molecule, s *cscratch) []atom.Value {
	if o.ref == nil {
		if o.param > 0 && s.params != nil {
			return s.params[o.param-1 : o.param : o.param]
		}
		return o.lit
	}
	return o.ref.values(m, s, o.bufIdx)
}

func (pc *predCompiler) newBuf() int {
	i := pc.bufs
	pc.bufs++
	return i
}

// cref is a pre-resolved attribute reference: owning type (by its ordinal in
// the molecule type), attribute index, RECORD field path as indices,
// recursion-level filter, and the quantifier binding slot (-1 when free,
// i.e. implicitly existential over all atoms of the type).
type cref struct {
	ord      int
	attrIdx  int
	fields   []int
	level    int
	hasLevel bool
	slot     int
}

func (pc *predCompiler) compileRef(ref *mql.AttrRef) (*cref, error) {
	tgt, err := pc.e.resolveRefTarget(ref, pc.mol)
	if err != nil {
		return nil, err
	}
	t, _ := pc.e.sys.Schema().AtomType(tgt.typeName)
	idx, ok := t.AttrIndex(tgt.attr)
	if !ok {
		return nil, fmt.Errorf("core: lost attribute %s.%s", tgt.typeName, tgt.attr)
	}
	ord, _ := pc.mol.TypeOrdinal(tgt.typeName) // resolveRefTarget found it there
	cr := &cref{ord: ord, attrIdx: idx, level: tgt.level, hasLevel: tgt.hasLevel, slot: -1}
	if s, ok := pc.scope[tgt.typeName]; ok {
		cr.slot = s
	}
	// Pre-resolve the RECORD field path to indices (resolveRefTarget already
	// validated it against the attribute's type spec).
	spec := t.Attrs[idx].Type
	for _, f := range tgt.fields {
		fi := -1
		for j, rf := range spec.Fields {
			if rf.Name == f {
				fi = j
				break
			}
		}
		if fi < 0 {
			return nil, fmt.Errorf("%w: RECORD field %s", catalog.ErrUnknownAttr, f)
		}
		cr.fields = append(cr.fields, fi)
		spec = spec.Fields[fi].Type
	}
	return cr, nil
}

// values collects the reference's matching values: the bound atom's value
// when a quantifier binds the type, else one value per molecule atom of the
// type (implicit existential semantics), reusing the operand's scratch
// buffer across evaluations.
func (r *cref) values(m *Molecule, s *cscratch, bufIdx int) []atom.Value {
	buf := s.bufs[bufIdx][:0]
	if r.slot >= 0 {
		if ma := s.bound[r.slot]; ma != nil {
			buf = r.appendFrom(buf, ma)
		}
	} else {
		for _, ma := range m.ByType[r.ord] {
			buf = r.appendFrom(buf, ma)
		}
	}
	s.bufs[bufIdx] = buf
	return buf
}

func (r *cref) appendFrom(buf []atom.Value, ma *MAtom) []atom.Value {
	if r.hasLevel && ma.Level != r.level {
		return buf
	}
	v := ma.Rec.Image.Attr(r.attrIdx)
	for _, fi := range r.fields {
		if v.K != atom.KindRecord || fi >= len(v.E) {
			return buf
		}
		v = v.E[fi]
	}
	return append(buf, v)
}
