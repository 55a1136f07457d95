package core

import (
	"fmt"

	"prima/internal/access/addr"
	"prima/internal/access/atom"
	"prima/internal/catalog"
	"prima/internal/mql"
)

// The reference model of molecule qualification and projection: the
// interpretive evaluator that predated plan-time predicate compilation, kept
// as test code. It walks the predicate AST per molecule with a schema lookup
// at every reference — slow and correct by inspection — and the differential
// tests require the engine (compiled predicates, pushdown, range access
// selection, parallel assembly, atom cache) to answer every corpus query with
// the same molecule multiset.
//
// References to non-root component attributes without an explicit quantifier
// are implicitly existentially quantified ("there is a component atom
// satisfying the comparison"), which matches the reading of the paper's
// Table 2.1 examples; FOR_ALL and EXISTS_AT_LEAST are explicit.
//
// The molecules themselves come from the reference assembler below, the
// recursive builder that predated the one-pass assembler: one atom read per
// address, decoded in full, a map per molecule, a slice per reference
// attribute. It follows the references of the decoded values and projects by
// re-encoding the projected vector, where the engine reads and cuts the
// record image.

// referenceAssemble builds the molecule rooted at root the way §3.1 words it:
// read the root, follow each association of the molecule type to the
// component atoms, recurse. Depth-first order decides everything an atom
// reachable over several lanes could have two of — component role, recursion
// level, place in the per-type lists.
func (p *Plan) referenceAssemble(src atomSource, root addr.LogicalAddr) (*Molecule, error) {
	m := &Molecule{Type: p.Mol, ByType: make([][]*MAtom, len(p.Mol.AtomTypes()))}
	atoms := map[addr.LogicalAddr]*MAtom{}
	var build func(node *catalog.MolNode, a addr.LogicalAddr, level int) (*MAtom, error)
	build = func(node *catalog.MolNode, a addr.LogicalAddr, level int) (*MAtom, error) {
		if existing, ok := atoms[a]; ok {
			return existing, nil // shared component or recursion cycle
		}
		if level > p.MaxDepth {
			return nil, fmt.Errorf("%w: recursion deeper than %d", ErrSemantic, p.MaxDepth)
		}
		at, err := src.get(a)
		if err != nil {
			return nil, err
		}
		ord, _ := p.Mol.TypeOrdinal(at.Type.Name)
		ma := &MAtom{Rec: at, Node: node, Level: level}
		values := ma.Values()
		atoms[a] = ma
		m.ByType[ord] = append(m.ByType[ord], ma)

		// The node's children, plus the node itself once more when the edge
		// into it recurses.
		edges := node.Children
		if node.Recursive {
			edges = append(append([]*catalog.MolNode(nil), edges...), node)
		}
		ma.Children = make([][]*MAtom, len(edges))
		for i, child := range edges {
			idx, ok := at.Type.AttrIndex(child.Via)
			if !ok {
				return nil, fmt.Errorf("%w: %s.%s", catalog.ErrUnknownAttr, at.Type.Name, child.Via)
			}
			next := level
			if child.Recursive || child == node {
				next++
			}
			for target := range values[idx].AllRefs() {
				c, err := build(child, target, next)
				if err != nil {
					return nil, err
				}
				ma.Children[i] = append(ma.Children[i], c)
			}
		}
		return ma, nil
	}
	var err error
	m.Root, err = build(p.Mol.Root, root, 0)
	return m, err
}

// referenceMolecules assembles every molecule of the plan's root enumeration
// with the reference assembler, unrestricted.
func (p *Plan) referenceMolecules() ([]*Molecule, error) {
	sn := p.engine.sys.OpenSnapshot()
	defer sn.Close()
	var mols []*Molecule
	for roots := p.rootSource(64, sn); ; {
		chunk, err := roots.next()
		if err != nil || len(chunk) == 0 {
			return mols, err
		}
		for _, a := range chunk {
			if !sn.Exists(a) {
				continue
			}
			m, err := p.referenceAssemble(snapshotSource{sn}, a)
			if err != nil {
				return nil, err
			}
			mols = append(mols, m)
		}
	}
}

// referenceSelect answers a SELECT the naive way: assemble every molecule of
// the FROM clause unrestricted, decide the WHERE per molecule with the
// interpreter, and project the survivors with the interpreter deciding the
// qualified-projection predicates.
func (e *Engine) referenceSelect(sel *mql.Select) ([]*Molecule, error) {
	all, err := e.planSelect(&mql.Select{All: true, From: sel.From}, e.planDepth())
	if err != nil {
		return nil, err
	}
	mols, err := all.referenceMolecules()
	if err != nil {
		return nil, err
	}
	// Name resolution of the SELECT list only; its predicates are taken from
	// the AST and decided below.
	proj, err := e.compileProjection(sel, all.Mol)
	if err != nil {
		return nil, err
	}
	subWhere := map[string]mql.Expr{}
	for _, item := range sel.Items {
		if item.Sub != nil && item.Sub.Where != nil {
			subWhere[item.Sub.From.Name] = item.Sub.Where
		}
	}
	var out []*Molecule
	for _, m := range mols {
		if sel.Where != nil {
			keep, err := e.evalMolecule(sel.Where, m)
			if err != nil {
				return nil, err
			}
			if !keep {
				continue
			}
		}
		if !proj.all {
			if err := e.referenceProject(proj, subWhere, m); err != nil {
				return nil, err
			}
		}
		out = append(out, m)
	}
	return out, nil
}

// referenceProject hides the atoms of unmentioned types and of types whose
// qualified-projection predicate the atom fails, and blanks the unprojected
// attributes of the rest (the identifier always stays).
func (e *Engine) referenceProject(proj *projection, subWhere map[string]mql.Expr, m *Molecule) error {
	for o, typeName := range m.Type.AtomTypes() {
		tp := proj.perType[typeName]
		t, _ := e.sys.Schema().AtomType(typeName)
		for _, ma := range m.ByType[o] {
			if tp == nil {
				ma.Hidden = true
				continue
			}
			if w := subWhere[typeName]; w != nil {
				ok, err := e.evalComponentPredicate(w, ma)
				if err != nil {
					return err
				}
				if !ok {
					ma.Hidden = true
					continue
				}
			}
			if tp.whole || tp.attrs == nil {
				continue
			}
			values := ma.Values()
			projected := make([]atom.Value, len(values))
			for _, a := range append([]string{t.Attrs[t.IdentIndex()].Name}, tp.attrs...) {
				i, _ := t.AttrIndex(a)
				projected[i] = values[i]
			}
			ma.Rec.Image = atom.ImageOf(projected)
		}
	}
	return nil
}

// evalMolecule decides a WHERE predicate for one molecule.
func (e *Engine) evalMolecule(x mql.Expr, m *Molecule) (bool, error) {
	return e.eval(x, m, nil)
}

// eval evaluates a predicate; bound maps quantifier variables (atom type
// names) to the currently bound atom.
func (e *Engine) eval(x mql.Expr, m *Molecule, bound map[string]*MAtom) (bool, error) {
	switch v := x.(type) {
	case *mql.Binary:
		l, err := e.eval(v.L, m, bound)
		if err != nil {
			return false, err
		}
		if v.Op == "AND" {
			if !l {
				return false, nil
			}
			return e.eval(v.R, m, bound)
		}
		if l {
			return true, nil
		}
		return e.eval(v.R, m, bound)
	case *mql.Not:
		r, err := e.eval(v.X, m, bound)
		return !r, err
	case *mql.Quant:
		return e.evalQuant(v, m, bound)
	case *mql.Compare:
		return e.evalCompare(v, m, bound)
	default:
		return false, fmt.Errorf("%w: predicate %T", ErrSemantic, x)
	}
}

func (e *Engine) evalQuant(q *mql.Quant, m *Molecule, bound map[string]*MAtom) (bool, error) {
	atoms := m.AtomsOf(q.Var)
	count := 0
	// Reuse one binding map across the component atoms instead of copying it
	// per atom; a shadowed outer binding of the same variable is restored
	// afterwards.
	if bound == nil {
		bound = map[string]*MAtom{}
	}
	prev, shadowed := bound[q.Var]
	for _, ma := range atoms {
		bound[q.Var] = ma
		ok, err := e.eval(q.Cond, m, bound)
		if err != nil {
			return false, err
		}
		if ok {
			count++
		}
	}
	if shadowed {
		bound[q.Var] = prev
	} else {
		delete(bound, q.Var)
	}
	switch q.Kind {
	case "EXISTS":
		return count >= 1, nil
	case "FOR_ALL":
		return count == len(atoms), nil
	case "EXISTS_AT_LEAST":
		return count >= q.N, nil
	case "EXISTS_EXACTLY":
		return count == q.N, nil
	default:
		return false, fmt.Errorf("%w: quantifier %s", ErrSemantic, q.Kind)
	}
}

// evalCompare evaluates <operand> op <operand> with implicit existential
// semantics over component atoms.
func (e *Engine) evalCompare(c *mql.Compare, m *Molecule, bound map[string]*MAtom) (bool, error) {
	// attr = EMPTY / attr <> EMPTY.
	if _, isEmpty := c.R.(*mql.EmptyLit); isEmpty {
		ref, ok := c.L.(*mql.AttrRef)
		if !ok {
			return false, fmt.Errorf("%w: EMPTY requires an attribute operand", ErrSemantic)
		}
		vals, err := e.refValues(ref, m, bound)
		if err != nil {
			return false, err
		}
		for _, v := range vals {
			empty := v.Len() == 0
			if (c.Op == mql.CmpEQ && empty) || (c.Op == mql.CmpNE && !empty) {
				return true, nil
			}
		}
		return false, nil
	}

	// attr = NULL / attr <> NULL: IS-NULL semantics.
	if lit, isLit := c.R.(*mql.Lit); isLit && lit.V.IsNull() {
		ref, ok := c.L.(*mql.AttrRef)
		if !ok {
			return false, fmt.Errorf("%w: NULL requires an attribute operand", ErrSemantic)
		}
		vals, err := e.refValues(ref, m, bound)
		if err != nil {
			return false, err
		}
		for _, v := range vals {
			if (c.Op == mql.CmpEQ && v.IsNull()) || (c.Op == mql.CmpNE && !v.IsNull()) {
				return true, nil
			}
		}
		return false, nil
	}

	lvals, err := e.operandValues(c.L, m, bound)
	if err != nil {
		return false, err
	}
	rvals, err := e.operandValues(c.R, m, bound)
	if err != nil {
		return false, err
	}
	for _, l := range lvals {
		for _, r := range rvals {
			if l.IsNull() || r.IsNull() {
				continue
			}
			cmp := atom.Compare(l, r)
			ok := false
			switch c.Op {
			case mql.CmpEQ:
				ok = cmp == 0
			case mql.CmpNE:
				ok = cmp != 0
			case mql.CmpLT:
				ok = cmp < 0
			case mql.CmpLE:
				ok = cmp <= 0
			case mql.CmpGT:
				ok = cmp > 0
			case mql.CmpGE:
				ok = cmp >= 0
			}
			if ok {
				return true, nil
			}
		}
	}
	return false, nil
}

func (e *Engine) operandValues(x mql.Expr, m *Molecule, bound map[string]*MAtom) ([]atom.Value, error) {
	switch v := x.(type) {
	case *mql.Lit:
		return []atom.Value{v.V}, nil
	case *mql.AttrRef:
		return e.refValues(v, m, bound)
	default:
		return nil, fmt.Errorf("%w: operand %T", ErrSemantic, x)
	}
}

// refValues resolves an attribute reference to the matching values within
// the molecule (one value per matching atom).
func (e *Engine) refValues(ref *mql.AttrRef, m *Molecule, bound map[string]*MAtom) ([]atom.Value, error) {
	tgt, err := e.resolveRefTarget(ref, m.Type)
	if err != nil {
		return nil, err
	}
	var atoms []*MAtom
	if b, ok := bound[tgt.typeName]; ok {
		atoms = []*MAtom{b}
	} else {
		atoms = m.AtomsOf(tgt.typeName)
	}
	t, _ := e.sys.Schema().AtomType(tgt.typeName)
	idx, ok := t.AttrIndex(tgt.attr)
	if !ok {
		return nil, fmt.Errorf("core: lost attribute %s.%s", tgt.typeName, tgt.attr)
	}
	var out []atom.Value
	for _, ma := range atoms {
		if tgt.hasLevel && ma.Level != tgt.level {
			continue
		}
		v := ma.Values()[idx]
		// Navigate RECORD field path.
		spec := t.Attrs[idx].Type
		okPath := true
		for _, f := range tgt.fields {
			fi := -1
			for j, rf := range spec.Fields {
				if rf.Name == f {
					fi = j
					break
				}
			}
			if fi < 0 || v.K != atom.KindRecord || fi >= len(v.E) {
				okPath = false
				break
			}
			spec = spec.Fields[fi].Type
			v = v.E[fi]
		}
		if okPath {
			out = append(out, v)
		}
	}
	return out, nil
}

// evalComponentPredicate evaluates a qualified-projection predicate against
// one component atom.
func (e *Engine) evalComponentPredicate(x mql.Expr, ma *MAtom) (bool, error) {
	pseudo := &Molecule{
		Type:   &catalog.MoleculeType{Root: &catalog.MolNode{AtomType: ma.Rec.Type.Name}},
		ByType: [][]*MAtom{{ma}},
		Root:   ma,
	}
	return e.eval(x, pseudo, nil)
}
