package core

import (
	"fmt"

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

// referenceSelect answers a SELECT the naive way: assemble every molecule of
// the FROM clause unrestricted, decide the WHERE per molecule with the
// interpreter, and project the survivors with the interpreter deciding the
// qualified-projection predicates.
func (e *Engine) referenceSelect(sel *mql.Select) ([]*Molecule, error) {
	all, err := e.PlanSelect(&mql.Select{All: true, From: sel.From})
	if err != nil {
		return nil, err
	}
	cur, err := all.Open()
	if err != nil {
		return nil, err
	}
	defer cur.Close()
	mols, err := cur.Collect()
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
	for typeName, atoms := range m.ByType {
		tp := proj.perType[typeName]
		t, _ := e.sys.Schema().AtomType(typeName)
		for _, ma := range atoms {
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
			projected := *ma.Atom
			projected.Values = make([]atom.Value, len(ma.Atom.Values))
			for _, a := range append([]string{t.Attrs[t.IdentIndex()].Name}, tp.attrs...) {
				i, _ := t.AttrIndex(a)
				projected.Values[i] = ma.Atom.Values[i]
			}
			ma.Atom = &projected
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
		v := ma.Atom.Values[idx]
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
		Type:   &catalog.MoleculeType{Root: &catalog.MolNode{AtomType: ma.Atom.Type.Name}},
		ByType: map[string][]*MAtom{ma.Atom.Type.Name: {ma}},
		Root:   ma,
	}
	return e.eval(x, pseudo, nil)
}
