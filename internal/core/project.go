package core

import "prima/internal/access/atom"

// applyProjection rewrites the molecule in place according to the compiled
// projection: qualified-projection predicates filter component atoms,
// attribute lists restrict values, unmentioned types become hidden
// connectors (kept only where needed for molecule structure).
func (e *Engine) applyProjection(p *projection, m *Molecule) error {
	if p == nil || p.all {
		return nil
	}
	for o, typeName := range m.Type.AtomTypes() {
		atoms := m.ByType[o]
		tp := p.perType[typeName]
		t, _ := e.sys.Schema().AtomType(typeName)
		// Qualified-projection predicates evaluate against one reusable
		// single-atom pseudo molecule instead of building one per component
		// atom.
		var pseudo *Molecule
		if tp != nil && tp.whereC != nil {
			pseudo = &Molecule{Type: tp.subType, ByType: [][]*MAtom{make([]*MAtom, 1)}}
		}
		for _, ma := range atoms {
			if tp == nil {
				ma.Hidden = true
				continue
			}
			if pseudo != nil {
				pseudo.ByType[0][0] = ma
				pseudo.Root = ma
				ok, err := tp.whereC.Eval(pseudo)
				if err != nil {
					return err
				}
				if !ok {
					ma.Hidden = true
					continue
				}
			}
			if !tp.whole && tp.attrs != nil {
				// Project the attribute vector (identifier always kept).
				nv := make([]atom.Value, len(ma.Atom.Values))
				nv[t.IdentIndex()] = ma.Atom.Values[t.IdentIndex()]
				for _, i := range tp.attrIdx {
					nv[i] = ma.Atom.Values[i]
				}
				projected := *ma.Atom
				projected.Values = nv
				ma.Atom = &projected
			}
		}
	}
	return nil
}
