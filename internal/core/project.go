package core

import "prima/internal/access/atom"

// applyProjection rewrites the molecule in place according to the compiled
// projection: qualified-projection predicates filter component atoms,
// attribute lists restrict values, unmentioned types become hidden
// connectors (kept only where needed for molecule structure). An atom whose
// attributes are restricted gets a projected image — the dropped attributes
// NULL — cut from an arena the molecule's projected images share. params
// are the plan's bound parameters.
func applyProjection(p *projection, m *Molecule, params []atom.Value) error {
	if p == nil || p.all {
		return nil
	}
	var arena []byte
	for o, typeName := range m.Type.AtomTypes() {
		atoms := m.ByType[o]
		tp := p.perType[typeName]
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
				ok, err := tp.whereC.Eval(pseudo, params)
				if err != nil {
					return err
				}
				if !ok {
					ma.Hidden = true
					continue
				}
			}
			if !tp.whole && tp.keep != nil {
				// A projected image is never longer than its source. A full
				// arena is replaced, not grown: the images cut from it stay.
				if need := len(ma.Rec.Image.Bytes()); cap(arena)-len(arena) < need {
					arena = make([]byte, 0, max(need, 2048))
				}
				arena, ma.Rec.Image = atom.AppendProjected(arena, ma.Rec.Image, tp.keep)
			}
		}
	}
	return nil
}
