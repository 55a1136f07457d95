package core

import (
	"prima/internal/access/addr"
	"prima/internal/mql"
)

// Bridges from the external test package to unexported pieces of core.

// ReferenceSelect answers a SELECT with the reference model of
// reference_test.go.
func (e *Engine) ReferenceSelect(sel *mql.Select) ([]*Molecule, error) {
	return e.referenceSelect(sel)
}

// Roots enumerates the plan's candidate roots (non-scan accesses).
func (p *Plan) Roots() ([]addr.LogicalAddr, error) { return p.roots() }
