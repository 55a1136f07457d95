package core

import (
	"fmt"
	"slices"
	"testing"

	"prima/internal/access"
	"prima/internal/access/addr"
	"prima/internal/mql"
)

// Bridges from the external test package to unexported pieces of core.

// ReferenceSelect answers a SELECT with the reference model of
// reference_test.go.
func (e *Engine) ReferenceSelect(sel *mql.Select) ([]*Molecule, error) {
	return e.referenceSelect(sel)
}

// ResetPlanCache empties the plan cache and its counters: the next statement
// of every shape is planned fresh.
func (e *Engine) ResetPlanCache() { e.plans = newPlanCache() }

// SetRootChunk lowers the cursor root chunk for one test, so a small scene
// spans several chunks; the default comes back at cleanup.
func SetRootChunk(t testing.TB, n int) {
	old := rootChunk
	rootChunk = n
	t.Cleanup(func() { rootChunk = old })
}

// Roots enumerates the plan's candidate roots (non-scan accesses).
func (p *Plan) Roots() ([]addr.LogicalAddr, error) { return p.roots() }

// lossySource reads through a snapshot that has lost one atom: the way to a
// dangling reference, which the access system's own referential integrity
// never lets a test store.
type lossySource struct {
	snapshotSource
	lost addr.LogicalAddr
}

func (s lossySource) get(a addr.LogicalAddr) (access.Record, error) {
	if a == s.lost {
		return access.Record{}, fmt.Errorf("%w: %v", access.ErrNoAtom, a)
	}
	return s.snapshotSource.get(a)
}

func (s lossySource) fill(recs []access.Record) error {
	if slices.ContainsFunc(recs, func(r access.Record) bool { return r.Addr == s.lost }) {
		return fmt.Errorf("%w: %v", access.ErrNoAtom, s.lost)
	}
	return s.snapshotSource.fill(recs)
}

// AssembleLosing builds the molecule rooted at root twice over a store that
// has lost one atom: with the plan's assembler, qualification included, and
// unrestricted with the reference assembler.
func (p *Plan) AssembleLosing(root, lost addr.LogicalAddr) (m *Molecule, err, refErr error) {
	sn := p.engine.sys.OpenSnapshot()
	defer sn.Close()
	src := lossySource{snapshotSource{sn}, lost}
	as := newAssembler(p, sn)
	defer as.release()
	as.src = src
	m, err = as.build(root, access.Record{})
	_, refErr = p.referenceAssemble(src, root)
	return m, err, refErr
}
