package main

import (
	"fmt"
	"sort"
	"strconv"
	"sync/atomic"

	"prima/internal/wire"
	"prima/internal/workload/brepgen"
)

// revisedFaces is how many faces of a cube one checkin modifies: the first
// three in address order.
const revisedFaces = 3

// oracle knows what every checkout must return: 27 atoms per cube, the
// requested brep_no at the root, and on the revised faces the square_dim of
// the last acknowledged checkin. expect is indexed by cube number; a cube's
// entry is written only by the client that owns the cube.
//
// One departure is counted apart instead of failed, and only under the
// condition that explains it. A checkout reads at the newest epoch below
// every write still in flight, and a checkin is three MODIFY statements,
// each a write of its own. So while another client's older write is in
// flight, a client's next read can miss some or all of its own checkin that
// the server has already acknowledged, and shows the revision before it on
// those faces. That is what the kernel does today (access/mvcc.go: a
// snapshot opens at min(active)-1). Such a read is a stale read if another
// client's checkin was in flight at some moment of it (readBegin,
// overlapped); with no other checkin in flight, as in the traced run's
// single-goroutine replays, and after the restart, it is a failure like any
// other wrong answer.
type oracle struct {
	expect []float64
	prev   []float64 // the revision acknowledged before expect

	// Checkin round trips in flight now, and begun so far. A client waits
	// for its own checkin before it reads, so whatever a reader finds here
	// is another client's.
	writing atomic.Int32
	begun   atomic.Int64
}

func (o *oracle) writeBegin() {
	o.begun.Add(1)
	o.writing.Add(1)
}

func (o *oracle) writeEnd() { o.writing.Add(-1) }

// readMark is what a reader notes before its checkout.
type readMark struct {
	begun   int64
	writing bool
}

func (o *oracle) readBegin() readMark {
	begun := o.begun.Load()
	return readMark{begun, o.writing.Load() > 0}
}

// overlapped reports whether a checkin was in flight when the read that
// took mark began, or began since.
func (o *oracle) overlapped(mark readMark) bool {
	return mark.writing || o.begun.Load() != mark.begun
}

// acked records that cube k's checkin of revision rev was acknowledged.
func (o *oracle) acked(k int, rev float64) {
	o.prev[k], o.expect[k] = o.expect[k], rev
}

// initialDim is the square_dim brepgen.BuildScene gives every face of cube k.
func initialDim(k int) float64 {
	size := 1 + float64(k%7)
	return size * size
}

func newOracle(cubes int) *oracle {
	o := &oracle{expect: make([]float64, cubes+1), prev: make([]float64, cubes+1)}
	for k := 1; k <= cubes; k++ {
		o.expect[k], o.prev[k] = initialDim(k), initialDim(k)
	}
	return o
}

// checkMolecule verifies one checked-out cube and returns its number and its
// face addresses in ascending order. stale reports that at least one revised
// face shows the revision before the last acknowledged one.
func (o *oracle) checkMolecule(m *wire.MoleculeJSON) (cube int, faces []uint64, stale bool, err error) {
	if len(m.Atoms) != brepgen.CubeAtoms {
		return 0, nil, false, fmt.Errorf("molecule @%d has %d atoms, want %d", m.Root, len(m.Atoms), brepgen.CubeAtoms)
	}
	dims := make(map[uint64]string, brepgen.CubeFaces)
	for i := range m.Atoms {
		a := &m.Atoms[i]
		switch {
		case a.Addr == m.Root:
			if cube, err = strconv.Atoi(a.Values["brep_no"]); err != nil || a.Type != "brep" {
				return 0, nil, false, fmt.Errorf("root @%d is a %s with brep_no %q", m.Root, a.Type, a.Values["brep_no"])
			}
		case a.Type == "face":
			faces = append(faces, a.Addr)
			dims[a.Addr] = a.Values["square_dim"]
		}
	}
	if cube < 1 || cube >= len(o.expect) {
		return 0, nil, false, fmt.Errorf("molecule @%d: brep_no %d outside the scene", m.Root, cube)
	}
	if len(faces) != brepgen.CubeFaces {
		return 0, nil, false, fmt.Errorf("cube %d has %d faces, want %d", cube, len(faces), brepgen.CubeFaces)
	}
	sort.Slice(faces, func(i, j int) bool { return faces[i] < faces[j] })
	for i, f := range faces {
		got, err := strconv.ParseFloat(dims[f], 64)
		switch {
		case err != nil:
		case i >= revisedFaces && got == initialDim(cube):
			continue
		case i < revisedFaces && got == o.expect[cube]:
			continue
		case i < revisedFaces && got == o.prev[cube]:
			stale = true
			continue
		}
		return 0, nil, false, fmt.Errorf("cube %d face %d: square_dim %q, want %v", cube, i, dims[f], o.expect[cube])
	}
	return cube, faces, stale, nil
}

// checkPoint verifies the answer to a point checkout of cube want.
func (o *oracle) checkPoint(mols []wire.MoleculeJSON, want int) (faces []uint64, stale bool, err error) {
	if len(mols) != 1 {
		return nil, false, fmt.Errorf("cube %d: %d molecules, want 1", want, len(mols))
	}
	cube, faces, stale, err := o.checkMolecule(&mols[0])
	if err != nil {
		return nil, false, err
	}
	if cube != want {
		return nil, false, fmt.Errorf("asked for cube %d, got cube %d", want, cube)
	}
	return faces, stale, nil
}

// verifyAll checks the answer to the full-design checkout: every cube of
// the scene exactly once, each as checkMolecule wants it and none stale. It
// returns how many cubes are wrong or missing and the first violation.
func (o *oracle) verifyAll(mols []wire.MoleculeJSON) (bad int, first error) {
	cubes := len(o.expect) - 1
	seen := make([]bool, cubes+1)
	good := 0
	for i := range mols {
		cube, _, stale, err := o.checkMolecule(&mols[i])
		switch {
		case err != nil:
		case stale:
			err = fmt.Errorf("full design: cube %d shows revision %v, not the acknowledged %v", cube, o.prev[cube], o.expect[cube])
		case seen[cube]:
			err = fmt.Errorf("full design: cube %d delivered twice", cube)
		}
		if err != nil {
			if first == nil {
				first = err
			}
			continue
		}
		seen[cube] = true
		good++
	}
	if good < cubes && first == nil {
		first = fmt.Errorf("full design: %d molecules, want %d", len(mols), cubes)
	}
	return cubes - good, first
}
