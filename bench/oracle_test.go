package main

import (
	"strconv"
	"testing"

	"prima/internal/wire"
	"prima/internal/workload/brepgen"
)

// cubeJSON builds the wire form of cube k whose faces (in address order)
// show the given square_dims.
func cubeJSON(k int, dims [brepgen.CubeFaces]float64) wire.MoleculeJSON {
	base := uint64(k) * 100
	m := wire.MoleculeJSON{Root: base}
	m.Atoms = append(m.Atoms, wire.AtomJSON{Addr: base, Type: "brep", Values: map[string]string{"brep_no": strconv.Itoa(k)}})
	// Faces in descending address order: the oracle must sort them.
	for i := brepgen.CubeFaces - 1; i >= 0; i-- {
		m.Atoms = append(m.Atoms, wire.AtomJSON{Addr: base + 1 + uint64(i), Type: "face",
			Values: map[string]string{"square_dim": strconv.FormatFloat(dims[i], 'g', -1, 64)}})
	}
	for i := 0; i < brepgen.CubeEdges+brepgen.CubePoints; i++ {
		m.Atoms = append(m.Atoms, wire.AtomJSON{Addr: base + 10 + uint64(i), Type: "edge"})
	}
	return m
}

func TestOracle(t *testing.T) {
	const k = 3 // initial square_dim (1+3%7)^2 = 16
	o := newOracle(5)
	fresh := [6]float64{16, 16, 16, 16, 16, 16}
	if _, _, err := o.checkPoint([]wire.MoleculeJSON{cubeJSON(k, fresh)}, k); err != nil {
		t.Fatalf("fresh cube rejected: %v", err)
	}
	if _, _, err := o.checkPoint([]wire.MoleculeJSON{cubeJSON(k, fresh)}, 4); err == nil {
		t.Error("cube 3 accepted as the answer to cube 4")
	}
	short := cubeJSON(k, fresh)
	short.Atoms = short.Atoms[:len(short.Atoms)-1]
	if _, _, err := o.checkPoint([]wire.MoleculeJSON{short}, k); err == nil {
		t.Error("a cube of 26 atoms accepted")
	}

	o.acked(k, 101)
	o.acked(k, 102)
	check := func(name string, dims [6]float64, wantStale, wantErr bool) {
		t.Helper()
		m := cubeJSON(k, dims)
		_, faces, stale, err := o.checkMolecule(&m)
		if (err != nil) != wantErr || (err == nil && stale != wantStale) {
			t.Errorf("%s: stale %v err %v, want stale %v error %v", name, stale, err, wantStale, wantErr)
		}
		if err == nil && (faces[0] != 301 || faces[5] != 306) {
			t.Errorf("%s: faces %v not in address order", name, faces)
		}
	}
	check("acknowledged revision", [6]float64{102, 102, 102, 16, 16, 16}, false, false)
	check("previous revision", [6]float64{101, 101, 101, 16, 16, 16}, true, false)
	check("part of the checkin missed", [6]float64{102, 101, 101, 16, 16, 16}, true, false)
	check("older than the previous revision", [6]float64{16, 16, 16, 16, 16, 16}, false, true)
	check("an unrevised face changed", [6]float64{102, 102, 102, 102, 16, 16}, false, true)

	// After a restart nothing may be stale, missing or doubled.
	all := func(dims3 [6]float64) []wire.MoleculeJSON {
		var mols []wire.MoleculeJSON
		for c := 1; c <= 5; c++ {
			d := initialDim(c)
			dims := [6]float64{d, d, d, d, d, d}
			if c == k {
				dims = dims3
			}
			mols = append(mols, cubeJSON(c, dims))
		}
		return mols
	}
	if bad, err := o.verifyAll(all([6]float64{102, 102, 102, 16, 16, 16})); bad != 0 {
		t.Errorf("good design: %d bad cubes: %v", bad, err)
	}
	if bad, _ := o.verifyAll(all([6]float64{101, 101, 101, 16, 16, 16})); bad != 1 {
		t.Errorf("stale cube after restart: %d bad cubes, want 1", bad)
	}
	good := all([6]float64{102, 102, 102, 16, 16, 16})
	if bad, _ := o.verifyAll(good[:4]); bad != 1 {
		t.Errorf("missing cube: %d bad cubes, want 1", bad)
	}
	if bad, _ := o.verifyAll(append(good[:4:4], good[0])); bad != 1 {
		t.Errorf("doubled cube: %d bad cubes, want 1", bad)
	}
}

// A stale read is excused only by another client's checkin in flight at some
// moment of the read.
func TestOverlapped(t *testing.T) {
	o := newOracle(1)
	mark := o.readBegin()
	if o.overlapped(mark) {
		t.Error("a read with no checkin anywhere counts as overlapped")
	}
	o.writeBegin()
	o.writeEnd()
	if !o.overlapped(mark) {
		t.Error("a checkin that began and ended during the read does not count")
	}
	if o.overlapped(o.readBegin()) {
		t.Error("a checkin that ended before the read counts")
	}
	o.writeBegin()
	mark = o.readBegin()
	o.writeEnd()
	if !o.overlapped(mark) {
		t.Error("a checkin in flight when the read began does not count")
	}
}
