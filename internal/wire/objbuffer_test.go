package wire

import (
	"fmt"
	"maps"
	"reflect"
	"runtime"
	"testing"

	"prima"
	"prima/internal/race"
	"prima/internal/workload/brepgen"
)

// firstOf returns the first atom of the given type in m.
func firstOf(t *testing.T, m MoleculeJSON, typeName string) AtomJSON {
	t.Helper()
	for _, a := range m.Atoms {
		if a.Type == typeName {
			return a
		}
	}
	t.Fatalf("molecule %d holds no %s", m.Root, typeName)
	return AtomJSON{}
}

// TestCheckoutResultIndependentOfBuffer pins that a checkout's result and
// the object buffer share nothing: the caller may edit the molecules it got,
// and staging a modification rewrites none of them.
func TestCheckoutResultIndependentOfBuffer(t *testing.T) {
	_, srv := startServer(t)
	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	const cube = `SELECT ALL FROM brep-face-edge-point WHERE brep_no = 2`
	mols, err := c.Checkout(cube)
	if err != nil || len(mols) != 1 {
		t.Fatalf("Checkout: %d molecules, %v", len(mols), err)
	}
	face := firstOf(t, mols[0], "face")
	asCheckedOut := AtomJSON{face.Addr, face.Type, maps.Clone(face.Values)}
	if got, ok := c.Local(face.Addr); !ok || !reflect.DeepEqual(got, asCheckedOut) {
		t.Fatalf("Local = %+v, %v; checked out %+v", got, ok, asCheckedOut)
	}

	// The caller edits its molecule: the buffer does not notice.
	face.Values["square_dim"] = "-1"
	delete(face.Values, "face_id")
	if got, _ := c.Local(face.Addr); !reflect.DeepEqual(got, asCheckedOut) {
		t.Fatalf("editing the checkout result changed the object buffer: %+v, checked out %+v", got, asCheckedOut)
	}
	if got, _ := c.Local(face.Addr); &got.Values == &asCheckedOut.Values {
		t.Fatal("Local hands out one map twice")
	}

	// A staged literal shows in Local and nowhere in the caller's molecule.
	maps.Copy(face.Values, asCheckedOut.Values)
	if err := c.StageModify("face", face.Addr, "square_dim", "123.5"); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(face.Values, asCheckedOut.Values) {
		t.Fatalf("StageModify rewrote the checkout result: %v", face.Values)
	}
	staged := AtomJSON{face.Addr, face.Type, maps.Clone(asCheckedOut.Values)}
	staged.Values["square_dim"] = "123.5"
	if got, _ := c.Local(face.Addr); !reflect.DeepEqual(got, staged) {
		t.Fatalf("Local = %+v, want the staged literal over the image: %+v", got, staged)
	}

	// Checking the molecule out again replaces image and overlay: the
	// statement stays staged, the buffer shows what the server holds.
	if _, err := c.Checkout(cube); err != nil {
		t.Fatal(err)
	}
	if got, _ := c.Local(face.Addr); !reflect.DeepEqual(got, asCheckedOut) {
		t.Fatalf("Local after a repeated checkout = %+v, want %+v", got, asCheckedOut)
	}
	if len(c.Pending()) != 1 {
		t.Fatalf("pending = %v", c.Pending())
	}
}

// TestObjectBufferFootprint pins what the object buffer costs the workstation
// once a design has been checked out molecule by molecule: the atoms' images
// in one blob per molecule and the map's own slots, not a rendered map per
// atom. Server and client share the process, so a first client warms the
// server's buffer and caches with the same sweep and leaves; what the heap
// grows by under the second sweep is the second client's object buffer.
func TestObjectBufferFootprint(t *testing.T) {
	if race.Enabled || testing.Short() {
		t.Skip("heap accounting needs an uninstrumented build and a 1,000-cube scene")
	}
	const cubes = 1000
	db, err := prima.Open(prima.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if _, err := db.Exec(brepgen.SchemaDDL); err != nil {
		t.Fatal(err)
	}
	if _, err := brepgen.BuildScene(db.Engine(), cubes); err != nil {
		t.Fatal(err)
	}
	srv, err := Serve(db, "")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	sweep := func() *Client {
		c, err := Dial(srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		for k := 1; k <= cubes; k++ {
			mols, err := c.Checkout(fmt.Sprintf(`SELECT ALL FROM brep-face-edge-point WHERE brep_no = %d`, k))
			if err != nil || len(mols) != 1 || len(mols[0].Atoms) != brepgen.CubeAtoms {
				t.Fatalf("cube %d: %d molecules, %v", k, len(mols), err)
			}
		}
		return c
	}
	heap := func() (bytes, objects uint64) {
		runtime.GC()
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return m.HeapAlloc, m.HeapObjects
	}
	sweep().Close()
	bytes0, objects0 := heap()
	c := sweep()
	defer c.Close()
	bytes1, objects1 := heap()

	atoms := cubes * brepgen.CubeAtoms
	if n := len(c.buffer); n != atoms {
		t.Fatalf("object buffer holds %d atoms, want %d", n, atoms)
	}
	perAtom := float64(int64(bytes1-bytes0)) / float64(atoms)
	perMolecule := float64(int64(objects1-objects0)) / cubes
	t.Logf("object buffer: %.0f heap bytes per atom, %.2f heap objects per molecule", perAtom, perMolecule)
	if perAtom > 256 {
		t.Errorf("%.0f heap bytes per buffered atom, budget 256", perAtom)
	}
	if perMolecule > 4 {
		t.Errorf("%.2f heap objects per buffered molecule, budget 4 (its blob, and its share of the map)", perMolecule)
	}
	runtime.KeepAlive(c)
}
