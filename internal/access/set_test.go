package access

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"

	"prima/internal/access/addr"
	"prima/internal/access/atom"
	"prima/internal/access/btree"
	"prima/internal/catalog"
	"prima/internal/storage/device"
	"prima/internal/storage/segment"
	"prima/internal/storage/wal"
)

// TestInsertSetRollsBackOnWriteFailure: a set with a member whose key does
// not fit its B-tree is refused before anything is written, and no partner
// is updated. A set that fails on a device fault after its first writes is
// rolled back, the failing member included: each member gets its pre-image
// back, in its record and in the access path. Inside a transaction, the
// abort then restores the writes the transaction made before the set.
func TestInsertSetRollsBackOnWriteFailure(t *testing.T) {
	s := newSystem(t)
	author, err := s.Insert("author", map[string]atom.Value{"name": atom.Str("Härder")})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.CreateAccessPath(&catalog.AccessPathDef{Name: "doc_title", AtomType: "doc", Attrs: []string{"title"}, Method: "BTREE"}); err != nil {
		t.Fatal(err)
	}
	set := s.NewAtomSet()
	d1, err := set.Add("doc", map[string]atom.Value{"title": atom.Str("PRIMA"), "authors": atom.RefSet(author)})
	if err != nil {
		t.Fatal(err)
	}
	// A title too long for a B-tree key fails the second member's store.
	if _, err := set.Add("doc", map[string]atom.Value{"title": atom.Str(strings.Repeat("x", 2000)), "authors": atom.RefSet(author)}); err != nil {
		t.Fatal(err)
	}
	if err := s.WriteSet(set); !errors.Is(err, btree.ErrKeyTooLarge) {
		t.Fatalf("WriteSet = %v, want ErrKeyTooLarge", err)
	}
	if s.Directory().Exists(d1) {
		t.Fatalf("member %v stored before the failure is still live", d1)
	}
	if found, err := s.AccessPathSearch("doc_title", []atom.Value{atom.Str("PRIMA")}); err != nil || len(found) != 0 {
		t.Fatalf("access path still finds the rolled-back member: %v, %v", found, err)
	}
	at, err := s.Get(author, nil)
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := at.Value("docs"); len(v.E) != 0 {
		t.Fatalf("partner edited by a failed set: docs = %v", v)
	}
	if err := s.WriteSet(set); !errors.Is(err, ErrSetUsed) {
		t.Fatalf("second WriteSet of a set = %v, want ErrSetUsed", err)
	}

	var docs [3]addr.LogicalAddr
	for i, title := range []string{"gone", "kept", "long"} {
		if docs[i], err = s.Insert("doc", map[string]atom.Value{"title": atom.Str(title), "authors": atom.RefSet(author)}); err != nil {
			t.Fatal(err)
		}
	}
	set = s.NewAtomSet()
	for _, err := range []error{
		set.Delete(docs[0]),
		set.Change(docs[1], "title", atom.Str("retitled")),
		set.Change(docs[2], "title", atom.Str(strings.Repeat("x", 2000))),
	} {
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := s.WriteSet(set); !errors.Is(err, btree.ErrKeyTooLarge) {
		t.Fatalf("WriteSet of a delete and updates = %v, want ErrKeyTooLarge", err)
	}
	for i, title := range []string{"gone", "kept", "long"} {
		d, err := s.Get(docs[i], nil)
		if err != nil {
			t.Fatalf("doc %q after the rollback: %v", title, err)
		}
		if v, _ := d.Value("title"); v.S != title {
			t.Fatalf("doc %q after the rollback is titled %q", title, v.S)
		}
		if found, err := s.AccessPathSearch("doc_title", []atom.Value{atom.Str(title)}); err != nil || len(found) != 1 || found[0] != docs[i] {
			t.Fatalf("access path finds %v for %q after the rollback, %v", found, title, err)
		}
	}
	if at, err = s.Get(author, nil); err != nil {
		t.Fatal(err)
	}
	if v, _ := at.Value("docs"); len(v.E) != 3 {
		t.Fatalf("partner after a rolled-back delete: docs = %v", v)
	}

	// A device fault after the first write. The access path spans several
	// leaves; the pages the first member and the removal of the second's old
	// key need are cached, every other page fails its next read. Retitling
	// the second doc removes its old key, then fails to read the leaf its new
	// key goes to.
	var faults []*transientFault
	s = newSystemWith(t, Config{FileWrap: func(name string, d device.Device) device.Device {
		f := &transientFault{device.NewFault(d)}
		if strings.HasPrefix(name, "appath_") {
			faults = append(faults, f)
		}
		return f
	}})
	if err := s.CreateAccessPath(&catalog.AccessPathDef{Name: "doc_title", AtomType: "doc", Attrs: []string{"title"}, Method: "BTREE"}); err != nil {
		t.Fatal(err)
	}
	title := func(i int) string { return fmt.Sprintf("t%03d%s", i, strings.Repeat("-", 60)) }
	var many []addr.LogicalAddr
	for i := range 300 {
		d, err := s.Insert("doc", map[string]atom.Value{"title": atom.Str(title(i))})
		if err != nil {
			t.Fatal(err)
		}
		many = append(many, d)
	}
	failingSet := func(w Writer) error {
		t.Helper()
		if err := s.Pool().FlushAll(); err != nil {
			t.Fatal(err)
		}
		tree := s.accessPaths["doc_title"].tree
		tree.Segment().ForAllocated(func(no uint32) bool {
			if err := s.Pool().Invalidate(segment.PageID{Seg: tree.Segment().ID(), No: no}); err != nil {
				t.Fatal(err)
			}
			return true
		})
		for i := range 2 {
			if _, err := s.AccessPathSearch("doc_title", []atom.Value{atom.Str(title(i))}); err != nil {
				t.Fatal(err)
			}
		}
		if len(faults) != 1 {
			t.Fatalf("%d access-path devices", len(faults))
		}
		faults[0].failAll()
		set := s.NewAtomSet()
		if err := set.Change(many[0], "title", atom.Str(title(0)+"b")); err != nil {
			t.Fatal(err)
		}
		if err := set.Change(many[1], "title", atom.Str(title(999))); err != nil {
			t.Fatal(err)
		}
		return w.WriteSet(set)
	}
	checkTitles := func(when string) {
		t.Helper()
		for i, d := range many[:3] {
			at, err := s.Get(d, nil)
			if err != nil {
				t.Fatal(err)
			}
			if v, _ := at.Value("title"); v.S != title(i) {
				t.Fatalf("%s: doc %d is titled %.4s", when, i, v.S)
			}
			if found, err := s.AccessPathSearch("doc_title", []atom.Value{atom.Str(title(i))}); err != nil || len(found) != 1 || found[0] != d {
				t.Fatalf("%s: access path finds %v for doc %d, %v", when, found, i, err)
			}
		}
		for _, gone := range []string{title(0) + "b", title(999), "x"} {
			if found, err := s.AccessPathSearch("doc_title", []atom.Value{atom.Str(gone)}); err != nil || len(found) != 0 {
				t.Fatalf("%s: access path finds %v for %.4s, %v", when, found, gone, err)
			}
		}
	}
	if err := failingSet(s.Writer(0, nil)); !errors.Is(err, device.ErrInjected) {
		t.Fatalf("WriteSet past a device fault = %v, want ErrInjected", err)
	}
	checkTitles("after the rollback")

	// The same set inside a transaction, after a write of its own: the set
	// rolls itself back, and the abort restores the earlier write.
	tx := &undoScope{}
	w := s.Writer(1, tx)
	if err := w.Update(many[2], map[string]atom.Value{"title": atom.Str("x")}); err != nil {
		t.Fatal(err)
	}
	if err := failingSet(w); !errors.Is(err, device.ErrInjected) {
		t.Fatalf("WriteSet past a device fault in a transaction = %v, want ErrInjected", err)
	}
	if len(tx.log) != 1 {
		t.Fatalf("the transaction holds %d undo entries, want 1", len(tx.log))
	}
	if err := tx.abort(w); err != nil {
		t.Fatal(err)
	}
	checkTitles("after the abort")
}

// transientFault is a fault device whose scheduled read faults clear at the
// first one that fires: a device that fails one read and then recovers.
type transientFault struct{ *device.FaultDevice }

// failAll schedules a read fault on every block.
func (f *transientFault) failAll() {
	for i := range f.Blocks() {
		f.FailBlock(i)
	}
}

func (f *transientFault) healAll() {
	for i := range f.Blocks() {
		f.HealBlock(i)
	}
}

func (f *transientFault) ReadBlock(idx int, p []byte) error {
	err := f.FaultDevice.ReadBlock(idx, p)
	if err != nil {
		f.healAll()
	}
	return err
}

func (f *transientFault) ReadChain(first, count int, p []byte) error {
	err := f.FaultDevice.ReadChain(first, count, p)
	if err != nil {
		f.healAll()
	}
	return err
}

// undoScope is a transaction's scope reduced to its undo log (txn.Tx,
// which imports this package, keeps the same): it admits every write,
// records each completed write's pre-image, and aborts by restoring them,
// newest first.
type undoScope struct {
	log []undoEntry
}

type undoEntry struct {
	a   addr.LogicalAddr
	pre []atom.Value
}

func (u *undoScope) Acquire(addr.LogicalAddr) error { return nil }

func (u *undoScope) Release(a addr.LogicalAddr, kind wal.Kind, pre []atom.Value, err error) {
	if err == nil && kind != 0 {
		u.log = append(u.log, undoEntry{a, slices.Clone(pre)})
	}
}

func (u *undoScope) abort(w Writer) error {
	for i := len(u.log) - 1; i >= 0; i-- {
		if err := w.Restore(u.log[i].a, u.log[i].pre); err != nil {
			return err
		}
	}
	return nil
}
