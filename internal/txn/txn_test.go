package txn

import (
	"errors"
	"testing"

	"prima/internal/access"
	"prima/internal/access/addr"
	"prima/internal/access/atom"
	"prima/internal/catalog"
)

// newSys builds an in-memory access system with a parts/links schema (n:m).
func newSys(t testing.TB) *access.System {
	t.Helper()
	sys, err := access.Open(access.Config{})
	if err != nil {
		t.Fatal(err)
	}
	part, err := catalog.NewAtomType("part", []catalog.Attribute{
		{Name: "id", Type: catalog.SpecIdent()},
		{Name: "no", Type: catalog.SpecInt()},
		{Name: "uses", Type: catalog.SpecSetOf(catalog.SpecRef("part", "used_by"), 0, catalog.VarCard)},
		{Name: "used_by", Type: catalog.SpecSetOf(catalog.SpecRef("part", "uses"), 0, catalog.VarCard)},
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Schema().AddAtomType(part); err != nil {
		t.Fatal(err)
	}
	if err := sys.Schema().ResolveAssociations(); err != nil {
		t.Fatal(err)
	}
	return sys
}

func TestAbortUndoesInsertUpdateDelete(t *testing.T) {
	sys := newSys(t)
	m := NewManager(sys)

	// Pre-existing atom.
	base, err := sys.Insert("part", map[string]atom.Value{"no": atom.Int(1)})
	if err != nil {
		t.Fatal(err)
	}

	tx := m.Begin()
	var inserted addr.LogicalAddr
	err = tx.Do(func(w access.Writer) error {
		var err error
		if inserted, err = w.Insert("part", map[string]atom.Value{"no": atom.Int(2)}); err != nil {
			return err
		}
		if err := w.Update(base, map[string]atom.Value{"no": atom.Int(99)}); err != nil {
			return err
		}
		return nil
	})
	if err != nil {
		t.Fatalf("Do: %v", err)
	}
	if err := tx.Abort(); err != nil {
		t.Fatalf("Abort: %v", err)
	}

	// Insert undone.
	if sys.Directory().Exists(inserted) {
		t.Fatal("aborted insert still exists")
	}
	// Update undone.
	at, err := sys.Get(base, nil)
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := at.Value("no"); v.I != 1 {
		t.Fatalf("no = %d after abort, want 1", v.I)
	}

	// Delete undo restores the atom under the same address.
	tx2 := m.Begin()
	err = tx2.Do(func(w access.Writer) error { return w.Delete(base) })
	if err != nil {
		t.Fatal(err)
	}
	if sys.Directory().Exists(base) {
		t.Fatal("delete not applied")
	}
	if err := tx2.Abort(); err != nil {
		t.Fatalf("Abort: %v", err)
	}
	at, err = sys.Get(base, nil)
	if err != nil {
		t.Fatalf("restored atom unreadable: %v", err)
	}
	if v, _ := at.Value("no"); v.I != 1 {
		t.Fatalf("restored no = %d", v.I)
	}
}

func TestAbortRestoresReferenceSymmetry(t *testing.T) {
	sys := newSys(t)
	m := NewManager(sys)
	a, _ := sys.Insert("part", map[string]atom.Value{"no": atom.Int(1)})
	b, _ := sys.Insert("part", map[string]atom.Value{"no": atom.Int(2)})
	if err := sys.Connect(a, "uses", b); err != nil {
		t.Fatal(err)
	}

	tx := m.Begin()
	// Delete b inside the transaction: a loses its reference.
	if err := tx.Do(func(w access.Writer) error { return w.Delete(b) }); err != nil {
		t.Fatal(err)
	}
	at, _ := sys.Get(a, nil)
	if v, _ := at.Value("uses"); v.ContainsRef(b) {
		t.Fatal("reference not removed by delete")
	}
	if err := tx.Abort(); err != nil {
		t.Fatalf("Abort: %v", err)
	}
	// Both the atom and the symmetric references are back.
	at, _ = sys.Get(a, nil)
	if v, _ := at.Value("uses"); !v.ContainsRef(b) {
		t.Fatal("forward reference not restored by abort")
	}
	bt, err := sys.Get(b, nil)
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := bt.Value("used_by"); !v.ContainsRef(a) {
		t.Fatal("back reference not restored by abort")
	}
}

func TestNestedCommitAndSelectiveAbort(t *testing.T) {
	sys := newSys(t)
	m := NewManager(sys)

	parent := m.Begin()
	var p1, p2 addr.LogicalAddr
	if err := parent.Do(func(w access.Writer) error {
		var err error
		p1, err = w.Insert("part", map[string]atom.Value{"no": atom.Int(10)})
		return err
	}); err != nil {
		t.Fatal(err)
	}

	// Child 1 commits: its effects stay.
	c1, err := parent.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := c1.Do(func(w access.Writer) error {
		var err error
		p2, err = w.Insert("part", map[string]atom.Value{"no": atom.Int(11)})
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if err := c1.Commit(); err != nil {
		t.Fatal(err)
	}

	// Child 2 aborts: only its sphere rolls back.
	c2, err := parent.Begin()
	if err != nil {
		t.Fatal(err)
	}
	var p3 addr.LogicalAddr
	if err := c2.Do(func(w access.Writer) error {
		var err error
		p3, err = w.Insert("part", map[string]atom.Value{"no": atom.Int(12)})
		if err != nil {
			return err
		}
		return w.Update(p1, map[string]atom.Value{"no": atom.Int(1000)})
	}); err != nil {
		t.Fatal(err)
	}
	if err := c2.Abort(); err != nil {
		t.Fatal(err)
	}

	if sys.Directory().Exists(p3) {
		t.Fatal("aborted child's insert survived")
	}
	if !sys.Directory().Exists(p2) {
		t.Fatal("committed child's insert rolled back by sibling abort")
	}
	at, _ := sys.Get(p1, nil)
	if v, _ := at.Value("no"); v.I != 10 {
		t.Fatalf("child abort did not restore parent's atom: no=%d", v.I)
	}

	// Parent abort now also undoes the committed child (log inheritance).
	if err := parent.Abort(); err != nil {
		t.Fatal(err)
	}
	if sys.Directory().Exists(p1) || sys.Directory().Exists(p2) {
		t.Fatal("parent abort did not undo inherited child effects")
	}
}

func TestLockConflictBetweenTopLevel(t *testing.T) {
	sys := newSys(t)
	m := NewManager(sys)
	a, _ := sys.Insert("part", map[string]atom.Value{"no": atom.Int(1)})

	t1 := m.Begin()
	if err := t1.Do(func(w access.Writer) error {
		return w.Update(a, map[string]atom.Value{"no": atom.Int(2)})
	}); err != nil {
		t.Fatal(err)
	}

	// A sibling top-level transaction conflicts.
	t2 := m.Begin()
	err := t2.Do(func(w access.Writer) error {
		return w.Update(a, map[string]atom.Value{"no": atom.Int(3)})
	})
	if !errors.Is(err, ErrLockConflict) {
		t.Fatalf("conflicting write = %v, want ErrLockConflict", err)
	}
	if err := t2.Abort(); err != nil {
		t.Fatal(err)
	}

	// Autocommit writes also respect the lock.
	if err := m.Autocommit().Update(a, map[string]atom.Value{"no": atom.Int(4)}); !errors.Is(err, ErrLockConflict) {
		t.Fatalf("autocommit bypassed lock: %v", err)
	}

	// After commit the atom is free again.
	if err := t1.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := sys.Update(a, map[string]atom.Value{"no": atom.Int(5)}); err != nil {
		t.Fatalf("write after commit: %v", err)
	}
	at, _ := sys.Get(a, nil)
	if v, _ := at.Value("no"); v.I != 5 {
		t.Fatalf("no = %d", v.I)
	}
}

func TestChildMayUseParentLocks(t *testing.T) {
	sys := newSys(t)
	m := NewManager(sys)
	a, _ := sys.Insert("part", map[string]atom.Value{"no": atom.Int(1)})

	parent := m.Begin()
	if err := parent.Do(func(w access.Writer) error {
		return w.Update(a, map[string]atom.Value{"no": atom.Int(2)})
	}); err != nil {
		t.Fatal(err)
	}
	child, err := parent.Begin()
	if err != nil {
		t.Fatal(err)
	}
	// Moss: the child may acquire a lock its ancestor holds.
	if err := child.Do(func(w access.Writer) error {
		return w.Update(a, map[string]atom.Value{"no": atom.Int(3)})
	}); err != nil {
		t.Fatalf("child blocked by ancestor lock: %v", err)
	}
	if err := child.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := parent.Commit(); err != nil {
		t.Fatal(err)
	}
	at, _ := sys.Get(a, nil)
	if v, _ := at.Value("no"); v.I != 3 {
		t.Fatalf("no = %d", v.I)
	}
}

func TestLifecycleErrors(t *testing.T) {
	sys := newSys(t)
	m := NewManager(sys)

	tx := m.Begin()
	child, err := tx.Begin()
	if err != nil {
		t.Fatal(err)
	}
	// Parent cannot finish with active children.
	if err := tx.Commit(); !errors.Is(err, ErrChildActive) {
		t.Fatalf("commit with child = %v", err)
	}
	if err := tx.Abort(); !errors.Is(err, ErrChildActive) {
		t.Fatalf("abort with child = %v", err)
	}
	if err := child.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	// Double finish.
	if err := tx.Commit(); !errors.Is(err, ErrDone) {
		t.Fatalf("double commit = %v", err)
	}
	if err := tx.Abort(); !errors.Is(err, ErrDone) {
		t.Fatalf("abort after commit = %v", err)
	}
	// Do on a finished transaction.
	if err := tx.Do(func(access.Writer) error { return nil }); !errors.Is(err, ErrDone) {
		t.Fatalf("Do after commit = %v", err)
	}
	// Begin on a finished transaction.
	if _, err := tx.Begin(); !errors.Is(err, ErrDone) {
		t.Fatalf("Begin after commit = %v", err)
	}
}

func TestAbortUndoesAllEntriesDespiteFailures(t *testing.T) {
	sys := newSys(t)
	m := NewManager(sys)

	base, err := sys.Insert("part", map[string]atom.Value{"no": atom.Int(1)})
	if err != nil {
		t.Fatal(err)
	}

	tx := m.Begin()
	var inserted addr.LogicalAddr
	err = tx.Do(func(w access.Writer) error {
		var err error
		if inserted, err = w.Insert("part", map[string]atom.Value{"no": atom.Int(2)}); err != nil {
			return err
		}
		return w.Update(base, map[string]atom.Value{"no": atom.Int(99)})
	})
	if err != nil {
		t.Fatalf("Do: %v", err)
	}

	// Inject an undoable-looking entry whose undo must fail: an atom of a
	// type the schema does not have. Undo runs in reverse order, so this
	// entry fails first — the real entries after it must still be undone.
	bogus := addr.New(base.Type()+1000, 1)
	tx.log = append(tx.log, logEntry{a: bogus})

	if err := tx.Abort(); err == nil {
		t.Fatal("Abort succeeded despite an impossible undo entry")
	}

	// The failing entry did not stop the rest of the rollback.
	if sys.Directory().Exists(inserted) {
		t.Fatal("insert after the failing entry was not undone")
	}
	at, err := sys.Get(base, nil)
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := at.Value("no"); v.I != 1 {
		t.Fatalf("update after the failing entry not undone: no = %d", v.I)
	}

	// The manager is poisoned: all further work is refused.
	dead := m.Begin()
	if err := dead.Do(func(access.Writer) error { return nil }); !errors.Is(err, ErrPoisoned) {
		t.Fatalf("Do on stillborn tx = %v, want ErrPoisoned", err)
	}
	if err := dead.Commit(); !errors.Is(err, ErrPoisoned) {
		t.Fatalf("Commit on stillborn tx = %v, want ErrPoisoned", err)
	}
	if err := dead.Abort(); !errors.Is(err, ErrPoisoned) {
		t.Fatalf("Abort on stillborn tx = %v, want ErrPoisoned", err)
	}
	if _, err := dead.Begin(); !errors.Is(err, ErrPoisoned) {
		t.Fatalf("nested Begin on stillborn tx = %v, want ErrPoisoned", err)
	}
	// Autocommit writes are blocked too.
	if _, err := m.Autocommit().Insert("part", map[string]atom.Value{"no": atom.Int(3)}); !errors.Is(err, ErrPoisoned) {
		t.Fatalf("autocommit insert on poisoned manager = %v, want ErrPoisoned", err)
	}
}

// TestAbortUndoesInsertSet: a set inserted in a transaction is undone by
// its abort, every member and every partner edit; a set whose partner
// another transaction holds fails before writing anything.
func TestAbortUndoesInsertSet(t *testing.T) {
	sys := newSys(t)
	m := NewManager(sys)
	b1, err := sys.Insert("part", map[string]atom.Value{"no": atom.Int(1)})
	if err != nil {
		t.Fatal(err)
	}
	b2, err := sys.Insert("part", map[string]atom.Value{"no": atom.Int(2)})
	if err != nil {
		t.Fatal(err)
	}
	usedBy := func(a addr.LogicalAddr) atom.Value {
		t.Helper()
		at, err := sys.Get(a, nil)
		if err != nil {
			t.Fatal(err)
		}
		v, _ := at.Value("used_by")
		return v
	}
	var members []addr.LogicalAddr
	insertSet := func(w access.Writer) error {
		set := sys.NewAtomSet()
		m1, err := set.Add("part", map[string]atom.Value{"no": atom.Int(10), "uses": atom.RefSet(b1)})
		if err != nil {
			return err
		}
		m2, err := set.Add("part", map[string]atom.Value{"no": atom.Int(11), "uses": atom.RefSet(b1, b2, m1)})
		if err != nil {
			return err
		}
		members = []addr.LogicalAddr{m1, m2}
		return w.WriteSet(set)
	}

	tx := m.Begin()
	if err := tx.Do(insertSet); err != nil {
		t.Fatal(err)
	}
	if v := usedBy(b1); !v.ContainsRef(members[0]) || !v.ContainsRef(members[1]) {
		t.Fatalf("b1.used_by = %v inside the transaction, want both members", v)
	}
	if v := usedBy(members[0]); !v.ContainsRef(members[1]) {
		t.Fatalf("m1.used_by = %v, want m2", v)
	}
	if err := tx.Abort(); err != nil {
		t.Fatal(err)
	}
	for _, a := range members {
		if sys.Directory().Exists(a) {
			t.Fatalf("member %v survived the abort", a)
		}
	}
	for _, b := range []addr.LogicalAddr{b1, b2} {
		if v := usedBy(b); len(v.E) != 0 {
			t.Fatalf("partner %v.used_by = %v after the abort, want empty", b, v)
		}
	}

	holder := m.Begin()
	if err := holder.Do(func(w access.Writer) error {
		return w.Update(b2, map[string]atom.Value{"no": atom.Int(20)})
	}); err != nil {
		t.Fatal(err)
	}
	tx = m.Begin()
	if err := tx.Do(insertSet); !errors.Is(err, ErrLockConflict) {
		t.Fatalf("set over a held partner: %v, want ErrLockConflict", err)
	}
	for _, a := range members {
		if sys.Directory().Exists(a) {
			t.Fatalf("member %v of a refused set is live", a)
		}
	}
	if v := usedBy(b1); len(v.E) != 0 {
		t.Fatalf("a refused set edited b1.used_by to %v", v)
	}
	if err := tx.Abort(); err != nil {
		t.Fatal(err)
	}
	if err := holder.Commit(); err != nil {
		t.Fatal(err)
	}
}
