package core_test

import (
	"fmt"
	"strings"
	"testing"

	"prima/internal/access"
	"prima/internal/core"
	"prima/internal/workload/brepgen"
)

// walEngine builds an engine over a logged database with the Fig. 2.3 schema
// and background checkpoints off, so every log record is a mutation's.
func walEngine(t *testing.T) (*core.Engine, *access.System) {
	t.Helper()
	sys, err := access.Open(access.Config{Dir: t.TempDir(), WAL: true, WALCheckpointBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sys.Close() })
	e := core.New(sys)
	if err := brepgen.InstallSchema(e); err != nil {
		t.Fatal(err)
	}
	return e, sys
}

// appends returns the number of log records appended so far.
func appends(t *testing.T, sys *access.System) uint64 {
	t.Helper()
	st, ok := sys.WALStats()
	if !ok {
		t.Fatal("no write-ahead log")
	}
	return st.Appends
}

// TestMultiRowInsertUpdatesPartnerOnce: the rows of one INSERT are one atom
// set, so ten faces that reference one brep are ten log records, the brep's
// one partner update, which gives it all ten back-references, and the set's
// commit mark.
func TestMultiRowInsertUpdatesPartnerOnce(t *testing.T) {
	e, sys := walEngine(t)
	brep := mustQuery(t, e, `INSERT INTO brep (brep_no) VALUES (1)`).Inserted[0]
	rows := make([]string, 10)
	for i := range rows {
		rows[i] = fmt.Sprintf("(%d.5, %v)", i, brep)
	}
	before := appends(t, sys)
	res := mustQuery(t, e, `INSERT INTO face (square_dim, brep) VALUES `+strings.Join(rows, ", "))
	if got := appends(t, sys) - before; got != 12 {
		t.Fatalf("a 10-row INSERT referencing one brep appended %d log records, want 10 inserts, 1 update and a commit mark", got)
	}
	at, err := sys.Get(brep, nil)
	if err != nil {
		t.Fatal(err)
	}
	faces, _ := at.Value("faces")
	for _, f := range res.Inserted {
		if !faces.ContainsRef(f) {
			t.Fatalf("brep faces %v lack inserted face %v", faces, f)
		}
	}
	if len(faces.E) != 10 {
		t.Fatalf("brep has %d faces, want 10", len(faces.E))
	}
}

// TestMultiRowInsertIsAllOrNothing: a row that references a missing atom
// fails the whole INSERT before anything is written.
func TestMultiRowInsertIsAllOrNothing(t *testing.T) {
	e, sys := walEngine(t)
	brep := mustQuery(t, e, `INSERT INTO brep (brep_no) VALUES (1)`).Inserted[0]
	before, faces := appends(t, sys), sys.Count("face")
	_, err := execOne(e, fmt.Sprintf(`INSERT INTO face (square_dim, brep) VALUES (1.5, %v), (2.5, @%d.999)`, brep, brep.Type()))
	if err == nil {
		t.Fatal("INSERT with a dangling reference succeeded")
	}
	if got := appends(t, sys) - before; got != 0 || sys.Count("face") != faces {
		t.Fatalf("failed INSERT appended %d log records and left %d faces, want 0 and %d", got, sys.Count("face"), faces)
	}
	at, err := sys.Get(brep, nil)
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := at.Value("faces"); len(v.E) != 0 {
		t.Fatalf("failed INSERT left the brep with faces %v", v)
	}
}
