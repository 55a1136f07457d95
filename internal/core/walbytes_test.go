package core_test

import (
	"fmt"
	"sync"
	"testing"

	"prima/internal/access"
	"prima/internal/access/atom"
	"prima/internal/core"
	"prima/internal/obs"
)

// TestTracedWALBytesExactUnderConcurrentWriters: a traced MODIFY's apply span
// is charged exactly the log bytes of its own writes — the span travels in
// the statement's write context — whether it runs alone or while an untraced
// writer hammers atoms of another type. The noise type keeps the two writers
// on disjoint pages, and checkpoints are off, so the test is -race clean.
func TestTracedWALBytesExactUnderConcurrentWriters(t *testing.T) {
	sys, err := access.Open(access.Config{Dir: t.TempDir(), WAL: true, WALCheckpointBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	e := core.New(sys)
	mustQuery(t, e, `CREATE ATOM_TYPE traced (traced_id: IDENTIFIER, n: INTEGER)`)
	mustQuery(t, e, `CREATE ATOM_TYPE noise (noise_id: IDENTIFIER, n: INTEGER)`)
	for i := 0; i < 64; i++ {
		mustQuery(t, e, `INSERT INTO traced (n) VALUES (0)`)
	}
	noise := mustQuery(t, e, `INSERT INTO noise (n) VALUES (0), (0), (0), (0), (0), (0), (0), (0)`).Inserted

	walBytes := func(n int) int64 {
		t.Helper()
		tr := obs.NewTracer(obs.TracerConfig{}).BeginForced("modify")
		if _, err := e.ExecuteScriptTraced(fmt.Sprintf(`MODIFY traced SET n = %d WHERE n >= 0`, n), tr, sys.Writer(0, nil)); err != nil {
			t.Fatal(err)
		}
		return tr.Finish().Find("apply").Counters["wal_bytes"]
	}
	alone := walBytes(1)
	if alone == 0 {
		t.Fatal("traced MODIFY charged no WAL bytes")
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if err := sys.Update(noise[i%len(noise)], map[string]atom.Value{"n": atom.Int(int64(i))}); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for i := 0; i < 20; i++ {
		if got := walBytes(2 + i%2); got != alone {
			t.Errorf("round %d: wal_bytes = %d under concurrent writers, %d alone", i, got, alone)
		}
	}
	close(stop)
	wg.Wait()
}
