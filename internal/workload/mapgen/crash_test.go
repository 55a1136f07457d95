package mapgen

import (
	"testing"

	"prima/internal/access"
	"prima/internal/access/atom"
	"prima/internal/core"
	"prima/internal/storage/device"
	"prima/internal/txn"
)

// TestRecoveryRebuildsClustersOfLoggedSets: a map's set logs the map before
// its regions and sites, so the map's redo image references atoms that
// recovery replays after it. A crash after the sets' records are durable
// must leave a database that reopens with every map's cluster occurrence
// holding the whole map.
func TestRecoveryRebuildsClustersOfLoggedSets(t *testing.T) {
	const maps, regions, sites = 3, 3, 4
	dir := t.TempDir()
	cfg := func(wrap func(string, device.Device) device.Device) access.Config {
		return access.Config{Dir: dir, WAL: true, WALCheckpointBytes: -1, FileWrap: wrap}
	}
	sys, err := access.Open(cfg(nil))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := core.New(sys).ExecuteScript(SchemaDDL + `CREATE ATOM_CLUSTER map_cl ON map-region-site;`); err != nil {
		t.Fatal(err)
	}
	if err := sys.Close(); err != nil {
		t.Fatal(err)
	}

	plan := device.NewCrashPlan()
	sys, err = access.Open(cfg(func(_ string, d device.Device) device.Device {
		fd := device.NewFault(d)
		fd.SetVolatile(true)
		fd.SetPlan(plan, false)
		return fd
	}))
	if err != nil {
		t.Fatal(err)
	}
	w, err := Build(core.New(sys), maps, regions, sites, 1)
	if err != nil {
		t.Fatal(err)
	}
	// A transaction's commit forces the log, the sets' records included;
	// no checkpoint runs, so recovery replays every set.
	tx := txn.NewManager(sys).Begin()
	if err := tx.Do(func(w access.Writer) error {
		_, err := w.Insert("site", map[string]atom.Value{"pop": atom.Int(1)})
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	writes, syncs := plan.Counts()
	plan.CrashAtWrite(writes+1, 0)
	plan.CrashAtSync(syncs + 1)
	_ = sys.Close() // the first write or sync of the close crashes
	if !plan.Crashed() {
		t.Fatal("crash did not fire")
	}

	sys, err = access.Open(cfg(nil))
	if err != nil {
		t.Fatalf("reopen after crash: %v", err)
	}
	defer sys.Close()
	for _, m := range w.Maps {
		occ, err := sys.ClusterOccurrenceOf("map_cl", m)
		if err != nil {
			t.Fatalf("map %v: %v", m, err)
		}
		if got, want := len(occ.Records), 1+regions+regions*sites; got != want {
			t.Fatalf("map %v: occurrence holds %d atoms, want %d", m, got, want)
		}
	}
	if err := sys.CheckIntegrity(""); err != nil {
		t.Fatal(err)
	}
}
