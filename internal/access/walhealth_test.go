package access

import (
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"

	"prima/internal/access/addr"
	"prima/internal/access/atom"
	"prima/internal/catalog"
	"prima/internal/storage/device"
)

// A failing checkpoint must be visible to the operator (log truncation has
// stalled), on the health field and the wal_checkpoint_failing gauge alike,
// and a later successful one must clear the signal.
func TestCheckpointHealthSurfaced(t *testing.T) {
	var meta *device.FaultDevice
	wrap := func(name string, d device.Device) device.Device {
		if name != "wal.meta" {
			return d
		}
		fd := device.NewFault(d)
		meta = fd
		return fd
	}
	s, err := Open(Config{WAL: true, FileWrap: wrap})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if meta == nil {
		t.Fatal("wal.meta device never opened")
	}
	failing := func() float64 { return s.Obs().Snapshot().Gauge("wal_checkpoint_failing") }
	if err := s.WALCheckpointErr(); err != nil {
		t.Fatalf("healthy system reports checkpoint error: %v", err)
	}
	if g := failing(); g != 0 {
		t.Fatalf("healthy system: wal_checkpoint_failing = %v, want 0", g)
	}

	meta.FailNextSyncs(1)
	if err := s.Checkpoint(); err == nil {
		t.Fatal("checkpoint with failing meta sync reported success")
	}
	if s.WALCheckpointErr() == nil {
		t.Fatal("checkpoint failure not recorded in health field")
	}
	if g := failing(); g != 1 {
		t.Fatalf("after a failed checkpoint: wal_checkpoint_failing = %v, want 1", g)
	}

	if err := s.Checkpoint(); err != nil {
		t.Fatalf("checkpoint after fault cleared: %v", err)
	}
	if err := s.WALCheckpointErr(); err != nil {
		t.Fatalf("health field not cleared by successful checkpoint: %v", err)
	}
	if g := failing(); g != 0 {
		t.Fatalf("after a successful checkpoint: wal_checkpoint_failing = %v, want 0", g)
	}
}

// A checkpoint is timed and counts the bytes of the files it rewrites whole
// beside the segments; the buffer reports the dirty frames it leaves behind
// for the next one.
func TestCheckpointMetrics(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Config{Dir: dir, WAL: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	part, err := catalog.NewAtomType("part", []catalog.Attribute{
		{Name: "id", Type: catalog.SpecIdent()},
		{Name: "no", Type: catalog.SpecInt()},
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Schema().AddAtomType(part); err != nil {
		t.Fatal(err)
	}
	if err := s.Schema().ResolveAssociations(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if _, err := s.Insert("part", map[string]atom.Value{"no": atom.Int(int64(i))}); err != nil {
			t.Fatal(err)
		}
	}
	before := s.Obs().Snapshot()
	if g := before.Gauge("buffer_dirty_frames"); g == 0 {
		t.Fatal("buffer_dirty_frames = 0 after inserts")
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	after := s.Obs().Snapshot()
	var files uint64
	for _, name := range []string{"schema.json", "directory.snap", "manifest.json"} {
		fi, err := os.Stat(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		files += uint64(fi.Size())
	}
	if got := after.Counter("checkpoint_file_bytes_total") - before.Counter("checkpoint_file_bytes_total"); got != files {
		t.Fatalf("checkpoint_file_bytes_total grew by %d, the checkpoint wrote %d file bytes", got, files)
	}
	if n := after.Hist("wal_checkpoint_ns").Count - before.Hist("wal_checkpoint_ns").Count; n != 1 {
		t.Fatalf("wal_checkpoint_ns observed %d checkpoints, want 1", n)
	}
	if g := after.Gauge("buffer_dirty_frames"); g != 0 {
		t.Fatalf("buffer_dirty_frames = %v after a checkpoint", g)
	}
	if _, ok := after.Counters["buffer_evict_writebacks_total"]; !ok {
		t.Fatal("buffer_evict_writebacks_total not registered")
	}
}

// syncTap runs tap before every Sync of the device it wraps.
type syncTap struct {
	device.Device
	tap func()
}

func (d syncTap) Sync() error {
	d.tap()
	return d.Device.Sync()
}

// The directory snapshot holds every atom an insert has begun, committed or
// not. An insert whose log record is appended after the checkpoint's page
// flush has nothing forcing that record before the snapshot is written: the
// checkpoint must force the log itself, or a crash leaves an atom in the
// snapshot that recovery has no record to undo.
func TestCheckpointForcesLogBeforeDirectory(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Dir: dir, WAL: true, WALCheckpointBytes: 1 << 40}
	s, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	part, err := catalog.NewAtomType("part", []catalog.Attribute{
		{Name: "id", Type: catalog.SpecIdent()},
		{Name: "no", Type: catalog.SpecInt()},
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Schema().AddAtomType(part); err != nil {
		t.Fatal(err)
	}
	if err := s.Schema().ResolveAssociations(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Every device loses what it was not synced when the plan fires. The
	// first segment sync after the page flush runs an uncommitted insert;
	// the log's next sync then crashes.
	plan := device.NewCrashPlan()
	var inFlight atomic.Pointer[func()]
	var crashNextLogSync atomic.Bool
	cfg.FileWrap = func(name string, d device.Device) device.Device {
		fd := device.NewFault(d)
		fd.SetVolatile(true)
		fd.SetPlan(plan, false)
		if strings.HasPrefix(name, "wal_") {
			return syncTap{fd, func() {
				if crashNextLogSync.CompareAndSwap(true, false) {
					_, syncs := plan.Counts()
					plan.CrashAtSync(syncs + 1)
				}
			}}
		}
		return syncTap{fd, func() {
			if f := inFlight.Swap(nil); f != nil {
				(*f)()
			}
		}}
	}
	s, err = Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	committed, err := s.Insert("part", map[string]atom.Value{"no": atom.Int(1)})
	if err != nil {
		t.Fatal(err)
	}
	var loser addr.LogicalAddr
	var loserErr error
	insert := func() {
		loser, loserErr = s.Writer(7, nil).Insert("part", map[string]atom.Value{"no": atom.Int(2)})
		crashNextLogSync.Store(true)
	}
	inFlight.Store(&insert)
	if err := s.Checkpoint(); err == nil {
		t.Fatal("the checkpoint survived its crash")
	}
	if loserErr != nil || !plan.Crashed() {
		t.Fatalf("insert during the checkpoint: %v; crashed: %v", loserErr, plan.Crashed())
	}
	_ = s.Close() // fails: the devices are dead

	cfg.FileWrap = nil
	s, err = Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if !s.Directory().Exists(committed) {
		t.Fatal("the atom inserted before the checkpoint was lost")
	}
	if s.Directory().Exists(loser) {
		t.Fatal("the uncommitted insert survived the crash: the directory snapshot holds it and the log does not")
	}
}
