package access

import (
	"testing"

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
