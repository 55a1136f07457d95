package access

import (
	"runtime"
	"runtime/metrics"
)

// This file registers pull-model mirrors for every counter the storage and
// access layers already maintain, so one obs.Registry snapshot unifies what
// used to be scattered across AtomCacheStats, buffer.Stats, device.IOStats,
// wal.Stats and the MVCC store. Mirrors are sampled only at snapshot time;
// the hot paths keep their existing (cheaper) counting.

// registerMetrics wires the mirrors. Called once at the end of Open; every
// registered function must be safe to call at any moment from any goroutine
// (they all read atomics or take short-lived internal locks).
func (s *System) registerMetrics() {
	r := s.reg

	// Atom cache: hot counters live in s.acStats atomics; occupancy
	// comes from the current cache instance (survives SetAtomCacheSize swaps).
	r.CounterFunc("atom_cache_hits", s.acStats.hits.Load)
	r.CounterFunc("atom_cache_misses", s.acStats.misses.Load)
	r.CounterFunc("atom_cache_invalidations", s.acStats.invalidations.Load)
	r.CounterFunc("atom_cache_evictions", s.acStats.evictions.Load)
	r.GaugeFunc("atom_cache_atoms", func() float64 { return float64(s.AtomCacheStats().Atoms) })
	r.GaugeFunc("atom_cache_bytes", func() float64 { return float64(s.AtomCacheStats().Bytes) })
	r.GaugeFunc("atom_cache_budget", func() float64 { return float64(s.AtomCacheStats().Budget) })

	// Buffer pool.
	r.CounterFunc("buffer_hits", func() uint64 { return uint64(s.pool.Stats().Hits) })
	r.CounterFunc("buffer_misses", func() uint64 { return uint64(s.pool.Stats().Misses) })
	r.CounterFunc("buffer_evictions", func() uint64 { return uint64(s.pool.Stats().Evictions) })
	r.CounterFunc("buffer_writebacks", func() uint64 { return uint64(s.pool.Stats().Writebacks) })
	// The writebacks made to free a frame, inside some request's miss; the
	// rest are checkpoints'. Replacement keeps revised pages dirty until the
	// checkpoint, so the gauge shows what the next one will write.
	r.CounterFunc("buffer_evict_writebacks_total", func() uint64 { return uint64(s.pool.Stats().EvictWritebacks) })
	r.GaugeFunc("buffer_dirty_frames", func() float64 { return float64(s.pool.Dirty()) })
	// A full pool recycles its frames: allocs rising as fast as the misses is a leak.
	r.CounterFunc("buffer_frame_allocs_total", func() uint64 { return uint64(s.pool.Stats().FrameAllocs) })
	r.CounterFunc("buffer_frames_recycled_total", func() uint64 { return uint64(s.pool.Stats().FramesRecycled) })

	// File manager I/O.
	r.CounterFunc("io_reads", func() uint64 { return uint64(s.files.Stats().Reads) })
	r.CounterFunc("io_writes", func() uint64 { return uint64(s.files.Stats().Writes) })
	r.CounterFunc("io_blocks_read", func() uint64 { return uint64(s.files.Stats().BlocksRead) })
	r.CounterFunc("io_blocks_written", func() uint64 { return uint64(s.files.Stats().BlocksWritten) })
	r.CounterFunc("io_seeks", func() uint64 { return uint64(s.files.Stats().Seeks) })

	// MVCC snapshot store.
	r.GaugeFunc("mvcc_open_snapshots", func() float64 { return float64(s.OpenSnapshots()) })
	r.GaugeFunc("mvcc_versions", func() float64 { return float64(s.mv.entries.Load()) })

	// Write-ahead log. The mirrors report zeros when the WAL is off, with
	// wal_enabled distinguishing "off" from "idle".
	r.GaugeFunc("wal_enabled", func() float64 {
		if _, ok := s.WALStats(); ok {
			return 1
		}
		return 0
	})
	r.CounterFunc("wal_appends", func() uint64 { st, _ := s.WALStats(); return st.Appends })
	r.CounterFunc("wal_bytes", func() uint64 { st, _ := s.WALStats(); return st.Bytes })
	r.CounterFunc("wal_syncs", func() uint64 { st, _ := s.WALStats(); return st.Syncs })
	r.CounterFunc("wal_commits", func() uint64 { st, _ := s.WALStats(); return st.Commits })
	r.CounterFunc("wal_batches", func() uint64 { st, _ := s.WALStats(); return st.Batches })
	r.CounterFunc("wal_checkpoints", func() uint64 { st, _ := s.WALStats(); return st.Checkpoints })
	r.CounterFunc("wal_recoveries", func() uint64 { st, _ := s.WALStats(); return st.Recoveries })
	// 1 while the latest checkpoint attempt failed: the log's replay prefix
	// is not being truncated (WALCheckpointErr says why).
	r.GaugeFunc("wal_checkpoint_failing", func() float64 {
		if s.WALCheckpointErr() != nil {
			return 1
		}
		return 0
	})

	// The Go runtime's share of "why was this slow". Reading MemStats stops
	// the world for the read: a scrape can afford that, a request could not.
	mem := func() (m runtime.MemStats) { runtime.ReadMemStats(&m); return m }
	r.GaugeFunc("runtime_heap_inuse_bytes", func() float64 { return float64(mem().HeapInuse) })
	r.GaugeFunc("runtime_gc_pause_seconds", func() float64 { return float64(mem().PauseTotalNs) / 1e9 })
	r.GaugeFunc("runtime_gc_cpu_seconds", func() float64 {
		s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
		if metrics.Read(s); s[0].Value.Kind() == metrics.KindFloat64 {
			return s[0].Value.Float64()
		}
		return 0
	})
	r.GaugeFunc("runtime_goroutines", func() float64 { return float64(runtime.NumGoroutine()) })
}
