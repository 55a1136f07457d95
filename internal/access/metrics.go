package access

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
}
