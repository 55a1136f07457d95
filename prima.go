// Package prima is a Go reproduction of PRIMA, the prototype DBMS kernel
// implementing the Molecule-Atom Data model (MAD) of Härder, Meyer-Wegener,
// Mitschang and Sikeler ("PRIMA — a DBMS Prototype Supporting Engineering
// Applications", VLDB 1987).
//
// A DB speaks MQL, the Molecule Query Language: SQL-like statements whose
// FROM clause names dynamically defined molecule types — trees of atom
// types connected by symmetric associations, materialized at run time:
//
//	db, _ := prima.Open(prima.Config{})
//	defer db.Close()
//	db.Exec(`CREATE ATOM_TYPE node (id: IDENTIFIER, n: INTEGER,
//	          next: SET_OF (REF_TO (node.prev)),
//	          prev: SET_OF (REF_TO (node.next)))`)
//	db.Exec(`INSERT INTO node (n) VALUES (1), (2)`)
//	res, _ := db.Exec(`SELECT ALL FROM node WHERE n = 1`)
//
// Below the data model interface the kernel implements the paper's full
// three-layer architecture: a data system (query planning, molecule
// assembly, recursion, quantifiers, qualified projection), an access system
// (logical addresses, automatic back-reference maintenance, B*-tree and
// grid access paths, sort orders, partitions, atom clusters with deferred
// update, five scan types) and a storage system (segments with five page
// sizes, a size-aware buffer pool, page sequences with chained I/O).
package prima

import (
	"errors"
	"time"

	"prima/internal/access"
	"prima/internal/access/addr"
	"prima/internal/core"
	"prima/internal/obs"
	"prima/internal/txn"
)

// Re-exported result types.
type (
	// Result is the outcome of one MQL statement.
	Result = core.Result
	// Molecule is one molecule occurrence.
	Molecule = core.Molecule
	// MAtom is one atom within a molecule.
	MAtom = core.MAtom
	// LogicalAddr is an atom surrogate.
	LogicalAddr = addr.LogicalAddr
)

// Config tunes a database instance. It holds what callers set; the rest is
// derived (a cursor's assembly width from its roots and GOMAXPROCS) or fixed
// at its default (8 KiB pages, size-aware LRU, recursion depth 64, 512
// cached statement shapes, a 2 MiB atom cache — db.System().SetAtomCacheSize resizes
// the cache at run time).
type Config struct {
	// Dir is the database directory; empty runs fully in memory.
	Dir string
	// BufferBytes is the buffer pool budget (default 4 MiB).
	BufferBytes int64
	// WAL enables the write-ahead log: DML is logged before it touches
	// pages, Tx.Commit blocks until the commit record is on stable storage
	// (group commit), and Open replays the log after a crash.
	WAL bool
	// GroupCommitMaxWait bounds how long a committing transaction waits for
	// companions to share its fsync (0 keeps the wal package default).
	GroupCommitMaxWait time.Duration
	// WALCheckpointBytes is the log growth between automatic checkpoints
	// (0 keeps the wal package default).
	WALCheckpointBytes int64
	// TraceSampleRate head-samples request tracing: every Nth traced request
	// keeps its full span tree in the recent-trace ring (0 disables
	// sampling; 1 traces everything).
	TraceSampleRate int
	// SlowQueryThreshold always retains the trace of any request at least
	// this slow in the slow-query ring and emits one TraceLogf line per
	// retained trace (0 disables the slow-query log).
	SlowQueryThreshold time.Duration
	// TraceLogf receives one structured line per slow query (nil keeps
	// slow queries in the ring without logging).
	TraceLogf func(format string, args ...any)
}

// DB is a PRIMA database handle.
type DB struct {
	sys    *access.System
	engine *core.Engine
	txm    *txn.Manager
}

// Open creates or opens a database.
func Open(cfg Config) (*DB, error) {
	sys, err := access.Open(access.Config{
		Dir:                cfg.Dir,
		BufferBytes:        cfg.BufferBytes,
		WAL:                cfg.WAL,
		GroupCommitMaxWait: cfg.GroupCommitMaxWait,
		WALCheckpointBytes: cfg.WALCheckpointBytes,
		TraceSampleRate:    cfg.TraceSampleRate,
		SlowQueryThreshold: cfg.SlowQueryThreshold,
		TraceLogf:          cfg.TraceLogf,
	})
	if err != nil {
		return nil, err
	}
	return &DB{sys: sys, engine: core.New(sys), txm: txn.NewManager(sys)}, nil
}

// Close checkpoints and releases the database.
func (db *DB) Close() error { return db.sys.Close() }

// Checkpoint flushes all state (including deferred-update propagation).
func (db *DB) Checkpoint() error { return db.sys.Checkpoint() }

// Exec parses and executes an MQL script (one or more statements separated
// by semicolons) in autocommit mode, returning one result per statement. An
// autocommit write fails with a lock conflict on an atom a transaction holds.
func (db *DB) Exec(src string) ([]*Result, error) {
	return db.engine.ExecuteScriptTraced(src, nil, db.txm.Autocommit())
}

// ExecTraced is Exec with the script's stages (parse, plan, assemble,
// apply) recorded as child spans of tr's root. A nil trace behaves exactly
// like Exec; the caller owns tr and decides when to Finish it.
func (db *DB) ExecTraced(src string, tr *obs.Trace) ([]*Result, error) {
	return db.engine.ExecuteScriptTraced(src, tr, db.txm.Autocommit())
}

// Tracer returns the database's request tracer — the sampling/slow-query
// retention configured by Config.TraceSampleRate and
// Config.SlowQueryThreshold. Knobs can be adjusted at runtime via its
// setters; Recent and Slow read the retained trace rings.
func (db *DB) Tracer() *obs.Tracer { return db.sys.Tracer() }

// ExecOne executes exactly one statement in autocommit mode, through the
// plan cache like Exec. A text of any other number of statements is a syntax
// error, and none of it runs.
func (db *DB) ExecOne(src string) (*Result, error) {
	return db.engine.ExecuteOne(src, db.txm.Autocommit())
}

// Query prepares a SELECT and returns a one-molecule-at-a-time cursor. The
// cursor reads at a snapshot of the epoch it opened over: concurrent DML
// never tears or shifts its result set. Plans are served from the engine's
// plan cache, so a statement of a shape seen before — the same text up to
// its literals — skips parsing and planning.
func (db *DB) Query(src string) (*Cursor, error) {
	plan, err := db.engine.PlanQuery(src)
	if err != nil {
		if errors.Is(err, core.ErrNotSelect) {
			return nil, errors.New("prima: Query requires a SELECT statement")
		}
		return nil, err
	}
	cur, err := plan.Open()
	if err != nil {
		return nil, err
	}
	return &Cursor{inner: cur}, nil
}

// QueryTraced is Query with the planning and assembly stages recorded on tr:
// planning becomes a "plan" span (or a plan_cache=hit attribute), and the
// cursor's reads and deliveries are charged to an "assemble" span that Close
// ends. The caller owns tr — Finish it after closing the cursor so the span
// tree covers the whole drain. A nil trace behaves exactly like Query.
func (db *DB) QueryTraced(src string, tr *obs.Trace) (*Cursor, error) {
	cur, err := db.engine.OpenQueryTraced(src, tr)
	if err != nil {
		if errors.Is(err, core.ErrNotSelect) {
			return nil, errors.New("prima: QueryTraced requires a SELECT statement")
		}
		return nil, err
	}
	return &Cursor{inner: cur}, nil
}

// Cursor iterates molecules one at a time.
type Cursor struct{ inner *core.Cursor }

// Next returns the next molecule, or (nil, nil) at the end of the set.
func (c *Cursor) Next() (*Molecule, error) { return c.inner.Next() }

// Epoch returns the snapshot epoch the cursor reads at.
func (c *Cursor) Epoch() uint64 { return c.inner.Epoch() }

// Close releases the cursor.
func (c *Cursor) Close() { c.inner.Close() }

// Collect drains the cursor.
func (c *Cursor) Collect() ([]*Molecule, error) { return c.inner.Collect() }

// --- transactions --------------------------------------------------------------

// Tx is a (possibly nested) transaction. Statements executed through a Tx
// are undone by Abort; nested transactions roll back selectively.
type Tx struct {
	db    *DB
	inner *txn.Tx
}

// Begin starts a top-level transaction.
func (db *DB) Begin() *Tx {
	return &Tx{db: db, inner: db.txm.Begin()}
}

// Begin starts a nested child transaction.
func (t *Tx) Begin() (*Tx, error) {
	child, err := t.inner.Begin()
	if err != nil {
		return nil, err
	}
	return &Tx{db: t.db, inner: child}, nil
}

// Exec executes an MQL script within the transaction. SELECTs read at the
// transaction's snapshot epoch as of the start of the script — concurrent
// committers stay invisible, and the transaction's own earlier Exec calls
// are visible (each mutating Exec advances the transaction's view). DML
// always applies to current state under the transaction's locks. Statements
// of different transactions run concurrently; one transaction's Exec calls
// must not overlap each other or its Commit/Abort.
func (t *Tx) Exec(src string) ([]*Result, error) {
	var out []*Result
	err := t.inner.Do(func(w access.Writer) error {
		var err error
		out, err = t.db.engine.ExecuteScriptAt(src, t.inner.Epoch(), w)
		return err
	})
	return out, err
}

// Commit finishes the transaction; nested commits merge into the parent.
func (t *Tx) Commit() error { return t.inner.Commit() }

// Abort rolls the transaction's sphere back.
func (t *Tx) Abort() error { return t.inner.Abort() }

// --- introspection --------------------------------------------------------------

// System exposes the access system (statistics, low-level API) for tools,
// experiments and tests.
func (db *DB) System() *access.System { return db.sys }

// Engine exposes the data system.
func (db *DB) Engine() *core.Engine { return db.engine }

// OpenSnapshots returns the number of live MVCC snapshots (each open cursor
// and transaction pins one). After every cursor is closed and every
// transaction finished it must read zero — the leak gauge the wire layer's
// resilience tests assert against when a client dies mid-stream.
func (db *DB) OpenSnapshots() int { return db.sys.OpenSnapshots() }

// Registry exposes the database-wide metrics registry (counters, gauges and
// per-stage latency histograms across all layers).
func (db *DB) Registry() *obs.Registry { return db.sys.Obs() }

// Metrics takes one coherent snapshot of every registered metric — the same
// data the wire `stats` op and primad's /metrics endpoint serve;
// PrometheusText renders it for people.
func (db *DB) Metrics() *obs.MetricsSnapshot { return db.sys.Obs().Snapshot() }
