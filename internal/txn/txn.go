// Package txn implements nested transactions, the concept PRIMA adopts "as
// a generic mechanism for all proposed uses" (§4, after Moss [Mo81]): units
// of work form a tree; a child's effects become part of its parent on
// commit, and aborting a child rolls back only its own sphere — the
// "selective in-transaction recovery" the paper calls for — while the
// parent continues.
//
// Writers acquire exclusive atom locks following Moss's rules: a
// transaction may lock an atom if every other holder is one of its
// ancestors; on commit the child's locks are inherited by the parent. Lock
// conflicts fail immediately (no-wait policy). A statement writes one atom
// set, which the access system checks whole before it logs anything and
// rolls back itself when a write fails, so a failed statement leaves no
// effects; the caller decides whether the transaction goes on or aborts.
// The undo log keeps each completed write's pre-image, and an abort
// restores them, newest first, with the access system's one inverse.
package txn

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"prima/internal/access"
	"prima/internal/access/addr"
	"prima/internal/access/atom"
	"prima/internal/obs"
	"prima/internal/storage/wal"
)

// Errors returned by the transaction layer.
var (
	ErrDone         = errors.New("txn: transaction already finished")
	ErrChildActive  = errors.New("txn: child transactions still active")
	ErrLockConflict = errors.New("txn: lock conflict")
	// ErrPoisoned means a rollback failed partway: locks were released over
	// a possibly half-undone sphere, so the in-memory state can no longer be
	// trusted. New work is refused; reopen the database (whose write-ahead
	// log replays to a consistent state) to recover.
	ErrPoisoned = errors.New("txn: manager poisoned by failed rollback, reopen the database")
)

// logEntry is one undoable mutation: the atom and its pre-image (nil: the
// atom did not exist).
type logEntry struct {
	a   addr.LogicalAddr
	pre []atom.Value
}

// Manager coordinates transactions over one access system. Every write names
// its scope explicitly (a Tx, or the manager's autocommit scope), so
// transactions on disjoint atoms run their statements concurrently.
type Manager struct {
	sys *access.System

	mu    sync.Mutex
	locks map[addr.LogicalAddr]*Tx // exclusive holders
	// pins counts the autocommit writes in flight on each atom: a
	// transaction may not lock an atom one of them is mutating (see
	// autocommit).
	pins map[addr.LogicalAddr]int
	// poisoned is set when an abort's undo failed partway (see ErrPoisoned).
	poisoned error

	// commitNs observes top-level commit latency — lock release plus the
	// group-commit wait that dominates it when the WAL is on. The counters
	// and the gauge make waiting visible: refused writes, finished and live
	// transactions (nested ones included).
	commitNs                   *obs.Histogram
	conflicts, commits, aborts *obs.Counter
	active                     *obs.Gauge
}

// NewManager creates a transaction manager over sys.
func NewManager(sys *access.System) *Manager {
	reg := sys.Obs()
	return &Manager{
		sys:       sys,
		locks:     map[addr.LogicalAddr]*Tx{},
		pins:      map[addr.LogicalAddr]int{},
		commitNs:  reg.Histogram("txn_commit_ns"),
		conflicts: reg.Counter("txn_lock_conflicts_total"),
		commits:   reg.Counter("txn_commits_total"),
		aborts:    reg.Counter("txn_aborts_total"),
		active:    reg.Gauge("txn_active"),
	}
}

// Autocommit returns the write context of statements outside any
// transaction: logged as autocommit (tx id 0, always redone), refused on a
// poisoned manager or on an atom a transaction holds, never undone.
func (m *Manager) Autocommit() access.Writer { return m.sys.Writer(0, (*autocommit)(m)) }

// autocommit is the manager's scope for writes outside any transaction. It
// pins each atom for the one mutation it admits: a transaction that locked
// the atom in between would read a pre-image the autocommit write then
// overwrites, and its abort would clobber an acknowledged write.
type autocommit Manager

func (ac *autocommit) Acquire(a addr.LogicalAddr) error {
	m := (*Manager)(ac)
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.poisoned != nil {
		return ErrPoisoned
	}
	if holder, held := m.locks[a]; held {
		m.conflicts.Inc()
		return fmt.Errorf("%w: atom %v held by transaction %d", ErrLockConflict, a, holder.id)
	}
	m.pins[a]++
	return nil
}

func (ac *autocommit) Release(a addr.LogicalAddr, _ wal.Kind, _ []atom.Value, _ error) {
	m := (*Manager)(ac)
	m.mu.Lock()
	if m.pins[a]--; m.pins[a] == 0 {
		delete(m.pins, a)
	}
	m.mu.Unlock()
}

// Tx is one transaction (top-level or nested). Every transaction pins a
// snapshot at Begin: its reads resolve at that epoch, untouched by concurrent
// committers, and the snapshot advances only when the transaction's own
// writes land (read-your-writes) — snapshot isolation per sphere.
type Tx struct {
	m        *Manager
	id       uint64
	parent   *Tx
	children int
	done     bool
	dead     bool // Begin on a poisoned manager: every operation fails
	log      []logEntry
	locks    map[addr.LogicalAddr]bool // locks acquired by this tx itself
	snap     *access.Snapshot          // the tx's read view (guarded by m.mu)
}

// Begin starts a top-level transaction. On a poisoned manager the returned
// transaction is stillborn: every operation on it fails with ErrPoisoned.
func (m *Manager) Begin() *Tx {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.poisoned != nil {
		return &Tx{m: m, dead: true, done: true, locks: map[addr.LogicalAddr]bool{}}
	}
	m.active.Add(1)
	return &Tx{m: m, id: m.sys.NewTxID(), locks: map[addr.LogicalAddr]bool{}, snap: m.sys.OpenSnapshot()}
}

// Begin starts a nested child transaction. The child opens at the current
// epoch, so it sees the parent's effects committed so far.
func (t *Tx) Begin() (*Tx, error) {
	t.m.mu.Lock()
	defer t.m.mu.Unlock()
	if err := t.liveLocked(); err != nil {
		return nil, err
	}
	t.m.active.Add(1)
	t.children++
	return &Tx{m: t.m, id: t.m.sys.NewTxID(), parent: t, locks: map[addr.LogicalAddr]bool{}, snap: t.m.sys.OpenSnapshot()}, nil
}

// liveLocked reports why t can take no more work, if it cannot.
func (t *Tx) liveLocked() error {
	if t.dead || t.m.poisoned != nil {
		return ErrPoisoned
	}
	if t.done {
		return ErrDone
	}
	return nil
}

// ID returns the transaction id.
func (t *Tx) ID() uint64 { return t.id }

// rootID returns the id of t's top-level ancestor — the scope write-ahead
// log records are attributed to (parents are immutable after Begin).
func (t *Tx) rootID() uint64 {
	cur := t
	for cur.parent != nil {
		cur = cur.parent
	}
	return cur.id
}

// Epoch returns the snapshot epoch the transaction currently reads at.
// Cursors opened on the transaction's behalf pin this epoch
// (core.Engine.ExecuteScriptAt), so they share its frozen view.
func (t *Tx) Epoch() uint64 {
	t.m.mu.Lock()
	defer t.m.mu.Unlock()
	return t.snap.Epoch()
}

// refreshLocked advances t's read view to the current epoch; called with
// m.mu held after t's own sphere changed the database.
func (t *Tx) refreshLocked() {
	old := t.snap
	t.snap = t.m.sys.OpenSnapshot()
	old.Close()
}

// Do runs fn with t's write context: every mutation fn makes through w is
// locked for t, recorded in t's undo log and attributed to t's top-level
// transaction in the write-ahead log. Statements of different transactions
// run concurrently; one transaction's statements, Commit and Abort must not
// overlap.
func (t *Tx) Do(fn func(w access.Writer) error) error {
	t.m.mu.Lock()
	if err := t.liveLocked(); err != nil {
		t.m.mu.Unlock()
		return err
	}
	before := len(t.log)
	t.m.mu.Unlock()
	defer func() {
		t.m.mu.Lock()
		// Read-your-writes: a transaction that mutated atoms inside fn must
		// see its own effects on the next read, so its view advances to the
		// epoch its writes closed. Read-only spheres keep their frozen view.
		if len(t.log) > before && !t.done {
			t.refreshLocked()
		}
		t.m.mu.Unlock()
	}()
	return fn(t.m.sys.Writer(t.rootID(), t))
}

// isAncestorOf reports whether t is an ancestor of (or equal to) o.
func (t *Tx) isAncestorOf(o *Tx) bool {
	for cur := o; cur != nil; cur = cur.parent {
		if cur == t {
			return true
		}
	}
	return false
}

// Acquire locks atom a for t, following Moss: every other holder must be an
// ancestor of t, and an atom an autocommit write is mutating is a conflict.
// It makes *Tx an access.Scope.
func (t *Tx) Acquire(a addr.LogicalAddr) error {
	m := t.m
	m.mu.Lock()
	defer m.mu.Unlock()
	if err := t.liveLocked(); err != nil {
		return err
	}
	if holder, held := m.locks[a]; held && !holder.isAncestorOf(t) {
		m.conflicts.Inc()
		return fmt.Errorf("%w: atom %v held by transaction %d", ErrLockConflict, a, holder.id)
	}
	if m.pins[a] > 0 {
		m.conflicts.Inc()
		return fmt.Errorf("%w: atom %v in use by an autocommit write", ErrLockConflict, a)
	}
	// An ancestor retains its lock; the child may use and re-own it.
	m.locks[a] = t
	t.locks[a] = true
	return nil
}

// Release records how to undo t's mutation of a, if it wrote anything; the
// lock stays until t finishes.
func (t *Tx) Release(a addr.LogicalAddr, kind wal.Kind, pre []atom.Value, err error) {
	if err != nil || kind == 0 {
		return
	}
	e := logEntry{a: a, pre: slices.Clone(pre)}
	for i := range e.pre {
		e.pre[i] = e.pre[i].Clone()
	}
	t.m.mu.Lock()
	t.log = append(t.log, e)
	t.m.mu.Unlock()
}

// Commit finishes t. A nested commit hands its undo log and locks to the
// parent (the parent's abort can still undo the child). A top-level commit
// releases all locks and — when the system runs a write-ahead log — blocks
// until its commit record is on stable storage (group commit), at which
// point the effects survive a crash. Without a log the effects live in
// memory and buffered pages only and become durable at the next checkpoint.
func (t *Tx) Commit() error {
	if t.parent == nil {
		defer t.m.commitNs.ObserveSince(time.Now())
	}
	t.m.mu.Lock()
	if err := t.finishLocked(t.m.commits); err != nil {
		t.m.mu.Unlock()
		return err
	}
	if t.parent != nil {
		defer t.m.mu.Unlock()
		t.parent.children--
		childWrote := len(t.log) > 0
		// Log inheritance: parent abort undoes the child too.
		t.parent.log = append(t.parent.log, t.log...)
		// Lock inheritance (Moss).
		for a := range t.locks {
			if t.m.locks[a] == t {
				t.m.locks[a] = t.parent
			}
			t.parent.locks[a] = true
		}
		if childWrote {
			// The child's effects join the parent's sphere; the parent's
			// reads must see them from now on.
			t.parent.refreshLocked()
		}
		return nil
	}
	wrote := len(t.log) > 0
	t.m.mu.Unlock()
	var walErr error
	if wrote {
		// Group commit happens outside m.mu so concurrent committers batch
		// into one fsync — but still holding t's atom locks: were they
		// released first, a successor could overwrite this write set and
		// commit durably while a crash makes t a loser, whose undo would
		// then clobber the successor's committed state.
		walErr = t.m.sys.WALCommit(t.id)
	}
	t.m.mu.Lock()
	t.unlockLocked()
	t.m.mu.Unlock()
	return walErr
}

// Abort undoes every mutation of t (and of its committed children) in
// reverse order and releases its locks. Parents and siblings are untouched.
//
// Every entry is undone even if some fail: stopping at the first error while
// still releasing the locks below would expose the skipped, still-applied
// mutations to other transactions as if committed. Entries that do fail
// leave the in-memory state inconsistent, so the manager is poisoned —
// further work is refused until the database is reopened (the write-ahead
// log, which also records the transaction as a loser, then rolls it back
// cleanly during recovery).
func (t *Tx) Abort() error {
	t.m.mu.Lock()
	if err := t.finishLocked(t.m.aborts); err != nil {
		t.m.mu.Unlock()
		return err
	}
	log := t.log
	t.m.mu.Unlock()

	// Undo restores each atom's pre-image, newest write first, while t
	// still holds its locks; no scope admits it, and the write-ahead log
	// attributes the restores to t's top-level transaction.
	w := t.m.sys.Writer(t.rootID(), nil)
	var undoErrs []error
	for i := len(log) - 1; i >= 0; i-- {
		if err := w.Restore(log[i].a, log[i].pre); err != nil {
			undoErrs = append(undoErrs, fmt.Errorf("txn: undo %v: %w", log[i].a, err))
		}
	}
	undoErr := errors.Join(undoErrs...)

	wrote := len(log) > 0
	t.m.mu.Lock()
	if t.parent != nil {
		t.parent.children--
	}
	t.unlockLocked()
	if undoErr != nil && t.m.poisoned == nil {
		t.m.poisoned = undoErr
	}
	t.m.mu.Unlock()
	if undoErr != nil {
		return fmt.Errorf("txn: undo failed: %w", undoErr)
	}
	if t.parent == nil && wrote {
		// The rollback is complete in memory and fully compensated in the
		// log; the abort record just spares recovery the undo work. Losing
		// it is harmless, so it is appended without forcing a flush.
		return t.m.sys.WALAbort(t.id)
	}
	return nil
}

// finishLocked marks t finished, counting it under outcome, unless it cannot
// finish: stillborn, already finished, or with children still active.
func (t *Tx) finishLocked(outcome *obs.Counter) error {
	switch {
	case t.dead:
		return ErrPoisoned
	case t.done:
		return ErrDone
	case t.children > 0:
		return ErrChildActive
	}
	t.done = true
	t.m.active.Add(-1)
	outcome.Inc()
	t.snap.Close()
	return nil
}

// unlockLocked releases t's locks: one re-owned from the parent returns to
// it, every other one is freed.
func (t *Tx) unlockLocked() {
	for a := range t.locks {
		if t.m.locks[a] != t {
			continue
		}
		if t.parent != nil && t.parent.locks[a] {
			t.m.locks[a] = t.parent
		} else {
			delete(t.m.locks, a)
		}
	}
}
