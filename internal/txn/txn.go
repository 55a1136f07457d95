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
// conflicts fail immediately (no-wait policy): the failed statement leaves
// partial effects that the caller removes by aborting, which is exactly
// what the undo log is for.
package txn

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"prima/internal/access"
	"prima/internal/access/addr"
	"prima/internal/access/atom"
	"prima/internal/obs"
)

// Errors returned by the transaction layer.
var (
	ErrDone         = errors.New("txn: transaction already finished")
	ErrChildActive  = errors.New("txn: child transactions still active")
	ErrLockConflict = errors.New("txn: lock conflict")
	ErrNotOwner     = errors.New("txn: operation outside transaction scope")
	// ErrPoisoned means a rollback failed partway: locks were released over
	// a possibly half-undone sphere, so the in-memory state can no longer be
	// trusted. New work is refused; reopen the database (whose write-ahead
	// log replays to a consistent state) to recover.
	ErrPoisoned = errors.New("txn: manager poisoned by failed rollback, reopen the database")
)

// opKind tags undo log entries.
type opKind uint8

const (
	opInsert opKind = iota
	opUpdate
	opDelete
)

// logEntry is one undoable mutation.
type logEntry struct {
	kind     opKind
	a        addr.LogicalAddr
	typeName string
	pre      []atom.Value // pre-image for update/delete
}

// Manager coordinates transactions over one access system.
type Manager struct {
	sys *access.System

	mu     sync.Mutex
	nextID uint64
	locks  map[addr.LogicalAddr]*Tx // exclusive holders
	// poisoned is set when an abort's undo failed partway (see ErrPoisoned).
	poisoned error
	// writer serializes mutating statements so the single system hook can
	// attribute mutations to the right transaction.
	writer  sync.Mutex
	current *Tx

	// commitNs observes top-level commit latency — lock release plus the
	// group-commit wait that dominates it when the WAL is on.
	commitNs *obs.Histogram
}

// NewManager creates a transaction manager and installs its hook. It also
// becomes the access system's transaction-id source, so write-ahead log
// records carry the top-level transaction they belong to.
func NewManager(sys *access.System) *Manager {
	m := &Manager{sys: sys, locks: map[addr.LogicalAddr]*Tx{}, commitNs: sys.Obs().Histogram("txn_commit_ns")}
	sys.SetHook((*managerHook)(m))
	sys.SetTxIDSource(func() uint64 {
		m.mu.Lock()
		cur := m.current
		m.mu.Unlock()
		if cur == nil {
			return 0
		}
		return cur.rootID()
	})
	return m
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
	m.nextID++
	return &Tx{m: m, id: m.nextID, locks: map[addr.LogicalAddr]bool{}, snap: m.sys.OpenSnapshot()}
}

// Begin starts a nested child transaction. The child opens at the current
// epoch, so it sees the parent's effects committed so far.
func (t *Tx) Begin() (*Tx, error) {
	t.m.mu.Lock()
	defer t.m.mu.Unlock()
	if t.dead || t.m.poisoned != nil {
		return nil, ErrPoisoned
	}
	if t.done {
		return nil, ErrDone
	}
	t.m.nextID++
	t.children++
	return &Tx{m: t.m, id: t.m.nextID, parent: t, locks: map[addr.LogicalAddr]bool{}, snap: t.m.sys.OpenSnapshot()}, nil
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

// Do runs fn with this transaction bound as the mutation scope: every
// access-system write inside fn is locked for and logged to t.
func (t *Tx) Do(fn func() error) error {
	t.m.mu.Lock()
	if t.dead || t.m.poisoned != nil {
		t.m.mu.Unlock()
		return ErrPoisoned
	}
	if t.done {
		t.m.mu.Unlock()
		return ErrDone
	}
	before := len(t.log)
	t.m.mu.Unlock()

	t.m.writer.Lock()
	defer t.m.writer.Unlock()
	t.m.mu.Lock()
	t.m.current = t
	t.m.mu.Unlock()
	defer func() {
		t.m.mu.Lock()
		t.m.current = nil
		// Read-your-writes: a transaction that mutated atoms inside fn must
		// see its own effects on the next read, so its view advances to the
		// epoch its writes closed. Read-only spheres keep their frozen view.
		if len(t.log) > before && !t.done {
			t.refreshLocked()
		}
		t.m.mu.Unlock()
	}()
	return fn()
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

// lock acquires an exclusive atom lock for t (Moss rule: conflicting
// holders must be ancestors).
func (m *Manager) lock(t *Tx, a addr.LogicalAddr) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	holder, held := m.locks[a]
	if !held || holder == t {
		m.locks[a] = t
		t.locks[a] = true
		return nil
	}
	if holder.isAncestorOf(t) {
		// Ancestor retains the lock; the child may use and re-own it.
		m.locks[a] = t
		t.locks[a] = true
		return nil
	}
	return fmt.Errorf("%w: atom %v held by transaction %d", ErrLockConflict, a, holder.id)
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
	if t.dead {
		t.m.mu.Unlock()
		return ErrPoisoned
	}
	if t.done {
		t.m.mu.Unlock()
		return ErrDone
	}
	if t.children > 0 {
		t.m.mu.Unlock()
		return ErrChildActive
	}
	t.done = true
	t.snap.Close()
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
	for a := range t.locks {
		if t.m.locks[a] == t {
			delete(t.m.locks, a)
		}
	}
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
	if t.dead {
		t.m.mu.Unlock()
		return ErrPoisoned
	}
	if t.done {
		t.m.mu.Unlock()
		return ErrDone
	}
	if t.children > 0 {
		t.m.mu.Unlock()
		return ErrChildActive
	}
	t.done = true
	t.snap.Close()
	log := t.log
	t.m.mu.Unlock()

	// Undo without the hook observing (rollback must not lock or log-for-undo
	// itself), but with t bound as the current scope so the write-ahead log
	// attributes the rollback's own page writes to this transaction.
	t.m.writer.Lock()
	t.m.sys.SetHook(nil)
	t.m.mu.Lock()
	prev := t.m.current
	t.m.current = t
	t.m.mu.Unlock()
	var undoErrs []error
	for i := len(log) - 1; i >= 0; i-- {
		e := log[i]
		var err error
		switch e.kind {
		case opInsert:
			err = t.m.sys.RawDelete(e.a)
		case opUpdate:
			err = t.m.sys.RawOverwrite(e.a, e.pre)
		case opDelete:
			err = t.m.sys.RawResurrect(e.a, e.pre)
		}
		if err != nil {
			undoErrs = append(undoErrs, fmt.Errorf("txn: undo %v: %w", e.a, err))
		}
	}
	undoErr := errors.Join(undoErrs...)
	t.m.mu.Lock()
	t.m.current = prev
	t.m.mu.Unlock()
	t.m.sys.SetHook((*managerHook)(t.m))
	t.m.writer.Unlock()

	wrote := len(log) > 0
	t.m.mu.Lock()
	if t.parent != nil {
		t.parent.children--
	}
	for a := range t.locks {
		if t.m.locks[a] == t {
			if t.parent != nil && t.parent.locks[a] {
				t.m.locks[a] = t.parent
			} else {
				delete(t.m.locks, a)
			}
		}
	}
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

// managerHook adapts Manager to the access.Hook interface.
type managerHook Manager

func (h *managerHook) m() *Manager { return (*Manager)(h) }

// BeforeWrite locks the atom for the current transaction. Writes outside
// any transaction scope pass through unlocked (autocommit).
func (h *managerHook) BeforeWrite(a addr.LogicalAddr) error {
	m := h.m()
	m.mu.Lock()
	cur := m.current
	poisoned := m.poisoned
	m.mu.Unlock()
	if poisoned != nil {
		return ErrPoisoned
	}
	if cur == nil {
		// Autocommit write: it must not bypass existing locks.
		m.mu.Lock()
		holder, held := m.locks[a]
		m.mu.Unlock()
		if held {
			return fmt.Errorf("%w: atom %v held by transaction %d", ErrLockConflict, a, holder.id)
		}
		return nil
	}
	return m.lock(cur, a)
}

func (h *managerHook) DidInsert(a addr.LogicalAddr) {
	m := h.m()
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.current != nil {
		m.current.log = append(m.current.log, logEntry{kind: opInsert, a: a})
	}
}

func (h *managerHook) DidUpdate(a addr.LogicalAddr, typeName string, old []atom.Value) {
	m := h.m()
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.current != nil {
		pre := make([]atom.Value, len(old))
		for i, v := range old {
			pre[i] = v.Clone()
		}
		m.current.log = append(m.current.log, logEntry{kind: opUpdate, a: a, typeName: typeName, pre: pre})
	}
}

func (h *managerHook) DidDelete(a addr.LogicalAddr, typeName string, old []atom.Value) {
	m := h.m()
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.current != nil {
		pre := make([]atom.Value, len(old))
		for i, v := range old {
			pre[i] = v.Clone()
		}
		m.current.log = append(m.current.log, logEntry{kind: opDelete, a: a, typeName: typeName, pre: pre})
	}
}
