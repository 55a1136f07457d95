package access

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"

	"prima/internal/access/addr"
	"prima/internal/access/atom"
	"prima/internal/catalog"
	"prima/internal/obs"
)

// Multi-version atom store: the generalization of the atom cache's
// per-address version stamps into real snapshot isolation. Writers install
// the immutable pre-image of every atom they touch before mutating any
// physical record; readers that opened a Snapshot resolve each address
// against the epoch they captured at open, so a cursor that reads ahead of
// its consumer (the parallel assembly pipeline) can never observe a writer's
// mutation mid-iteration. Old versions are reclaimed as soon as no open
// snapshot can reach them, from one queue of writes in id order that write
// completion and Snapshot.Close pop up to the reclaim limit: a snapshot-free
// workload keeps every chain empty, and a long reader taxes no writer.
//
// Epochs come from one global write counter (the generalized version stamp):
// a write span gets id w = nextW+1 and stays "active" until its mutation is
// complete; a snapshot opens at epoch e = min(active)-1 (or nextW when no
// write is in flight), so every write that could still change state has
// w > e and every write with w <= e had fully finished before the snapshot
// existed. A chain entry {w, pre} means "pre was the atom's record before
// write w" — encoded once, at install, into the image every snapshot reader
// is handed; the zero pre is a tombstone ("the atom did not exist before w",
// installed by inserts and resurrections). Resolving address a at epoch e
// takes the image of the first chain entry with w > e; an undecided chain
// means the current state already is the epoch's state.

// mvShardCount is the number of chain-map lock stripes (power of two).
const mvShardCount = 64

// mvVersion is one chain entry: the atom's record visible at epochs < w.
// The zero record says that the atom did not exist before write w.
type mvVersion struct {
	w   uint64
	pre Record
}

// mvShard is one lock stripe of the chain map.
type mvShard struct {
	mu     sync.Mutex
	chains map[addr.LogicalAddr][]mvVersion
}

// mvStore is the multi-version store: sharded pre-image chains plus the
// epoch registry (write counter, in-flight writes, open snapshots).
type mvStore struct {
	// entries counts chain entries across all shards. It is incremented
	// before an entry is installed and decremented after removal, so
	// entries == 0 proves no chain entry exists or is being installed —
	// the read fast path is a single atomic load.
	entries atomic.Int64

	shards [mvShardCount]mvShard

	mu      sync.Mutex
	nextW   uint64              // last write id handed out
	active  map[uint64]struct{} // write ids still mutating
	ended   *sync.Cond          // on mu: a write span ended (see AwaitWrites)
	snaps   map[uint64]int      // open snapshots per epoch (refcounted)
	minSnap uint64              // min key of snaps (valid while len(snaps) > 0)
	// queue[qHead:] holds the chain address of each write not yet reclaimed,
	// in id order: ids are handed out and queued together under mu, so the
	// queue holds exactly the ids nextW-queued+1 .. nextW.
	queue []addr.LogicalAddr
	qHead int
}

func newMVStore() *mvStore {
	m := &mvStore{
		active: make(map[uint64]struct{}),
		snaps:  make(map[uint64]int),
	}
	m.ended = sync.NewCond(&m.mu)
	for i := range m.shards {
		m.shards[i].chains = make(map[addr.LogicalAddr][]mvVersion)
	}
	return m
}

func (m *mvStore) shardOf(a addr.LogicalAddr) *mvShard {
	return &m.shards[acHash(a)&(mvShardCount-1)]
}

// epochLocked returns the current snapshot epoch: the newest write id whose
// effects (and those of every older write) are fully applied.
func (m *mvStore) epochLocked() uint64 {
	e := m.nextW
	for w := range m.active {
		if w-1 < e {
			e = w - 1
		}
	}
	return e
}

// reclaimLimitLocked returns the highest write id whose pre-images no open
// snapshot can reach: entries with w <= limit are dead. The limit never
// decreases, and every write up to it has ended, so its entry is installed.
func (m *mvStore) reclaimLimitLocked() uint64 {
	limit := m.epochLocked()
	if len(m.snaps) > 0 && m.minSnap < limit {
		limit = m.minSnap
	}
	return limit
}

// writeBegin opens a write span for atom a and installs its pre-image
// (the zero record = the atom does not exist yet). It must be called before
// any physical record of the atom changes; the returned id closes the span
// via writeEnd.
func (m *mvStore) writeBegin(a addr.LogicalAddr, pre Record) uint64 {
	m.mu.Lock()
	m.nextW++
	w := m.nextW
	m.active[w] = struct{}{}
	m.queue = append(m.queue, a)
	m.mu.Unlock()

	// Count before installing: a reader that loads entries == 0 after its
	// record read therefore cannot have raced this span's mutation (the
	// mutation only starts after the install below).
	m.entries.Add(1)
	sh := m.shardOf(a)
	sh.mu.Lock()
	chain := sh.chains[a]
	// Sorted insert: ids are assigned under the registry lock but installed
	// under the shard lock, so two writers of nearby atoms can interleave.
	i := len(chain)
	for i > 0 && chain[i-1].w > w {
		i--
	}
	chain = append(chain, mvVersion{})
	copy(chain[i+1:], chain[i:])
	chain[i] = mvVersion{w: w, pre: pre}
	sh.chains[a] = chain
	sh.mu.Unlock()
	return w
}

// writeEnd closes write span w and reclaims whatever history became
// unreachable, so with no snapshot open chains stay empty in steady state.
func (m *mvStore) writeEnd(w uint64) {
	m.mu.Lock()
	delete(m.active, w)
	m.ended.Broadcast()
	m.reclaimAndUnlock()
}

// reclaimAndUnlock prunes the chains of the queued writes the reclaim limit
// has passed; called with mu held, it releases it. It pops them 32 at a time
// onto the stack and prunes with mu free. A pass that pops fewer is done:
// whoever advances the limit after its look runs a pass of its own.
func (m *mvStore) reclaimAndUnlock() {
	var batch [32]addr.LogicalAddr
	for {
		limit := m.reclaimLimitLocked()
		// The queue holds ids nextW-queued+1 .. nextW: pop those up to limit.
		queued := uint64(len(m.queue) - m.qHead)
		n := copy(batch[:], m.queue[m.qHead:m.qHead+int(limit+queued-m.nextW)])
		m.qHead += n
		if m.qHead*2 >= len(m.queue) {
			m.queue = m.queue[:copy(m.queue, m.queue[m.qHead:])]
			m.qHead = 0
		}
		m.mu.Unlock()
		for _, a := range batch[:n] {
			m.pruneChain(a, limit)
		}
		if n < len(batch) {
			return
		}
		m.mu.Lock()
	}
}

// pruneChain drops a's entries with w <= limit (a prefix: chains are sorted).
func (m *mvStore) pruneChain(a addr.LogicalAddr, limit uint64) {
	sh := m.shardOf(a)
	sh.mu.Lock()
	chain := sh.chains[a]
	n := 0
	for n < len(chain) && chain[n].w <= limit {
		n++
	}
	if n > 0 {
		if n == len(chain) {
			delete(sh.chains, a)
		} else {
			sh.chains[a] = append([]mvVersion(nil), chain[n:]...)
		}
	}
	sh.mu.Unlock()
	if n > 0 {
		m.entries.Add(int64(-n))
	}
}

// versionAt resolves address a at epoch e against the chains. ok reports
// whether the chains decide the address at all; a decided zero record means
// the atom did not exist at e.
func (m *mvStore) versionAt(a addr.LogicalAddr, e uint64) (Record, bool) {
	if m.entries.Load() == 0 {
		return Record{}, false
	}
	sh := m.shardOf(a)
	sh.mu.Lock()
	for _, v := range sh.chains[a] {
		if v.w > e {
			pre := v.pre
			sh.mu.Unlock()
			return pre, true
		}
	}
	sh.mu.Unlock()
	return Record{}, false
}

// decidedAt is versionAt in the form the snapshot reads take it: a decided
// tombstone becomes the error a read of a missing atom returns.
func (m *mvStore) decidedAt(a addr.LogicalAddr, e uint64) (Record, bool, error) {
	pre, ok := m.versionAt(a, e)
	if ok && pre.Image.IsZero() {
		return Record{}, true, fmt.Errorf("%w: %v", ErrNoAtom, a)
	}
	return pre, ok, nil
}

// chainAddrsOf collects the addresses of the given type with sequence number
// in (after, bound] whose chains prove they existed at epoch e — the "ghost"
// complement a snapshot scan merges with the directory's live range (atoms
// deleted after e are gone from the directory but must still enumerate).
func (m *mvStore) chainAddrsOf(tid addr.TypeID, after, bound, e uint64) []addr.LogicalAddr {
	if m.entries.Load() == 0 {
		return nil
	}
	var out []addr.LogicalAddr
	for i := range m.shards {
		sh := &m.shards[i]
		sh.mu.Lock()
		for a, chain := range sh.chains {
			if a.Type() != tid {
				continue
			}
			if s := a.Seq(); s <= after || s > bound {
				continue
			}
			for _, v := range chain {
				if v.w > e {
					if !v.pre.Image.IsZero() {
						out = append(out, a)
					}
					break
				}
			}
		}
		sh.mu.Unlock()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Seq() < out[j].Seq() })
	return out
}

// --- write span integration ----------------------------------------------------

// mvBegin opens a write span for a with the given pre-image (the zero image
// = the atom does not exist yet) and returns the closure that closes it;
// mutation paths use `defer s.mvBegin(t, a, pre)()` so the span covers
// exactly the mutation (install happens at the defer statement, before any
// record changes; the close runs on every exit path).
func (s *System) mvBegin(t *catalog.AtomType, a addr.LogicalAddr, pre atom.Image) func() {
	var rec Record
	if !pre.IsZero() {
		rec = Record{Type: t, Addr: a, Image: pre}
	}
	w := s.mv.writeBegin(a, rec)
	return func() { s.mv.writeEnd(w) }
}

// --- snapshots ------------------------------------------------------------------

// Snapshot is a consistent read view of the atom store: every Get, GetBatch,
// Exists and address scan resolves against the epoch captured at open, no
// matter which writes commit concurrently. Snapshots are cheap (no data is
// copied at open; history accumulates only for atoms actually written while
// the snapshot is open) and must be Closed so their history can be
// reclaimed. Safe for concurrent use.
type Snapshot struct {
	sys    *System
	epoch  uint64
	closed atomic.Bool
	// span, when set, receives the read-path trace counters (atoms decoded,
	// cache hits/misses, pages pinned) for batched reads through this
	// snapshot. Every cursor reads through a snapshot, which makes it the
	// natural per-request carrier; nil means untraced (the common case).
	span *obs.Span
}

// SetTraceSpan attaches the span that batched reads through this snapshot
// charge their counters to. Nil-safe (untraced requests pass nil all the
// way down). Call before handing the snapshot to concurrent readers.
func (sn *Snapshot) SetTraceSpan(sp *obs.Span) {
	if sn == nil {
		return
	}
	sn.span = sp
}

// OpenSnapshot captures the current epoch as a consistent read view.
func (s *System) OpenSnapshot() *Snapshot {
	m := s.mv
	m.mu.Lock()
	e := m.epochLocked()
	m.snapRefLocked(e)
	m.mu.Unlock()
	return &Snapshot{sys: s, epoch: e}
}

// WriteHorizon returns the id of the newest write begun so far. A session
// that notes it after its own writes returned and hands it to AwaitWrites
// before its next read gets read-your-writes.
func (s *System) WriteHorizon() uint64 {
	m := s.mv
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.nextW
}

// AwaitWrites blocks until every write with an id up to w has completed:
// from then on every snapshot opens at epoch w or later. Without it a
// snapshot opens below the oldest write still in flight, which may be
// another session's and older than writes the caller has had acknowledged.
// The wait is one mutation long at most; write spans never nest a wait.
func (s *System) AwaitWrites(w uint64) {
	m := s.mv
	m.mu.Lock()
	for m.epochLocked() < w {
		m.ended.Wait()
	}
	m.mu.Unlock()
}

// SnapshotAt pins an additional snapshot at an epoch the caller already
// holds open through another live snapshot (the transaction layer shares
// its transaction-begin epoch with the cursors opened inside). Pinning an
// epoch no live snapshot holds would read reclaimed history and is invalid.
func (s *System) SnapshotAt(epoch uint64) *Snapshot {
	m := s.mv
	m.mu.Lock()
	m.snapRefLocked(epoch)
	m.mu.Unlock()
	return &Snapshot{sys: s, epoch: epoch}
}

func (m *mvStore) snapRefLocked(e uint64) {
	if len(m.snaps) == 0 || e < m.minSnap {
		m.minSnap = e
	}
	m.snaps[e]++
}

// OpenSnapshots returns the number of live (unclosed) snapshots — the leak
// gauge resilience tests assert against: an abandoned cursor that failed to
// release its snapshot shows up here as a stuck non-zero count.
func (s *System) OpenSnapshots() int {
	m := s.mv
	m.mu.Lock()
	defer m.mu.Unlock()
	n := 0
	for _, c := range m.snaps {
		n += c
	}
	return n
}

// Epoch returns the snapshot's epoch.
func (sn *Snapshot) Epoch() uint64 { return sn.epoch }

// Close releases the snapshot and reclaims history only it kept alive.
// Idempotent; nil-safe.
func (sn *Snapshot) Close() {
	if sn == nil || sn.closed.Swap(true) {
		return
	}
	m := sn.sys.mv
	m.mu.Lock()
	if m.snaps[sn.epoch]--; m.snaps[sn.epoch] == 0 {
		delete(m.snaps, sn.epoch)
		if sn.epoch == m.minSnap {
			m.minSnap = math.MaxUint64
			for e := range m.snaps {
				m.minSnap = min(m.minSnap, e)
			}
		}
	}
	m.reclaimAndUnlock()
}

// Resolve reads address a at the snapshot's epoch: a decided chain serves
// the historic record (or reports the atom as not existing at the epoch);
// otherwise fetch supplies the current state, re-checked against the chains
// afterwards. The re-check closes the race with a writer whose span opened
// after the first check: pre-images are installed before any record changes,
// so a fetch that observed a mutation always finds the pre-image installed.
func (sn *Snapshot) Resolve(a addr.LogicalAddr, fetch func() (Record, error)) (Record, error) {
	mv := sn.sys.mv
	if pre, ok, err := mv.decidedAt(a, sn.epoch); ok {
		return pre, err
	}
	cur, err := fetch()
	if pre, ok, derr := mv.decidedAt(a, sn.epoch); ok {
		return pre, derr
	}
	return cur, err
}

// Get reads one atom's record at the snapshot's epoch: a batch of one, so
// the single-atom path (scan roots, childless molecules) charges the same
// trace counters the fan-out does.
func (sn *Snapshot) Get(a addr.LogicalAddr) (Record, error) {
	recs := [1]Record{{Addr: a}}
	err := sn.Fill(recs[:])
	return recs[0], err
}

// GetBatch reads many atoms' records at the snapshot's epoch, aligned with
// the input: one slice for the level, the images shared with the cache.
func (sn *Snapshot) GetBatch(addrs []addr.LogicalAddr) ([]Record, error) {
	recs := recordsOf(addrs)
	return recs, sn.Fill(recs)
}

// Fill reads, at the snapshot's epoch and in place, the type and record
// image of every atom recs names by address — the form molecule assembly
// keeps a level in. The batch is read as it stands now; like Resolve's
// re-check, what the chains decide afterwards overrides it.
func (sn *Snapshot) Fill(recs []Record) error {
	mv := sn.sys.mv
	err := sn.sys.fill(recs, sn.span, true)
	// No chain entry now, after the read, proves that no write span was open
	// over any of the records (see mvStore.entries): that is almost always so.
	if mv.entries.Load() == 0 {
		return err
	}
	if err != nil {
		// A batch fails as a whole, and an atom deleted since the epoch fails
		// it although the chains still hold it: resolve one by one. A record
		// that cannot be read keeps its address.
		for i := range recs {
			a := recs[i].Addr
			rec, err := sn.Resolve(a, func() (Record, error) { return sn.sys.record(a) })
			if err != nil {
				return err
			}
			recs[i] = rec
		}
		return nil
	}
	for i := range recs {
		if pre, ok, err := mv.decidedAt(recs[i].Addr, sn.epoch); err != nil {
			return err
		} else if ok {
			recs[i] = pre
		}
	}
	return nil
}

// Exists reports whether atom a existed at the snapshot's epoch.
func (sn *Snapshot) Exists(a addr.LogicalAddr) bool {
	if pre, ok := sn.sys.mv.versionAt(a, sn.epoch); ok {
		return !pre.Image.IsZero()
	}
	ex := sn.sys.dir.Exists(a)
	if pre, ok := sn.sys.mv.versionAt(a, sn.epoch); ok {
		return !pre.Image.IsZero()
	}
	return ex
}

// ScanAddrsAfter enumerates up to limit addresses of the type as of the
// snapshot's epoch, in sequence order starting strictly after `after`: the
// directory's live range merged with the "ghosts" — atoms deleted after the
// epoch, which the directory no longer lists but the chains still prove.
// Atoms inserted after the epoch may still enumerate (their chains decide
// them as tombstones, so Exists/Get filter them out downstream).
func (sn *Snapshot) ScanAddrsAfter(typeName string, after uint64, limit int) ([]addr.LogicalAddr, error) {
	live, err := sn.sys.ScanAddrsAfter(typeName, after, limit)
	if err != nil {
		return nil, err
	}
	if sn.sys.mv.entries.Load() == 0 {
		return live, nil
	}
	t, err := sn.sys.typeOf(typeName)
	if err != nil {
		return nil, err
	}
	// Ghosts beyond the live chunk's last sequence belong to later chunks
	// (the caller's paging cursor advances by the returned addresses, so the
	// range must stay gap-free).
	bound := uint64(math.MaxUint64)
	if limit > 0 && len(live) == limit {
		bound = live[len(live)-1].Seq()
	}
	ghosts := sn.sys.mv.chainAddrsOf(t.ID, after, bound, sn.epoch)
	if len(ghosts) == 0 {
		return live, nil
	}
	merged := mergeAddrsBySeq(live, ghosts)
	if limit > 0 && len(merged) > limit {
		merged = merged[:limit]
	}
	return merged, nil
}

// MaxSeq returns the highest sequence number of any atom of the type visible
// at the snapshot's epoch: the directory's live maximum, raised by ghosts the
// chains still prove (the highest-sequence atoms may have been deleted after
// the epoch). Cursors use it to bound lazy scans.
func (sn *Snapshot) MaxSeq(typeName string) (uint64, error) {
	max, err := sn.sys.MaxSeq(typeName)
	if err != nil {
		return 0, err
	}
	if sn.sys.mv.entries.Load() == 0 {
		return max, nil
	}
	t, err := sn.sys.typeOf(typeName)
	if err != nil {
		return 0, err
	}
	ghosts := sn.sys.mv.chainAddrsOf(t.ID, max, math.MaxUint64, sn.epoch)
	if n := len(ghosts); n > 0 {
		return ghosts[n-1].Seq(), nil
	}
	return max, nil
}

// mergeAddrsBySeq merges two sequence-ordered address lists, dropping
// duplicates (an atom can be both live and chained when it was modified, not
// deleted).
func mergeAddrsBySeq(x, y []addr.LogicalAddr) []addr.LogicalAddr {
	out := make([]addr.LogicalAddr, 0, len(x)+len(y))
	i, j := 0, 0
	for i < len(x) && j < len(y) {
		switch {
		case x[i] == y[j]:
			out = append(out, x[i])
			i++
			j++
		case x[i].Seq() < y[j].Seq():
			out = append(out, x[i])
			i++
		default:
			out = append(out, y[j])
			j++
		}
	}
	out = append(out, x[i:]...)
	out = append(out, y[j:]...)
	return out
}
