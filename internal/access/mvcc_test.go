package access

import (
	"errors"
	"math/rand/v2"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"prima/internal/access/addr"
	"prima/internal/access/atom"
)

// TestSnapshotSeesPreImages: a snapshot opened before updates and deletes
// keeps reading the pre-DML state while live reads see the new one.
func TestSnapshotSeesPreImages(t *testing.T) {
	s, addrs := nodeSystem(t, 4)
	sn := s.OpenSnapshot()
	defer sn.Close()

	if err := s.Update(addrs[0], map[string]atom.Value{"n": atom.Int(100)}); err != nil {
		t.Fatalf("Update: %v", err)
	}
	if err := s.Delete(addrs[1]); err != nil {
		t.Fatalf("Delete: %v", err)
	}

	// Snapshot: pre-image of the updated atom.
	at, err := sn.Get(addrs[0])
	if err != nil {
		t.Fatalf("snapshot Get: %v", err)
	}
	if v, _ := at.Value("n"); v.I != 0 {
		t.Fatalf("snapshot n = %d, want pre-image 0", v.I)
	}
	// Snapshot: the deleted atom still reads.
	if at, err = sn.Get(addrs[1]); err != nil {
		t.Fatalf("snapshot Get of deleted atom: %v", err)
	}
	if v, _ := at.Value("n"); v.I != 1 {
		t.Fatalf("snapshot deleted n = %d, want 1", v.I)
	}
	if !sn.Exists(addrs[1]) {
		t.Fatalf("snapshot Exists(deleted) = false, want true")
	}

	// Live reads see the new state.
	cur, err := s.Get(addrs[0], nil)
	if err != nil {
		t.Fatalf("live Get: %v", err)
	}
	if v, _ := cur.Value("n"); v.I != 100 {
		t.Fatalf("live n = %d, want 100", v.I)
	}
	if _, err := s.Get(addrs[1], nil); !errors.Is(err, ErrNoAtom) {
		t.Fatalf("live Get of deleted atom = %v, want ErrNoAtom", err)
	}

	// Batched snapshot reads agree with single reads.
	batch, err := sn.GetBatch(addrs)
	if err != nil {
		t.Fatalf("snapshot GetBatch: %v", err)
	}
	for i, at := range batch {
		if v, _ := at.Value("n"); v.I != int64(i) {
			t.Fatalf("batch[%d].n = %d, want %d", i, v.I, i)
		}
	}
	// The same with the first chain-decided address in the middle: the
	// undecided ones before it pass through to the batched read, and every
	// result still lands at its input position.
	order := []int{2, 0, 3, 1}
	mixed := make([]addr.LogicalAddr, len(order))
	for i, o := range order {
		mixed[i] = addrs[o]
	}
	if batch, err = sn.GetBatch(mixed); err != nil {
		t.Fatalf("snapshot GetBatch: %v", err)
	}
	for i, at := range batch {
		if v, _ := at.Value("n"); at.Addr != mixed[i] || v.I != int64(order[i]) {
			t.Fatalf("batch[%d] = %v n=%d, want %v n=%d", i, at.Addr, v.I, mixed[i], order[i])
		}
	}
}

// TestSnapshotHidesLaterInserts: atoms inserted after a snapshot opened are
// tombstoned for it.
func TestSnapshotHidesLaterInserts(t *testing.T) {
	s, _ := nodeSystem(t, 2)
	sn := s.OpenSnapshot()
	defer sn.Close()

	a, err := s.Insert("node", map[string]atom.Value{"n": atom.Int(99)})
	if err != nil {
		t.Fatalf("Insert: %v", err)
	}
	if sn.Exists(a) {
		t.Fatalf("snapshot Exists(inserted-after) = true, want false")
	}
	if _, err := sn.Get(a); !errors.Is(err, ErrNoAtom) {
		t.Fatalf("snapshot Get of later insert = %v, want ErrNoAtom", err)
	}
	// A fresh snapshot sees it.
	sn2 := s.OpenSnapshot()
	defer sn2.Close()
	if !sn2.Exists(a) {
		t.Fatalf("fresh snapshot misses the committed insert")
	}
}

// TestSnapshotScanEnumeratesGhosts: deleted atoms still enumerate for an
// older snapshot; later inserts do not leak into its visible set.
func TestSnapshotScanEnumeratesGhosts(t *testing.T) {
	s, addrs := nodeSystem(t, 8)
	sn := s.OpenSnapshot()
	defer sn.Close()

	if err := s.Delete(addrs[2]); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	if err := s.Delete(addrs[5]); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	if _, err := s.Insert("node", map[string]atom.Value{"n": atom.Int(100)}); err != nil {
		t.Fatalf("Insert: %v", err)
	}

	got, err := sn.ScanAddrsAfter("node", 0, 100)
	if err != nil {
		t.Fatalf("snapshot scan: %v", err)
	}
	visible := 0
	for _, a := range got {
		if sn.Exists(a) {
			visible++
		}
	}
	if visible != len(addrs) {
		t.Fatalf("snapshot enumerates %d visible atoms, want %d (got %v)", visible, len(addrs), got)
	}
	// Ghosts must appear in sequence order within the result.
	for i := 1; i < len(got); i++ {
		if got[i-1].Seq() >= got[i].Seq() {
			t.Fatalf("snapshot scan out of order: %v", got)
		}
	}

	// Paged enumeration (limit smaller than the set) stays gap-free.
	var paged []addr.LogicalAddr
	after := uint64(0)
	for {
		chunk, err := sn.ScanAddrsAfter("node", after, 3)
		if err != nil {
			t.Fatalf("paged scan: %v", err)
		}
		if len(chunk) == 0 {
			break
		}
		paged = append(paged, chunk...)
		after = chunk[len(chunk)-1].Seq()
	}
	if len(paged) != len(got) {
		t.Fatalf("paged scan found %d addrs, single scan %d", len(paged), len(got))
	}
	for i := range paged {
		if paged[i] != got[i] {
			t.Fatalf("paged scan diverges at %d: %v vs %v", i, paged[i], got[i])
		}
	}
}

// TestSnapshotGCDrainsChains: history exists only while a snapshot can reach
// it; closing the last snapshot reclaims everything.
func TestSnapshotGCDrainsChains(t *testing.T) {
	s, addrs := nodeSystem(t, 4)
	if got := s.mv.entries.Load(); got != 0 {
		t.Fatalf("entries = %d before any snapshot, want 0", got)
	}

	sn := s.OpenSnapshot()
	if err := s.Update(addrs[0], map[string]atom.Value{"n": atom.Int(1)}); err != nil {
		t.Fatalf("Update: %v", err)
	}
	if err := s.Delete(addrs[1]); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	if got := s.mv.entries.Load(); got == 0 {
		t.Fatalf("entries = 0 with an open snapshot and history, want > 0")
	}
	sn.Close()
	if got := s.mv.entries.Load(); got != 0 {
		t.Fatalf("entries = %d after last snapshot closed, want 0", got)
	}

	// Without snapshots, writes prune their own spans immediately.
	if err := s.Update(addrs[2], map[string]atom.Value{"n": atom.Int(2)}); err != nil {
		t.Fatalf("Update: %v", err)
	}
	if got := s.mv.entries.Load(); got != 0 {
		t.Fatalf("entries = %d in snapshot-free steady state, want 0", got)
	}

	// Close is idempotent.
	sn.Close()
}

// TestSnapshotConcurrentDML hammers snapshot readers against writers under
// the race detector: each snapshot's view of its atom must stay frozen at
// the value it opened over.
func TestSnapshotConcurrentDML(t *testing.T) {
	s, addrs := nodeSystem(t, 8)
	const rounds = 200
	var wg sync.WaitGroup
	errc := make(chan error, 16)

	wg.Add(1)
	go func() {
		defer wg.Done()
		for v := int64(1); v <= rounds; v++ {
			i := int(v) % len(addrs)
			if err := s.Update(addrs[i], map[string]atom.Value{"n": atom.Int(v)}); err != nil {
				errc <- err
				return
			}
		}
	}()

	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for k := 0; k < rounds/4; k++ {
				sn := s.OpenSnapshot()
				i := (k + r) % len(addrs)
				first, err := sn.Get(addrs[i])
				if err != nil {
					sn.Close()
					errc <- err
					return
				}
				want := first.Image.Attr(1).I
				for probe := 0; probe < 4; probe++ {
					at, err := sn.Get(addrs[i])
					if err != nil {
						sn.Close()
						errc <- err
						return
					}
					if got := at.Image.Attr(1).I; got != want {
						sn.Close()
						errc <- errors.New("snapshot view moved mid-lifetime")
						return
					}
				}
				sn.Close()
			}
		}(r)
	}
	wg.Wait()
	select {
	case err := <-errc:
		t.Fatalf("concurrent snapshot DML: %v", err)
	default:
	}
	if got := s.mv.entries.Load(); got != 0 {
		t.Fatalf("entries = %d after all snapshots closed and writes done, want 0", got)
	}
}

// TestNegativeCacheProbes: a failed Get publishes a negative entry served on
// the next probe without a directory miss; insert at that address (via
// resurrection) invalidates it.
func TestNegativeCacheProbes(t *testing.T) {
	s, addrs := nodeSystem(t, 2)
	victim := addrs[0]
	pre, err := s.Get(victim, nil)
	if err != nil {
		t.Fatalf("Get: %v", err)
	}
	if err := s.Delete(victim); err != nil {
		t.Fatalf("Delete: %v", err)
	}

	if _, err := s.Get(victim, nil); !errors.Is(err, ErrNoAtom) {
		t.Fatalf("Get deleted = %v, want ErrNoAtom", err)
	}
	st1 := s.AtomCacheStats()
	if _, err := s.Get(victim, nil); !errors.Is(err, ErrNoAtom) {
		t.Fatalf("second Get deleted = %v, want ErrNoAtom", err)
	}
	st2 := s.AtomCacheStats()
	if st2.Hits != st1.Hits+1 {
		t.Fatalf("negative probe not served from cache: hits %d -> %d", st1.Hits, st2.Hits)
	}

	// Resurrection must kill the negative entry.
	if err := s.Writer(0, nil).Restore(victim, pre.Values); err != nil {
		t.Fatalf("Restore: %v", err)
	}
	if _, err := s.Get(victim, nil); err != nil {
		t.Fatalf("Get after resurrect: %v", err)
	}
}

// TestAtomCacheByteAccounting: the accounted bytes are exact — the sum over
// the cached entries of image length plus the entry overhead — and never
// exceed the budget, through fills, evictions, negative entries,
// invalidations and a resize; a wide atom displaces the narrow ones its size
// is worth.
func TestAtomCacheByteAccounting(t *testing.T) {
	s, addrs := nodeSystem(t, 256)
	const budget = 64
	s.SetAtomCacheSize(budget)
	check := func(when string) AtomCacheStats {
		t.Helper()
		c := s.cache()
		sum, atoms := 0, 0
		for _, sh := range c.shards {
			sh.mu.Lock()
			shard := 0
			for e := sh.ring.next; e != &sh.ring; e = e.next {
				shard += acEntryOverhead + len(e.img.Bytes())
				if !e.img.IsZero() {
					atoms++
				}
			}
			if shard != sh.bytes || len(sh.entries) > 1 && shard > sh.capBytes {
				t.Errorf("%s: a shard accounts %d bytes for entries worth %d, capacity %d", when, sh.bytes, shard, sh.capBytes)
			}
			sum += shard
			sh.mu.Unlock()
		}
		st := s.AtomCacheStats()
		if st.Bytes != sum || st.Atoms != atoms {
			t.Fatalf("%s: stats say %d bytes in %d atoms, the entries hold %d in %d", when, st.Bytes, st.Atoms, sum, atoms)
		}
		if st.Bytes > budget*acAtomBytes {
			t.Fatalf("%s: %d bytes cached, budget %d", when, st.Bytes, budget*acAtomBytes)
		}
		return st
	}

	if _, err := s.Get(addrs[0], nil); err != nil {
		t.Fatal(err)
	}
	rec, err := s.record(addrs[0])
	if err != nil {
		t.Fatal(err)
	}
	if st := check("one atom"); st.Atoms != 1 || st.Bytes != acEntryOverhead+len(rec.Image.Bytes()) {
		t.Fatalf("one cached atom of %d bytes: %+v", len(rec.Image.Bytes()), st)
	}
	if _, err := s.GetBatch(addrs, nil); err != nil {
		t.Fatal(err)
	}
	if st := check("overfilled"); st.Evictions == 0 {
		t.Fatalf("256 atoms went through a budget of %d without an eviction: %+v", budget, st)
	}
	if err := s.Delete(addrs[1]); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get(addrs[1], nil); !errors.Is(err, ErrNoAtom) {
		t.Fatalf("Get of a deleted atom: %v", err)
	}
	check("negative entry")
	for _, a := range addrs[2:40] {
		if err := s.Update(a, map[string]atom.Value{"n": atom.Int(-1)}); err != nil {
			t.Fatal(err)
		}
	}
	check("invalidated")

	// A very wide atom (large string) charges its real size: caching it
	// evicts everything else in its shard and stays cached alone.
	wide, err := s.Insert("node", map[string]atom.Value{
		"label": atom.Str(string(make([]byte, 64<<10))),
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get(wide, nil); err != nil {
		t.Fatal(err)
	}
	sh := s.cache().shardOf(wide)
	if len(sh.entries) != 1 || sh.bytes < 64<<10 {
		t.Fatalf("the wide atom's shard holds %d entries in %d bytes, want it alone", len(sh.entries), sh.bytes)
	}
	s.SetAtomCacheSize(budget)
	if _, err := s.GetBatch(addrs[2:], nil); err != nil {
		t.Fatal(err)
	}
	check("resized and refilled")
}

// TestAwaitWritesGivesReadYourWrites: while another session's older write is
// in flight a fresh snapshot opens below it, and so below writes that
// finished after it began; a session that awaits its write horizon first
// reads its own write.
func TestAwaitWritesGivesReadYourWrites(t *testing.T) {
	s, addrs := nodeSystem(t, 2)
	cur, err := s.Get(addrs[1], nil)
	if err != nil {
		t.Fatal(err)
	}
	endOther := s.mvBegin(cur.Type, addrs[1], atom.ImageOf(cur.Values)) // another session, stalled mid-write

	if err := s.Update(addrs[0], map[string]atom.Value{"n": atom.Int(100)}); err != nil {
		t.Fatal(err)
	}
	horizon := s.WriteHorizon()
	n := func() int64 {
		sn := s.OpenSnapshot()
		defer sn.Close()
		at, err := sn.Get(addrs[0])
		if err != nil {
			t.Fatal(err)
		}
		v, _ := at.Value("n")
		return v.I
	}
	if got := n(); got != 0 {
		t.Fatalf("snapshot beside an older write in flight reads n = %d; the anomaly this test is about is gone", got)
	}

	awaited := make(chan struct{})
	go func() {
		s.AwaitWrites(horizon)
		close(awaited)
	}()
	select {
	case <-awaited:
		t.Fatal("AwaitWrites returned while an older write was in flight")
	case <-time.After(20 * time.Millisecond):
	}
	endOther()
	<-awaited
	if got := n(); got != 100 {
		t.Fatalf("after AwaitWrites the session reads n = %d, want its own 100", got)
	}
	s.AwaitWrites(0) // a session that never wrote does not wait
}

// bareMV is a multi-version store with no pages behind it: the System around
// it serves only snapshots, so a test drives write spans by hand and the
// "current state" is whatever its fetch function says.
func bareMV() (*System, *mvStore) {
	m := newMVStore()
	return &System{mv: m}, m
}

// queued is how many writes the reclamation queue still holds.
func (m *mvStore) queued() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.queue) - m.qHead
}

// intRec is a record whose image holds the one value v.
func intRec(v int64) Record { return Record{Image: atom.ImageOf([]atom.Value{atom.Int(v)})} }

// TestMVStoreInterleavedWritersReclaim: a write that ends while an older one
// is still in flight keeps its entry (a snapshot opened now would sit below
// the older write and need it); once the older write ends, both entries go,
// with no snapshot ever opened.
func TestMVStoreInterleavedWritersReclaim(t *testing.T) {
	_, m := bareMV()
	w1 := m.writeBegin(addr.New(1, 1), intRec(0))
	w2 := m.writeBegin(addr.New(1, 2), intRec(0))
	m.writeEnd(w2)
	if got := m.entries.Load(); got != 2 {
		t.Fatalf("entries = %d while the older write is in flight, want 2", got)
	}
	m.writeEnd(w1)
	if got, q := m.entries.Load(), m.queued(); got != 0 || q != 0 {
		t.Fatalf("entries = %d, queued = %d after both writes ended, want 0 and 0", got, q)
	}
}

// TestMVStorePinnedSnapshotKeepsItsHistory: history from before a snapshot
// is gone by the time it opens, even the part a stalled writer held back;
// the snapshot then keeps exactly the entries written after it, resolves
// each address to its pre-image, and its Close frees them all.
func TestMVStorePinnedSnapshotKeepsItsHistory(t *testing.T) {
	s, m := bareMV()
	stalled := m.writeBegin(addr.New(1, 1000), intRec(0))
	for i := uint64(1); i <= 10; i++ {
		m.writeEnd(m.writeBegin(addr.New(1, i), intRec(0)))
	}
	m.writeEnd(stalled)
	if got := m.entries.Load(); got != 0 {
		t.Fatalf("entries = %d before the snapshot opened, want 0", got)
	}

	sn := s.OpenSnapshot()
	const n, spread = 100, 50
	for i := 0; i < n; i++ {
		m.writeEnd(m.writeBegin(addr.New(1, uint64(i%spread)), intRec(int64(i))))
	}
	if got, q := m.entries.Load(), m.queued(); got != n || q != n {
		t.Fatalf("entries = %d, queued = %d under the snapshot, want %d and %d", got, q, n, n)
	}
	for i := 0; i < spread; i++ {
		rec, err := sn.Resolve(addr.New(1, uint64(i)), func() (Record, error) { return intRec(-1), nil })
		if err != nil {
			t.Fatal(err)
		}
		if v := rec.Image.Attr(0).I; v != int64(i) {
			t.Fatalf("address %d resolves to %d at the snapshot, want its first pre-image %d", i, v, i)
		}
	}
	sn.Close()
	if got, q := m.entries.Load(), m.queued(); got != 0 || q != 0 {
		t.Fatalf("entries = %d, queued = %d after Close, want 0 and 0", got, q)
	}
}

// TestMVStoreConcurrentSnapshotsReadTheirEpoch runs writers, snapshots that
// open and close, and reads through them at once. Writers of one address
// take turns, as atom locks make them, and count it up by one per write, so
// the value a snapshot must read is the number of that address's writes at
// or below its epoch. The writers go on after the last snapshot closed, and
// at the end every entry is reclaimed, with no Close left to sweep it.
func TestMVStoreConcurrentSnapshotsReadTheirEpoch(t *testing.T) {
	s, m := bareMV()
	const atoms, writers, writes, readers, snaps = 8, 4, 400, 2, 150
	var cur [atoms]atomic.Int64
	var turns [atoms]sync.Mutex
	type write struct {
		w uint64
		i int
	}
	type read struct {
		e    uint64
		i    int
		v    int64
		torn bool
	}
	logs := make([][]write, writers)
	seen := make([][]read, readers)
	var wg, rg sync.WaitGroup
	readersDone := make(chan struct{})
	for g := range writers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r := rand.New(rand.NewPCG(uint64(g), 1))
			for range writes {
				i := r.IntN(atoms)
				turns[i].Lock()
				v := cur[i].Load()
				w := m.writeBegin(addr.New(1, uint64(i)), intRec(v))
				cur[i].Store(v + 1)
				runtime.Gosched() // a mutation takes a while: let other writers begin
				m.writeEnd(w)
				turns[i].Unlock()
				logs[g] = append(logs[g], write{w, i})
			}
			// Once the last snapshot closed, each writer goes on over atoms
			// of its own, which no later write of the atom prunes by chance.
			<-readersDone
			for k := range writes {
				a := addr.New(2, uint64(g*writes+k))
				w := m.writeBegin(a, intRec(0))
				runtime.Gosched()
				m.writeEnd(w)
			}
		}()
	}
	for g := range readers {
		rg.Add(1)
		go func() {
			defer rg.Done()
			for range snaps {
				sn := s.OpenSnapshot()
				for i := range atoms {
					a := addr.New(1, uint64(i))
					rec, err := sn.Resolve(a, func() (Record, error) { return intRec(cur[i].Load()), nil })
					if err != nil {
						t.Error(err)
						return
					}
					v := rec.Image.Attr(0).I
					// A second look through the chains alone must agree.
					pre, ok := m.versionAt(a, sn.Epoch())
					seen[g] = append(seen[g], read{sn.Epoch(), i, v, ok && pre.Image.Attr(0).I != v})
				}
				sn.Close()
			}
		}()
	}
	rg.Wait()
	close(readersDone)
	wg.Wait()

	ids := make([][]uint64, atoms)
	for _, l := range logs {
		for _, wr := range l {
			ids[wr.i] = append(ids[wr.i], wr.w)
		}
	}
	for i := range ids {
		slices.Sort(ids[i])
	}
	for _, l := range seen {
		for _, rd := range l {
			want, _ := slices.BinarySearch(ids[rd.i], rd.e+1)
			if rd.v != int64(want) || rd.torn {
				t.Fatalf("a snapshot at epoch %d read atom %d as %d (chains agree: %v), want %d", rd.e, rd.i, rd.v, !rd.torn, want)
			}
		}
	}
	if got, q := m.entries.Load(), m.queued(); got != 0 || q != 0 {
		t.Fatalf("entries = %d, queued = %d after every write ended and every snapshot closed, want 0 and 0", got, q)
	}
}

// TestOldestSnapshotLagGauge: the gauge counts the writes begun since the
// oldest open snapshot's epoch, and drops to 0 when none is open.
func TestOldestSnapshotLagGauge(t *testing.T) {
	s, addrs := nodeSystem(t, 2)
	lag := func() float64 { return s.Obs().Snapshot().Gauge("mvcc_oldest_snapshot_lag_writes") }
	if got := lag(); got != 0 {
		t.Fatalf("lag = %v with no snapshot open, want 0", got)
	}
	sn := s.OpenSnapshot()
	for i := 1; i <= 3; i++ {
		if err := s.Update(addrs[0], map[string]atom.Value{"n": atom.Int(int64(i))}); err != nil {
			t.Fatal(err)
		}
	}
	young := s.OpenSnapshot()
	if got := lag(); got != 3 {
		t.Fatalf("lag = %v after three writes under the oldest snapshot, want 3", got)
	}
	sn.Close()
	if got := lag(); got != 0 {
		t.Fatalf("lag = %v with only a snapshot of the current epoch open, want 0", got)
	}
	young.Close()
}
