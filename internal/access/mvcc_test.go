package access

import (
	"errors"
	"sync"
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
	if err := s.RawResurrect(victim, pre.Values, 0); err != nil {
		t.Fatalf("RawResurrect: %v", err)
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
	endOther := s.mvBegin(cur.Type, addrs[1], cur.Values) // another session, stalled mid-write

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
