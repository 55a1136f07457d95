package record

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"prima/internal/access/addr"
	"prima/internal/storage/buffer"
	"prima/internal/storage/device"
	"prima/internal/storage/segment"
)

func newContainer(t testing.TB, blockSize int) *Container {
	t.Helper()
	dev, err := device.NewMem(blockSize)
	if err != nil {
		t.Fatalf("NewMem: %v", err)
	}
	seg, err := segment.Create(dev, 1, 16384)
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	pool := buffer.NewPool(buffer.NewSizeAwareLRU(256 * 1024))
	c, err := New(seg, pool)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return c
}

func TestInsertReadDeleteRoundTrip(t *testing.T) {
	c := newContainer(t, device.B1K)
	recs := map[addr.RID][]byte{}
	for i := 0; i < 100; i++ {
		rec := bytes.Repeat([]byte{byte(i)}, i%80+1)
		rid, err := c.Insert(rec)
		if err != nil {
			t.Fatalf("Insert %d: %v", i, err)
		}
		recs[rid] = rec
	}
	if c.Count() != 100 {
		t.Fatalf("Count = %d, want 100", c.Count())
	}
	for rid, want := range recs {
		got, err := c.Read(rid)
		if err != nil {
			t.Fatalf("Read %v: %v", rid, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("Read %v mismatch", rid)
		}
	}
	for rid := range recs {
		if err := c.Delete(rid); err != nil {
			t.Fatalf("Delete %v: %v", rid, err)
		}
	}
	if c.Count() != 0 {
		t.Fatalf("Count after deletes = %d", c.Count())
	}
	for rid := range recs {
		if _, err := c.Read(rid); !errors.Is(err, ErrNotFound) {
			t.Fatalf("Read deleted %v = %v, want ErrNotFound", rid, err)
		}
	}
}

func TestLongRecordSpill(t *testing.T) {
	c := newContainer(t, device.B1K)
	long := bytes.Repeat([]byte("L"), 10000) // far beyond one 1K page
	rid, err := c.Insert(long)
	if err != nil {
		t.Fatalf("Insert long: %v", err)
	}
	got, err := c.Read(rid)
	if err != nil {
		t.Fatalf("Read long: %v", err)
	}
	if !bytes.Equal(got, long) {
		t.Fatal("long record round-trip mismatch")
	}
	// Spilled records release their pages on delete.
	before := c.Segment().Allocated()
	if err := c.Delete(rid); err != nil {
		t.Fatalf("Delete long: %v", err)
	}
	if c.Segment().Allocated() >= before {
		t.Fatalf("delete did not free spill pages: %d -> %d", before, c.Segment().Allocated())
	}
}

// TestReadBatch holds the batched read to one-record reads: the output
// is aligned with the input whatever order the RIDs come in — shuffled across
// pages, with duplicates, with a spilled record among them — every data page
// is fixed once, and one missing slot fails the batch.
func TestReadBatch(t *testing.T) {
	c := newContainer(t, device.B1K)
	var rids []addr.RID
	pageSet := map[uint32]bool{}
	for i := 0; i < 60; i++ {
		rec := bytes.Repeat([]byte{byte(i)}, i%80+20)
		if i == 17 {
			rec = bytes.Repeat([]byte("L"), 5000) // spills into a page sequence
		}
		rid, err := c.Insert(rec)
		if err != nil {
			t.Fatalf("Insert %d: %v", i, err)
		}
		rids = append(rids, rid)
		pageSet[rid.Page] = true
	}
	if len(pageSet) < 3 {
		t.Fatalf("records lie on %d pages; the test needs several", len(pageSet))
	}
	check := func(name string, batch []addr.RID, wantPages int) {
		t.Helper()
		before := c.pool.Stats()
		got := make([][]byte, len(batch))
		pages, err := c.ReadBatch(batch, got)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		after := c.pool.Stats()
		if fixes := int(after.Hits + after.Misses - before.Hits - before.Misses); pages != wantPages || fixes < pages {
			t.Errorf("%s: %d pages reported, %d fixes, want %d pages", name, pages, fixes, wantPages)
		}
		for i, rid := range batch {
			want, err := c.Read(rid)
			if err != nil {
				t.Fatalf("%s: Read %v: %v", name, rid, err)
			}
			if !bytes.Equal(got[i], want) {
				t.Fatalf("%s: record %d (%v) is %d bytes starting %x, want %d bytes starting %x",
					name, i, rid, len(got[i]), got[i][:1], len(want), want[:1])
			}
		}
	}
	check("in order", rids, len(pageSet))
	shuffled := append(append([]addr.RID(nil), rids...), rids[3], rids[17], rids[3])
	rand.New(rand.NewSource(1)).Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	check("shuffled with duplicates", shuffled, len(pageSet))
	check("one record", rids[40:41], 1)
	check("none", nil, 0)

	if err := c.Delete(rids[5]); err != nil {
		t.Fatal(err)
	}
	if _, err := c.ReadBatch(shuffled, make([][]byte, len(shuffled))); !errors.Is(err, ErrNotFound) {
		t.Fatalf("batch over a deleted slot: %v, want ErrNotFound", err)
	}
}

func TestUpdateTransitions(t *testing.T) {
	c := newContainer(t, device.B1K)
	rid, err := c.Insert([]byte("small"))
	if err != nil {
		t.Fatalf("Insert: %v", err)
	}

	// Inline -> inline (same page).
	rid2, err := c.Update(rid, []byte("still small"))
	if err != nil {
		t.Fatalf("Update: %v", err)
	}
	got, _ := c.Read(rid2)
	if string(got) != "still small" {
		t.Fatalf("after update: %q", got)
	}

	// Inline -> spilled.
	long := bytes.Repeat([]byte("x"), 5000)
	rid3, err := c.Update(rid2, long)
	if err != nil {
		t.Fatalf("Update to long: %v", err)
	}
	got, _ = c.Read(rid3)
	if !bytes.Equal(got, long) {
		t.Fatal("inline->spill mismatch")
	}

	// Spilled -> spilled (grow).
	longer := bytes.Repeat([]byte("y"), 9000)
	rid4, err := c.Update(rid3, longer)
	if err != nil {
		t.Fatalf("Update grow spill: %v", err)
	}
	got, _ = c.Read(rid4)
	if !bytes.Equal(got, longer) {
		t.Fatal("spill->spill mismatch")
	}

	// Spilled -> inline.
	rid5, err := c.Update(rid4, []byte("tiny again"))
	if err != nil {
		t.Fatalf("Update shrink: %v", err)
	}
	got, _ = c.Read(rid5)
	if string(got) != "tiny again" {
		t.Fatalf("spill->inline = %q", got)
	}
	// Note: shrink keeps the stub pointing at a rewritten 1-page sequence
	// or inlines; either way a Read must succeed and Count stays 1.
	if c.Count() != 1 {
		t.Fatalf("Count = %d, want 1", c.Count())
	}
}

func TestUpdateMovesWhenPageFull(t *testing.T) {
	c := newContainer(t, device.B512)
	// Fill a page with records.
	var rids []addr.RID
	for i := 0; i < 6; i++ {
		rid, err := c.Insert(bytes.Repeat([]byte{byte(i)}, 30))
		if err != nil {
			t.Fatalf("Insert: %v", err)
		}
		rids = append(rids, rid)
	}
	// Grow one record beyond its page's free space: it must move, not fail.
	big := bytes.Repeat([]byte("G"), 150)
	nrid, err := c.Update(rids[0], big)
	if err != nil {
		t.Fatalf("Update: %v", err)
	}
	got, err := c.Read(nrid)
	if err != nil || !bytes.Equal(got, big) {
		t.Fatalf("moved record read = %v", err)
	}
	// Other records untouched.
	for i := 1; i < 6; i++ {
		got, err := c.Read(rids[i])
		if err != nil || !bytes.Equal(got, bytes.Repeat([]byte{byte(i)}, 30)) {
			t.Fatalf("record %d damaged by neighbour move", i)
		}
	}
}

func TestScan(t *testing.T) {
	c := newContainer(t, device.B512)
	want := map[string]bool{}
	for i := 0; i < 50; i++ {
		rec := []byte{byte(i), byte(i >> 4), 7}
		if _, err := c.Insert(rec); err != nil {
			t.Fatalf("Insert: %v", err)
		}
		want[string(rec)] = true
	}
	// One long record participates in scans too.
	long := bytes.Repeat([]byte("S"), 3000)
	if _, err := c.Insert(long); err != nil {
		t.Fatalf("Insert long: %v", err)
	}
	want[string(long)] = true

	got := map[string]bool{}
	err := c.Scan(func(rid addr.RID, rec []byte) bool {
		got[string(rec)] = true
		return true
	})
	if err != nil {
		t.Fatalf("Scan: %v", err)
	}
	if len(got) != len(want) {
		t.Fatalf("Scan saw %d distinct records, want %d", len(got), len(want))
	}
	for k := range want {
		if !got[k] {
			t.Fatal("Scan missed a record")
		}
	}

	// Early stop.
	n := 0
	c.Scan(func(addr.RID, []byte) bool { n++; return false })
	if n != 1 {
		t.Fatalf("Scan ignored early stop: %d", n)
	}
}

func TestReopenContainer(t *testing.T) {
	dev, _ := device.NewMem(device.B1K)
	seg, err := segment.Create(dev, 1, 4096)
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	pool := buffer.NewPool(buffer.NewSizeAwareLRU(128 * 1024))
	c, err := New(seg, pool)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	recs := map[addr.RID][]byte{}
	for i := 0; i < 30; i++ {
		rec := bytes.Repeat([]byte{byte(i + 1)}, 20)
		rid, err := c.Insert(rec)
		if err != nil {
			t.Fatalf("Insert: %v", err)
		}
		recs[rid] = rec
	}
	if err := pool.FlushAll(); err != nil {
		t.Fatalf("FlushAll: %v", err)
	}

	// Reopen over the same segment with a fresh pool.
	pool2 := buffer.NewPool(buffer.NewSizeAwareLRU(128 * 1024))
	c2, err := New(seg, pool2)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	if c2.Count() != 30 {
		t.Fatalf("reopened Count = %d, want 30", c2.Count())
	}
	for rid, want := range recs {
		got, err := c2.Read(rid)
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("reopened Read %v = %v", rid, err)
		}
	}
	// Free-space inventory works after reopen: inserts reuse pages.
	pagesBefore := c2.Pages()
	if _, err := c2.Insert([]byte("x")); err != nil {
		t.Fatalf("Insert after reopen: %v", err)
	}
	if c2.Pages() != pagesBefore {
		t.Fatalf("small insert allocated a fresh page despite free space")
	}
}

// Property: a container behaves like map[RID][]byte under random operations.
func TestContainerQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := newContainer(t, device.B512)
		model := map[addr.RID][]byte{}
		var rids []addr.RID
		for op := 0; op < 150; op++ {
			switch rng.Intn(4) {
			case 0, 1: // insert (biased: containers grow)
				n := rng.Intn(600) + 1 // sometimes spills on 512B pages
				rec := make([]byte, n)
				rng.Read(rec)
				rid, err := c.Insert(rec)
				if err != nil {
					return false
				}
				if _, dup := model[rid]; dup {
					return false
				}
				model[rid] = append([]byte(nil), rec...)
				rids = append(rids, rid)
			case 2: // update
				if len(rids) == 0 {
					continue
				}
				i := rng.Intn(len(rids))
				rid := rids[i]
				if _, live := model[rid]; !live {
					continue
				}
				rec := make([]byte, rng.Intn(600)+1)
				rng.Read(rec)
				nrid, err := c.Update(rid, rec)
				if err != nil {
					return false
				}
				delete(model, rid)
				model[nrid] = append([]byte(nil), rec...)
				rids[i] = nrid
			case 3: // delete
				if len(rids) == 0 {
					continue
				}
				i := rng.Intn(len(rids))
				rid := rids[i]
				if _, live := model[rid]; !live {
					continue
				}
				if err := c.Delete(rid); err != nil {
					return false
				}
				delete(model, rid)
			}
		}
		if c.Count() != len(model) {
			return false
		}
		for rid, want := range model {
			got, err := c.Read(rid)
			if err != nil || !bytes.Equal(got, want) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkContainerInsert(b *testing.B) {
	c := newContainer(b, device.B8K)
	rec := bytes.Repeat([]byte("r"), 100)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Insert(rec); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkContainerRead(b *testing.B) {
	c := newContainer(b, device.B8K)
	rec := bytes.Repeat([]byte("r"), 100)
	var rids []addr.RID
	for i := 0; i < 1000; i++ {
		rid, err := c.Insert(rec)
		if err != nil {
			b.Fatal(err)
		}
		rids = append(rids, rid)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Read(rids[i%len(rids)]); err != nil {
			b.Fatal(err)
		}
	}
}

// TestAllocsUpdateInPlace pins the allocations of an in-place update of an
// inline record: the new stored byte string is the one. Update reads the old
// record's flag where it lies; a copy of the old record made that two.
func TestAllocsUpdateInPlace(t *testing.T) {
	c := newContainer(t, device.B8K)
	rec := bytes.Repeat([]byte{7}, 100)
	rid, err := c.Insert(rec)
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		rec[0]++
		if got, err := c.Update(rid, rec); err != nil || got != rid {
			t.Fatalf("Update = %v, %v; want in place at %v", got, err, rid)
		}
	})
	if allocs != 1 {
		t.Fatalf("an in-place update of a 100-byte record allocated %.1f times, want 1", allocs)
	}
}
