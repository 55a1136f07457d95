package addr

import (
	"errors"
	"math/rand"
	"slices"
	"testing"
)

func TestLogicalAddrParts(t *testing.T) {
	a := New(7, 123456)
	if a.Type() != 7 || a.Seq() != 123456 {
		t.Fatalf("parts = (%d,%d), want (7,123456)", a.Type(), a.Seq())
	}
	if a.IsZero() {
		t.Fatal("non-zero address reported zero")
	}
	var z LogicalAddr
	if !z.IsZero() {
		t.Fatal("zero address not reported zero")
	}
	if a.String() != "@7.123456" {
		t.Fatalf("String = %q", a.String())
	}
	// 48-bit sequence wraps cleanly.
	big := New(1, 1<<48|5)
	if big.Seq() != 5 || big.Type() != 1 {
		t.Fatalf("overflowed seq leaked into type: %v", big)
	}
}

// newAddr reserves a fresh address of type t in d and makes it live, as an
// insert does once its atom is stored.
func newAddr(d *Directory, t TypeID) LogicalAddr {
	a := d.Reserve(t)
	if err := d.Revive(a); err != nil {
		panic(err) // a reserved address is never live
	}
	return a
}

func TestNewAddrMonotonic(t *testing.T) {
	d := NewDirectory()
	prev := uint64(0)
	for i := 0; i < 100; i++ {
		a := newAddr(d, 3)
		if a.Seq() <= prev {
			t.Fatalf("sequence not monotonic: %d after %d", a.Seq(), prev)
		}
		prev = a.Seq()
	}
	if d.Count(3) != 100 {
		t.Fatalf("Count = %d, want 100", d.Count(3))
	}
	if d.Count(4) != 0 {
		t.Fatalf("Count of empty type = %d", d.Count(4))
	}
}

func TestRegisterLookupUnregister(t *testing.T) {
	d := NewDirectory()
	a := newAddr(d, 1)

	refs, err := d.Lookup(a)
	if err != nil || len(refs) != 0 {
		t.Fatalf("fresh Lookup = %v, %v", refs, err)
	}

	primary := RecordRef{Struct: 0, Kind: KindPrimary, Where: RID{Page: 5, Slot: 2}, Valid: true}
	sortRec := RecordRef{Struct: 9, Kind: KindSortOrder, Where: RID{Page: 7, Slot: 0}, Valid: true}
	if err := d.Register(a, primary); err != nil {
		t.Fatalf("Register: %v", err)
	}
	if err := d.Register(a, sortRec); err != nil {
		t.Fatalf("Register: %v", err)
	}
	if err := d.Register(a, primary); !errors.Is(err, ErrDupStruct) {
		t.Fatalf("duplicate Register = %v, want ErrDupStruct", err)
	}

	refs, err = d.Lookup(a)
	if err != nil || len(refs) != 2 {
		t.Fatalf("Lookup = %v, %v", refs, err)
	}
	got, ok := d.LookupStruct(a, 9)
	if !ok || got.Where != (RID{Page: 7, Slot: 0}) {
		t.Fatalf("LookupStruct = %+v, %v", got, ok)
	}

	if err := d.Unregister(a, 9); err != nil {
		t.Fatalf("Unregister: %v", err)
	}
	if _, ok := d.LookupStruct(a, 9); ok {
		t.Fatal("reference survives Unregister")
	}
	// Unregister of an absent struct is a no-op.
	if err := d.Unregister(a, 9); err != nil {
		t.Fatalf("idempotent Unregister: %v", err)
	}

	if _, err := d.Lookup(New(1, 9999)); !errors.Is(err, ErrUnknownAddr) {
		t.Fatalf("Lookup unknown = %v, want ErrUnknownAddr", err)
	}
}

func TestUpdateAndValidity(t *testing.T) {
	d := NewDirectory()
	a := newAddr(d, 1)
	for i, k := range []StructKind{KindPrimary, KindSortOrder, KindPartition} {
		ref := RecordRef{Struct: StructID(i), Kind: k, Where: RID{Page: uint32(i)}, Valid: true}
		if err := d.Register(a, ref); err != nil {
			t.Fatalf("Register: %v", err)
		}
	}

	if err := d.Update(a, 1, RID{Page: 77, Slot: 3}); err != nil {
		t.Fatalf("Update: %v", err)
	}
	got, _ := d.LookupStruct(a, 1)
	if got.Where != (RID{Page: 77, Slot: 3}) {
		t.Fatalf("after Update: %+v", got)
	}
	if err := d.Update(a, 42, RID{}); !errors.Is(err, ErrUnknownAddr) {
		t.Fatalf("Update missing struct = %v", err)
	}

	// Deferred-update protocol: one structure stays valid, others go stale.
	stale, err := d.InvalidateOthers(a, 0)
	if err != nil {
		t.Fatalf("InvalidateOthers: %v", err)
	}
	if len(stale) != 2 {
		t.Fatalf("stale = %d refs, want 2", len(stale))
	}
	refs, _ := d.Lookup(a)
	for _, r := range refs {
		wantValid := r.Struct == 0
		if r.Valid != wantValid {
			t.Fatalf("struct %d valid=%v, want %v", r.Struct, r.Valid, wantValid)
		}
	}
	// Second invalidation returns nothing new.
	stale, _ = d.InvalidateOthers(a, 0)
	if len(stale) != 0 {
		t.Fatalf("repeat InvalidateOthers = %d refs, want 0", len(stale))
	}

	// Propagation marks them valid again.
	if err := d.SetValid(a, 1, true); err != nil {
		t.Fatalf("SetValid: %v", err)
	}
	got, _ = d.LookupStruct(a, 1)
	if !got.Valid {
		t.Fatal("SetValid did not stick")
	}
}

func TestReleaseAndScan(t *testing.T) {
	d := NewDirectory()
	var addrs []LogicalAddr
	for i := 0; i < 10; i++ {
		a := newAddr(d, 2)
		if err := d.Register(a, RecordRef{Struct: 0, Kind: KindPrimary, Valid: true}); err != nil {
			t.Fatalf("Register: %v", err)
		}
		addrs = append(addrs, a)
	}

	refs, err := d.Release(addrs[4])
	if err != nil {
		t.Fatalf("Release: %v", err)
	}
	if len(refs) != 1 {
		t.Fatalf("Release returned %d refs, want 1", len(refs))
	}
	if d.Exists(addrs[4]) {
		t.Fatal("released address still exists")
	}
	if _, err := d.Release(addrs[4]); !errors.Is(err, ErrUnknownAddr) {
		t.Fatalf("double Release = %v, want ErrUnknownAddr", err)
	}
	if d.Count(2) != 9 {
		t.Fatalf("Count = %d, want 9", d.Count(2))
	}

	// Scan visits survivors in ascending sequence order.
	var seen []LogicalAddr
	d.Scan(2, func(a LogicalAddr, refs []RecordRef) bool {
		seen = append(seen, a)
		return true
	})
	if len(seen) != 9 {
		t.Fatalf("Scan visited %d, want 9", len(seen))
	}
	for i := 1; i < len(seen); i++ {
		if seen[i].Seq() <= seen[i-1].Seq() {
			t.Fatal("Scan out of order")
		}
	}
	for _, a := range seen {
		if a == addrs[4] {
			t.Fatal("Scan visited released address")
		}
	}

	// Early stop.
	n := 0
	d.Scan(2, func(LogicalAddr, []RecordRef) bool { n++; return false })
	if n != 1 {
		t.Fatalf("Scan ignored early stop: %d", n)
	}

	// Scan of unknown type is empty.
	d.Scan(99, func(LogicalAddr, []RecordRef) bool {
		t.Fatal("scan of unknown type visited something")
		return false
	})
}

func TestTypes(t *testing.T) {
	d := NewDirectory()
	newAddr(d, 5)
	newAddr(d, 2)
	a := newAddr(d, 9)
	if _, err := d.Release(a); err != nil {
		t.Fatalf("Release: %v", err)
	}
	got := d.Types()
	if len(got) != 2 || got[0] != 2 || got[1] != 5 {
		t.Fatalf("Types = %v, want [2 5]", got)
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	d := NewDirectory()
	var addrs []LogicalAddr
	for i := 0; i < 20; i++ {
		a := newAddr(d, TypeID(1+i%3))
		addrs = append(addrs, a)
		d.Register(a, RecordRef{Struct: 0, Kind: KindPrimary, Where: RID{Page: uint32(i), Slot: uint16(i)}, Valid: true})
		if i%2 == 0 {
			d.Register(a, RecordRef{Struct: 5, Kind: KindCluster, Where: RID{Page: 100 + uint32(i)}, Valid: i%4 == 0})
		}
	}
	d.Release(addrs[3])

	snap := d.Snapshot()
	d2, err := LoadSnapshot(snap)
	if err != nil {
		t.Fatalf("LoadSnapshot: %v", err)
	}
	for i, a := range addrs {
		if i == 3 {
			if d2.Exists(a) {
				t.Fatal("released address resurrected by snapshot")
			}
			continue
		}
		want, _ := d.Lookup(a)
		got, err := d2.Lookup(a)
		if err != nil {
			t.Fatalf("Lookup %v: %v", a, err)
		}
		if len(got) != len(want) {
			t.Fatalf("%v: %d refs, want %d", a, len(got), len(want))
		}
		for j := range want {
			if got[j] != want[j] {
				t.Fatalf("%v ref %d = %+v, want %+v", a, j, got[j], want[j])
			}
		}
	}
	// Sequence counters continue after the snapshot (no address reuse).
	n := newAddr(d2, 1)
	if d.Exists(n) {
		t.Fatal("restored directory reused a live sequence number")
	}

	// Corrupted snapshots are rejected.
	if _, err := LoadSnapshot(snap[:len(snap)/2]); err == nil {
		t.Fatal("truncated snapshot accepted")
	}
	if _, err := LoadSnapshot([]byte{1, 2, 3, 4, 5, 6, 7, 8}); err == nil {
		t.Fatal("garbage snapshot accepted")
	}
	if _, err := LoadSnapshot(hostileSnapshot()); err == nil {
		t.Fatal("snapshot naming sequence number 2^39 of 2^40 accepted")
	}
}

// dirModel is the obvious directory: a map from live address to its
// reference list in registration order, and the next sequence number of each
// type.
type dirModel struct {
	refs map[LogicalAddr][]RecordRef
	next map[TypeID]uint64
}

// sorted returns the live addresses of type t, ascending.
func (m *dirModel) sorted(t TypeID) []LogicalAddr {
	var out []LogicalAddr
	for a := range m.refs {
		if a.Type() == t {
			out = append(out, a)
		}
	}
	slices.Sort(out)
	return out
}

// check compares every read the directory offers against the model.
func (m *dirModel) check(t *testing.T, d *Directory, rng *rand.Rand, types int) {
	t.Helper()
	var wantTypes []TypeID
	for ty := TypeID(0); ty < TypeID(types); ty++ {
		live := m.sorted(ty)
		if len(live) > 0 {
			wantTypes = append(wantTypes, ty)
		}
		if got := d.Count(ty); got != len(live) {
			t.Fatalf("Count(%d) = %d, want %d", ty, got, len(live))
		}
		wantMax := uint64(0)
		if n := m.next[ty]; n > 0 {
			wantMax = n - 1
		}
		if got := d.MaxSeq(ty); got != wantMax {
			t.Fatalf("MaxSeq(%d) = %d, want %d", ty, got, wantMax)
		}
		i := 0
		d.Scan(ty, func(a LogicalAddr, refs []RecordRef) bool {
			if i >= len(live) || a != live[i] || !slices.Equal(refs, m.refs[a]) {
				t.Fatalf("Scan(%d) visit %d: %v %v, model has %v", ty, i, a, refs, live)
			}
			i++
			return true
		})
		if i != len(live) {
			t.Fatalf("Scan(%d) visited %d atoms, want %d", ty, i, len(live))
		}
		after, limit := uint64(rng.Intn(int(wantMax)+2)), 1+rng.Intn(len(live)+2)
		var window []LogicalAddr
		for _, a := range live {
			if a.Seq() > after && len(window) < limit {
				window = append(window, a)
			}
		}
		if got := d.ScanRange(ty, after, limit); !slices.Equal(got, window) {
			t.Fatalf("ScanRange(%d, %d, %d) = %v, want %v", ty, after, limit, got, window)
		}
		// Every sequence number of the type, live or not.
		for seq := uint64(0); seq <= wantMax+1; seq++ {
			a := New(ty, seq)
			want, live := m.refs[a]
			if d.Exists(a) != live {
				t.Fatalf("Exists(%v) = %v", a, !live)
			}
			got, err := d.Lookup(a)
			if live != (err == nil) || !slices.Equal(got, want) {
				t.Fatalf("Lookup(%v) = %v, %v; want %v", a, got, err, want)
			}
			for s := StructID(0); s < 5; s++ {
				i := slices.IndexFunc(want, func(r RecordRef) bool { return r.Struct == s })
				got, ok := d.LookupStruct(a, s)
				if ok != (i >= 0) || ok && got != want[i] {
					t.Fatalf("LookupStruct(%v, %d) = %+v, %v; model has %v", a, s, got, ok, want)
				}
			}
		}
	}
	if got := d.Types(); !slices.Equal(got, wantTypes) {
		t.Fatalf("Types = %v, want %v", got, wantTypes)
	}
}

// Property: under random sequences of every mutation the directory answers
// every read like the map model does — reference lists in registration order,
// scans in sequence order — across table pages, revived addresses beyond the
// highest one handed out and a type emptied by deletes, and a snapshot
// restores exactly that state.
func TestDirectoryAgainstModel(t *testing.T) {
	const types = 4
	for seed := int64(1); seed <= 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		d := NewDirectory()
		m := &dirModel{refs: map[LogicalAddr][]RecordRef{}, next: map[TypeID]uint64{}}
		pick := func() (LogicalAddr, bool) {
			ty := TypeID(rng.Intn(types))
			if m.next[ty] <= 1 {
				return 0, false
			}
			return New(ty, 1+uint64(rng.Intn(int(m.next[ty])))), true // live, released or never handed out
		}
		for op := 0; op < 1000; op++ {
			switch k := rng.Intn(20); {
			case k < 6:
				ty := TypeID(rng.Intn(types))
				if m.next[ty] == 0 {
					m.next[ty] = 1
				}
				a := newAddr(d, ty)
				if a != New(ty, m.next[ty]) {
					t.Fatalf("seed %d: newAddr(%d) = %v, want sequence %d", seed, ty, a, m.next[ty])
				}
				m.next[ty]++
				m.refs[a] = nil
			case k < 10:
				a, ok := pick()
				if !ok {
					continue
				}
				ref := RecordRef{Struct: StructID(rng.Intn(5)), Kind: StructKind(rng.Intn(4)), Where: RID{Page: rng.Uint32() % 1000, Slot: uint16(rng.Intn(100))}, Valid: rng.Intn(2) == 0}
				err := d.Register(a, ref)
				refs, live := m.refs[a]
				dup := slices.ContainsFunc(refs, func(r RecordRef) bool { return r.Struct == ref.Struct })
				switch {
				case !live && !errors.Is(err, ErrUnknownAddr), live && dup && !errors.Is(err, ErrDupStruct), live && !dup && err != nil:
					t.Fatalf("seed %d: Register(%v, %+v) = %v with %v registered", seed, a, ref, err, refs)
				case live && !dup:
					m.refs[a] = append(refs, ref)
				}
			case k < 12:
				a, ok := pick()
				if !ok {
					continue
				}
				s := StructID(rng.Intn(5))
				refs, live := m.refs[a]
				if err := d.Unregister(a, s); live != (err == nil) {
					t.Fatalf("seed %d: Unregister(%v) = %v", seed, a, err)
				}
				if live {
					m.refs[a] = slices.DeleteFunc(refs, func(r RecordRef) bool { return r.Struct == s })
				}
			case k < 15:
				a, ok := pick()
				if !ok {
					continue
				}
				s := StructID(rng.Intn(5))
				i := slices.IndexFunc(m.refs[a], func(r RecordRef) bool { return r.Struct == s })
				var err error
				if rng.Intn(2) == 0 {
					where := RID{Page: rng.Uint32() % 1000, Slot: uint16(rng.Intn(100))}
					if err = d.Update(a, s, where); i >= 0 {
						m.refs[a][i].Where = where
					}
				} else {
					valid := rng.Intn(2) == 0
					if err = d.SetValid(a, s, valid); i >= 0 {
						m.refs[a][i].Valid = valid
					}
				}
				if (i >= 0) != (err == nil) {
					t.Fatalf("seed %d: Update/SetValid(%v, %d) = %v with %v registered", seed, a, s, err, m.refs[a])
				}
			case k < 16:
				a, ok := pick()
				if !ok {
					continue
				}
				keep := StructID(rng.Intn(5))
				var want []RecordRef
				for i, r := range m.refs[a] {
					if r.Struct != keep && r.Valid {
						m.refs[a][i].Valid = false
						want = append(want, m.refs[a][i])
					}
				}
				_, live := m.refs[a]
				if got, err := d.InvalidateOthers(a, keep); live != (err == nil) || !slices.Equal(got, want) {
					t.Fatalf("seed %d: InvalidateOthers(%v, %d) = %v, %v; want %v", seed, a, keep, got, err, want)
				}
			case k < 18:
				a, ok := pick()
				if !ok {
					continue
				}
				want, live := m.refs[a]
				if got, err := d.Release(a); live != (err == nil) || !slices.Equal(got, want) {
					t.Fatalf("seed %d: Release(%v) = %v, %v; want %v", seed, a, got, err, want)
				}
				delete(m.refs, a)
			case k < 19:
				// Revive a released address, a live one (refused), or, one
				// time in four, one up to three table pages beyond the highest
				// handed out.
				ty := TypeID(rng.Intn(types))
				seq := 1 + uint64(rng.Intn(int(m.next[ty])+1))
				if rng.Intn(4) == 0 {
					seq += uint64(rng.Intn(3 * slotsPerPage))
				}
				a := New(ty, seq)
				_, live := m.refs[a]
				if err := d.Revive(a); live == (err == nil) {
					t.Fatalf("seed %d: Revive(%v) = %v, live %v", seed, a, err, live)
				}
				if !live {
					m.refs[a] = nil
					m.next[ty] = max(m.next[ty], a.Seq()+1)
				}
			default:
				// Empty a type by deletes, through a scan that mutates the
				// directory as it goes.
				ty := TypeID(rng.Intn(types))
				d.Scan(ty, func(a LogicalAddr, _ []RecordRef) bool {
					if _, err := d.Release(a); err != nil {
						t.Fatalf("seed %d: Release(%v) within Scan: %v", seed, a, err)
					}
					delete(m.refs, a)
					return true
				})
			}
			if op%250 == 249 {
				m.check(t, d, rng, types)
			}
		}
		m.check(t, d, rng, types)
		d2, err := LoadSnapshot(d.Snapshot())
		if err != nil {
			t.Fatalf("seed %d: LoadSnapshot: %v", seed, err)
		}
		m.check(t, d2, rng, types)
	}
}
