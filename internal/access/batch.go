package access

import (
	"fmt"
	"time"

	"prima/internal/access/addr"
	"prima/internal/access/atom"
	"prima/internal/catalog"
	"prima/internal/obs"
)

// GetBatch reads many atoms in one access-system call, aligned with the
// input addresses — the decoded, set-oriented counterpart of Get. Full-width
// reads (attrs nil) go through the batched record read molecule assembly
// uses and decode each image into an Atom the caller owns. Projected reads
// are routed per atom, because partition coverage is decided per record.
func (s *System) GetBatch(addrs []addr.LogicalAddr, attrs []string) ([]*Atom, error) {
	out := make([]*Atom, len(addrs))
	if attrs != nil {
		for i, a := range addrs {
			at, err := s.Get(a, attrs)
			if err != nil {
				return nil, err
			}
			out[i] = at
		}
		return out, nil
	}
	recs := recordsOf(addrs)
	if err := s.fill(recs, nil, true); err != nil {
		return nil, err
	}
	for i, rec := range recs {
		out[i] = rec.Decode()
	}
	return out, nil
}

// recordsOf names the atoms at addrs as records still to fill.
func recordsOf(addrs []addr.LogicalAddr) []Record {
	recs := make([]Record, len(addrs))
	for i, a := range addrs {
		recs[i].Addr = a
	}
	return recs
}

// fill reads the type and record image of every atom recs names by address,
// in place: no allocation per atom beyond the image copy of a miss. Atom
// cache hits are filled in first; the misses are grouped by primary container
// and by page, so one directory lookup and one buffer fix serve every atom
// that shares a page — what molecule assembly issues for each level's
// fan-out, and, as a batch of one, every single-atom read. A missed record
// is checked once and, unless publish is off (scans read every atom once),
// published to the cache under the version stamp captured before its page
// read; an image that fails the check fails the batch and is never cached.
// After an error recs is filled in part. A batch that missed is timed into
// access_decode_ns. Cache hits/misses, atoms read, distinct pages touched and
// the time are charged to sp (nil-safe no-ops when the request is untraced).
func (s *System) fill(recs []Record, sp *obs.Span, publish bool) error {
	if len(recs) == 0 {
		return nil
	}
	start := time.Now()
	var miss []int
	defer func() {
		el := time.Since(start).Nanoseconds()
		if miss != nil {
			s.decodeNs.Observe(el)
		}
		sp.Add(obs.CtrDecodeNs, el)
	}()

	cache := s.cache()
	publish = publish && cache != nil

	// Cache hits are filled in place; miss collects the positions still to
	// read. A level is almost always one atom type: t is resolved per run.
	// Up to eight misses (nearly every level) the scratch stays on the stack.
	var missBuf [8]int
	var ridBuf [8]addr.RID
	var stampBuf [8]uint64
	var dataBuf [8][]byte
	var t *catalog.AtomType
	for i := range recs {
		rec := &recs[i]
		if t == nil || t.ID != rec.Addr.Type() {
			var err error
			if t, err = s.typeByID(rec.Addr.Type()); err != nil {
				return err
			}
		}
		rec.Type = t
		if cache != nil {
			if img, ok := cache.get(rec.Addr); ok {
				if img.IsZero() {
					// Negative hit: the address is known not to exist.
					return fmt.Errorf("%w: %v", ErrNoAtom, rec.Addr)
				}
				rec.Image = img
				continue
			}
		}
		if miss == nil {
			miss = scratch(missBuf[:], len(recs)-i)[:0]
		}
		miss = append(miss, i)
	}
	sp.Add(obs.CtrCacheHits, int64(len(recs)-len(miss)))
	sp.Add(obs.CtrCacheMisses, int64(len(miss)))

	// Read the misses type by type, in order of first appearance: each type
	// owns one primary container. The first round normally takes all of miss
	// and rest stays empty; miss itself stays set for the timing above.
	for todo := miss; len(todo) > 0; {
		t := recs[todo[0]].Type
		idxs, rest := todo[:0], []int(nil)
		for _, i := range todo {
			if recs[i].Type == t {
				idxs = append(idxs, i) // in place: never ahead of the read position
			} else {
				rest = append(rest, i)
			}
		}
		todo = rest
		rids := scratch(ridBuf[:], len(idxs))
		var stamps []uint64
		if publish {
			stamps = scratch(stampBuf[:], len(idxs))
		}
		for j, i := range idxs {
			a := recs[i].Addr
			if publish {
				stamps[j] = cache.stamp(a) // before the directory probe and page read
			}
			ref, ok := s.dir.LookupStruct(a, 0)
			if !ok {
				if publish {
					// Remember the miss: inserts and resurrections bump the
					// stamp, so it cannot outlive the address coming to life.
					cache.put(a, atom.Image{}, stamps[j])
				}
				return fmt.Errorf("%w: %v", ErrNoAtom, a)
			}
			rids[j] = ref.Where
		}
		prim, err := s.primary(t)
		if err != nil {
			return err
		}
		data := scratch(dataBuf[:], len(idxs))
		pages, err := prim.ReadBatch(rids, data)
		if err != nil {
			return err
		}
		sp.Add(obs.CtrAtomsDecoded, int64(len(idxs)))
		sp.Add(obs.CtrPagesPinned, int64(pages))
		// Each record is its own fresh copy, so an image may outlive the
		// batch in the cache and LRU eviction frees memory atom by atom.
		for j, i := range idxs {
			img, err := atom.CheckImage(data[j])
			if err != nil {
				return err
			}
			recs[i].Image = img
			if publish {
				cache.put(recs[i].Addr, img, stamps[j])
			}
		}
	}
	return nil
}

// scratch returns buf[:n] when n fits it, else a new slice of length n.
func scratch[T any](buf []T, n int) []T {
	if n <= len(buf) {
		return buf[:n]
	}
	return make([]T, n)
}
