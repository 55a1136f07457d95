package access

import (
	"fmt"
	"time"

	"prima/internal/access/addr"
	"prima/internal/access/atom"
	"prima/internal/obs"
)

// GetBatch reads many atoms in one access-system call, aligned with the
// input addresses. Decoded-atom cache hits are filled in first; the misses
// are grouped by primary container and by page, so one directory lookup and
// one buffer fix serve every atom that shares a page — the set-oriented
// counterpart of Get that molecule assembly uses for each level's fan-out.
// Missed records are decoded with zero-copy strings — through the batched
// arena entry point when nothing is retained (cache disabled), per record
// when publishing to the cache under the version stamps captured before the
// page reads.
//
// attrs follows Get's contract (nil materializes all attributes). Projected
// reads are routed per atom, because partition coverage is decided per
// record; the batch win lives on the full-width assembly path.
func (s *System) GetBatch(addrs []addr.LogicalAddr, attrs []string) ([]*Atom, error) {
	return s.getBatch(addrs, attrs, nil)
}

// getBatch is GetBatch with an optional trace span: cache hits/misses,
// decoded atom counts and distinct pages touched are charged to sp (nil-safe
// no-ops when the request is untraced).
func (s *System) getBatch(addrs []addr.LogicalAddr, attrs []string, sp *obs.Span) ([]*Atom, error) {
	out := make([]*Atom, len(addrs))
	if len(addrs) == 0 {
		return out, nil
	}
	start := time.Now()
	defer func() {
		el := time.Since(start).Nanoseconds()
		s.decodeNs.Observe(el)
		sp.Add(obs.CtrDecodeNs, el)
	}()
	if attrs != nil {
		for i, a := range addrs {
			at, err := s.Get(a, attrs)
			if err != nil {
				return nil, err
			}
			out[i] = at
		}
		sp.Add(obs.CtrAtomsDecoded, int64(len(addrs)))
		return out, nil
	}

	cache := s.cache()

	// Cache hits are filled in place; miss collects the positions still to
	// read.
	var miss []int
	for i, a := range addrs {
		if cache != nil {
			if at, ok := cache.get(a); ok {
				if at == nil {
					// Negative hit: the address is known not to exist.
					return nil, fmt.Errorf("%w: %v", ErrNoAtom, a)
				}
				out[i] = at
				continue
			}
		}
		if miss == nil {
			miss = make([]int, 0, len(addrs)-i)
		}
		miss = append(miss, i)
	}
	if sp != nil {
		sp.Add(obs.CtrCacheHits, int64(len(addrs)-len(miss)))
		sp.Add(obs.CtrCacheMisses, int64(len(miss)))
	}

	// Read the misses type by type, in order of first appearance: each type
	// owns one primary container. An assembly level is almost always one atom
	// type, so the first round takes all of miss and rest stays empty.
	for len(miss) > 0 {
		tid := addrs[miss[0]].Type()
		idxs, rest := miss[:0], []int(nil)
		for _, i := range miss {
			if addrs[i].Type() == tid {
				idxs = append(idxs, i) // in place: never ahead of the read position
			} else {
				rest = append(rest, i)
			}
		}
		miss = rest
		t, err := s.typeByID(tid)
		if err != nil {
			return nil, err
		}
		rids := make([]addr.RID, len(idxs))
		var stamps []uint64
		if cache != nil {
			stamps = make([]uint64, len(idxs))
		}
		for j, i := range idxs {
			if cache != nil {
				// Capture before the directory probe and page read, like Get
				// does.
				stamps[j] = cache.stamp(addrs[i])
			}
			ref, ok := s.dir.LookupStruct(addrs[i], 0)
			if !ok {
				if cache != nil {
					// Publish the negative fact, like Get does.
					cache.put(addrs[i], nil, stamps[j])
				}
				return nil, fmt.Errorf("%w: %v", ErrNoAtom, addrs[i])
			}
			rids[j] = ref.Where
		}
		prim, err := s.primary(t)
		if err != nil {
			return nil, err
		}
		recs, err := prim.ReadBatch(rids)
		if err != nil {
			return nil, err
		}
		if sp != nil {
			sp.Add(obs.CtrAtomsDecoded, int64(len(idxs)))
			sp.Add(obs.CtrPagesPinned, distinctPages(rids))
		}
		if cache == nil {
			// No retention: the whole level shares one value arena.
			vals, err := atom.DecodeAtomBatch(recs)
			if err != nil {
				return nil, err
			}
			for j, i := range idxs {
				out[i] = &Atom{Type: t, Addr: addrs[i], Values: vals[j]}
			}
			continue
		}
		// Atoms may outlive the batch in the cache; decode each against its
		// own record image so LRU eviction frees memory atom by atom (a
		// shared arena would stay pinned by any single cached survivor).
		for j, i := range idxs {
			values, err := atom.DecodeAtomOwned(recs[j])
			if err != nil {
				return nil, err
			}
			at := &Atom{Type: t, Addr: addrs[i], Values: values}
			out[i] = at
			cache.put(addrs[i], at, stamps[j])
		}
	}
	return out, nil
}

// distinctPages counts the pages a record batch touches — each is one
// buffer-pool fix on the read path, the trace's "pages pinned".
func distinctPages(rids []addr.RID) int64 {
	seen := make(map[uint32]struct{}, len(rids))
	for _, r := range rids {
		seen[r.Page] = struct{}{}
	}
	return int64(len(seen))
}
