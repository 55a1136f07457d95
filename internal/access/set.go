package access

import (
	"errors"
	"fmt"
	"slices"

	"prima/internal/access/addr"
	"prima/internal/access/atom"
	"prima/internal/catalog"
	"prima/internal/storage/wal"
)

// ErrSetUsed is returned by InsertSet for a set that was already inserted
// (or whose insert failed).
var ErrSetUsed = errors.New("access: atom set already inserted")

// AtomSet collects the atoms of one set-oriented insert (Writer.InsertSet).
// Its members may reference each other and existing atoms. Back-references
// among members are applied in memory, so each member is logged and stored
// once, with its final values; an existing atom that members reference gets
// one partner update, however many references point at it.
//
// Add gives a member its logical address at once, so later members and the
// caller can reference it, but the address goes live only when InsertSet
// has logged and stored the member: a set that fails, or is never inserted,
// leaves no live address. A set is inserted at most once and is not safe for
// concurrent use.
type AtomSet struct {
	s       *System
	members []setMember
	pos     map[addr.LogicalAddr]int // member address -> index
	used    bool
}

// setMember is one atom of a set: its values as Add was given them until
// InsertSet adds the back-references.
type setMember struct {
	t    *catalog.AtomType
	a    addr.LogicalAddr
	vals []atom.Value
}

// setPartner is an existing atom that members reference: the pre-image
// InsertSet read and the values it writes back.
type setPartner struct {
	t       *catalog.AtomType
	a       addr.LogicalAddr
	pre, nv []atom.Value
	changed map[int]bool // nil: the partner is symmetric already
}

// backRef is the implicit partner update one reference implies: target's
// back attribute of t's reference attribute attr gains from.
type backRef struct {
	t            *catalog.AtomType
	attr         int
	from, target addr.LogicalAddr
}

// NewAtomSet returns an empty set of atoms to insert into s.
func (s *System) NewAtomSet() *AtomSet {
	return &AtomSet{s: s, pos: map[addr.LogicalAddr]int{}}
}

// Add adds an atom of the named type to the set and returns its address.
// values maps attribute names to values; omitted attributes take their zero
// value, and the IDENTIFIER is assigned by the system ("it is generated by
// the access system when an atom is inserted"). Reference targets are
// checked when the set is inserted.
func (set *AtomSet) Add(typeName string, values map[string]atom.Value) (addr.LogicalAddr, error) {
	if set.used {
		return 0, ErrSetUsed
	}
	s := set.s
	t, err := s.typeOf(typeName)
	if err != nil {
		return 0, err
	}
	for name := range values {
		i, ok := t.AttrIndex(name)
		if !ok {
			return 0, fmt.Errorf("%w: %s.%s", catalog.ErrUnknownAttr, typeName, name)
		}
		if i == t.IdentIndex() {
			return 0, fmt.Errorf("%w: %s.%s", ErrReadOnlyAttr, typeName, name)
		}
	}
	a := s.dir.Reserve(t.ID)
	vec := t.NewAtomValues(a)
	for name, v := range values {
		i, _ := t.AttrIndex(name)
		vec[i] = v
	}
	if err := t.CheckValues(vec); err != nil {
		return 0, err
	}
	set.pos[a] = len(set.members)
	set.members = append(set.members, setMember{t: t, a: a, vals: vec})
	return a, nil
}

// InsertSet is Writer.InsertSet in the no-transaction form of System.Insert.
func (s *System) InsertSet(set *AtomSet) error { return s.Writer(0, nil).InsertSet(set) }

// InsertSet inserts the members of set in w's write context, in the order
// they were added.
//
// Nothing is written until every member and every partner is admitted by
// the scope, every reference target is live or a member, and every member's
// final values type-check. Then each member is logged (one RecInsert) and
// stored, each partner gets its one update, and cluster occurrences rooted
// at members are built. The set's first multi-version write span stays open
// until its last write ends, so a snapshot sees all of the set or none of
// it. When a write fails, the members and partners already written are
// rolled back (logged as compensations); a page write that fails halfway
// leaves that one atom as Insert would.
//
// A set is atomic in the log too. In a transaction its records are the
// transaction's. An autocommit set of more than one record takes a
// transaction id of its own and ends with an (unforced) commit mark, so
// recovery rolls back a set a crash cut short instead of redoing a prefix
// whose images reference members that were never logged.
func (w Writer) InsertSet(set *AtomSet) (err error) {
	s := w.s
	if set.s != s {
		return fmt.Errorf("access: atom set of another system")
	}
	if set.used {
		return ErrSetUsed
	}
	set.used = true
	if len(set.members) == 0 {
		return nil
	}
	// Checkpoint op span: covers the whole set, from its first log record
	// to the last page write.
	defer s.walOpBegin()()
	var partners []*setPartner
	admitted, partnersAdmitted := 0, 0
	// Released last: after the write spans closed and the cache barriers ran.
	defer func() {
		for _, m := range set.members[:admitted] {
			w.release(m.a, wal.RecInsert, nil, err)
		}
		for _, p := range partners[:partnersAdmitted] {
			kind := wal.Kind(0) // nothing written
			if p.changed != nil {
				kind = wal.RecUpdate
			}
			w.release(p.a, kind, p.pre, err)
		}
	}()
	for _, m := range set.members {
		if err := w.acquire(m.a); err != nil {
			return err
		}
		admitted++
	}
	refs, err := set.backRefs()
	if err != nil {
		return err
	}
	if partners, err = set.applyBackRefs(refs); err != nil {
		return err
	}
	for _, m := range set.members {
		if err := m.t.CheckValues(m.vals); err != nil {
			return err
		}
	}
	for _, p := range partners {
		if err := w.acquire(p.a); err != nil {
			return err
		}
		partnersAdmitted++
	}
	if err := set.readPartners(partners, refs); err != nil {
		return err
	}
	records := len(set.members)
	for _, p := range partners {
		if p.changed != nil {
			records++
		}
	}
	own := w.txID == 0 && s.wal != nil && !s.walRecovering && records > 1
	if own {
		w.txID = s.NewTxID()
	}
	return w.writeSet(set, partners, own)
}

// backRefs validates the members' references, as Add gave them, and lists
// the partner updates they imply in member order. Listing them all before
// applying any keeps back-references from implying partner updates of their
// own, so a set stores the values that inserting its members one by one
// would.
func (set *AtomSet) backRefs() ([]backRef, error) {
	var refs []backRef
	for _, m := range set.members {
		for _, i := range m.t.RefAttrs() {
			if err := set.s.checkRefTargets(m.t, i, m.vals[i], set.holds); err != nil {
				return nil, err
			}
			for target := range m.vals[i].AllRefs() {
				refs = append(refs, backRef{t: m.t, attr: i, from: m.a, target: target})
			}
		}
	}
	return refs, nil
}

// holds reports whether a is a member's address.
func (set *AtomSet) holds(a addr.LogicalAddr) bool {
	_, ok := set.pos[a]
	return ok
}

// applyBackRefs applies the back-references whose target is a member to that
// member's values, and returns the existing atoms the others target, one
// each, in the order they are first referenced.
func (set *AtomSet) applyBackRefs(refs []backRef) ([]*setPartner, error) {
	var partners []*setPartner
	seen := map[addr.LogicalAddr]bool{}
	for _, r := range refs {
		if j, ok := set.pos[r.target]; ok {
			m := &set.members[j]
			bi, err := backAttr(r.t, r.attr, m.t)
			if err != nil {
				return nil, err
			}
			if !m.vals[bi].ContainsRef(r.from) {
				m.vals[bi] = m.vals[bi].WithRef(r.from)
			}
			continue
		}
		if !seen[r.target] {
			seen[r.target] = true
			pt, err := set.s.typeByID(r.target.Type())
			if err != nil {
				return nil, err
			}
			partners = append(partners, &setPartner{t: pt, a: r.target})
		}
	}
	return partners, nil
}

// readPartners reads each admitted partner's pre-image and applies the
// back-references that target it to a copy.
func (set *AtomSet) readPartners(partners []*setPartner, refs []backRef) error {
	byAddr := make(map[addr.LogicalAddr]*setPartner, len(partners))
	for _, p := range partners {
		cur, err := set.s.Get(p.a, nil)
		if err != nil {
			return err
		}
		p.pre = cur.Values
		byAddr[p.a] = p
	}
	for _, r := range refs {
		p := byAddr[r.target]
		if p == nil {
			continue // a member
		}
		bi, err := backAttr(r.t, r.attr, p.t)
		if err != nil {
			return err
		}
		v := p.pre[bi]
		if p.nv != nil {
			v = p.nv[bi]
		}
		if v.ContainsRef(r.from) {
			continue // already symmetric
		}
		if p.nv == nil {
			p.nv, p.changed = slices.Clone(p.pre), map[int]bool{}
		}
		p.nv[bi], p.changed[bi] = v.WithRef(r.from), true
	}
	return nil
}

// backAttr returns the index in pt of the back attribute of t's reference
// attribute attr.
func backAttr(t *catalog.AtomType, attr int, pt *catalog.AtomType) (int, error) {
	_, back, _ := t.Attrs[attr].Type.RefTarget()
	bi, ok := pt.AttrIndex(back)
	if !ok {
		return 0, fmt.Errorf("%w: %s.%s", catalog.ErrUnknownAttr, pt.Name, back)
	}
	return bi, nil
}

// writeSet logs and stores the members, updates the partners and builds the
// cluster occurrences rooted at members; on a failure it rolls back what it
// wrote. The first member's write span is held open to the end. With own
// set, the set's records carry a transaction id of their own, and writeSet
// ends them with a commit mark, or after a rollback an abort mark.
func (w Writer) writeSet(set *AtomSet, partners []*setPartner, own bool) (err error) {
	s := w.s
	first := set.members[0]
	defer s.mvBegin(first.t, first.a, nil)()
	// Deferred after the span opened, so it runs while the span is open:
	// no snapshot sees the rolled-back writes, and none sees a member
	// before the commit mark is in the log, so a writer that learned a
	// member's address from a snapshot logs its reference after the mark.
	stored, updated := 0, 0
	defer func() {
		if err != nil {
			w.rollbackSet(set.members[:stored], partners[:updated])
			if own {
				_ = w.walMark(wal.RecAbort) // a lost mark leaves a loser: the same state
			}
		}
	}()
	for k, m := range set.members {
		if err := w.storeMember(m, k == 0); err != nil {
			return err
		}
		stored++
	}
	for _, p := range partners {
		if p.changed != nil {
			if err := w.updateRaw(p.t, p.a, p.pre, p.nv, p.changed); err != nil {
				return err
			}
		}
		updated++
	}
	// Cluster maintenance: a new root atom spawns a new occurrence.
	for _, m := range set.members {
		for _, cl := range s.clustersInvolving(m.t.Name) {
			if cl.def.RootType() == m.t.Name {
				if err := s.buildClusterOccurrence(cl, m.a); err != nil {
					return err
				}
			}
		}
	}
	if own {
		return w.walMark(wal.RecCommit)
	}
	return nil
}

// storeMember logs member m's insert and stores it, making its address live.
// Its write span opens with a tombstone pre-image ("did not exist before this
// write") before the address goes live; the first member's span is opened,
// and closed, by writeSet.
func (w Writer) storeMember(m setMember, first bool) error {
	s := w.s
	if !first {
		defer s.mvBegin(m.t, m.a, nil)()
	}
	// Drop any negative cache entry for the address: it stops not-existing.
	defer s.cacheInvalidate(m.a)
	// Log the insert ahead of any page write; if a later physical step
	// fails, the compensating delete makes the logged pair a net no-op.
	if err := w.walAppend(wal.RecInsert, m.a, m.t.Name, nil, m.vals); err != nil {
		return err
	}
	comp := func() { w.walCompensate(wal.RecDelete, m.a, m.t.Name, m.vals, nil) }
	if err := s.dir.Revive(m.a); err != nil {
		comp()
		return err
	}
	if err := s.store(m.t, m.a, m.vals, comp); err != nil {
		if _, ok := s.dir.LookupStruct(m.a, 0); !ok {
			_, _ = s.dir.Release(m.a) // never registered: the address goes dead
		}
		return err
	}
	return nil
}

// rollbackSet undoes a failed set's writes, newest first: the partner
// updates, then the stored members. Best effort, like any compensation: the
// failure that stopped the set may stop its undo too.
func (w Writer) rollbackSet(members []setMember, partners []*setPartner) {
	s := w.s
	for i := len(partners) - 1; i >= 0; i-- {
		if p := partners[i]; p.changed != nil {
			_ = s.RawOverwrite(p.a, p.pre, w.txID)
		}
	}
	for i := len(members) - 1; i >= 0; i-- {
		_ = s.RawDelete(members[i].a, w.txID)
	}
}
