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

// ErrSetUsed is returned by WriteSet, and by the methods that add to a set,
// for a set that was already written (or whose write failed).
var ErrSetUsed = errors.New("access: atom set already written")

// AtomSet collects the writes of one set-oriented call of the access system
// (Writer.WriteSet): atoms to insert (Add), to update (Update, Connect,
// Disconnect) and to delete (Delete). It is the access system's only write
// path: Insert, Update, Connect, Disconnect and Delete write sets of one.
//
// The implicit partner updates that keep associations symmetric are the
// set's: each member's reference changes are applied to the other members in
// memory, and every other atom they reach, its partner, is updated once,
// however many references point at it. A member's reference to a member the
// set deletes is an error; a partner the set deletes, or that is no longer
// live, is left alone.
//
// Add gives a member its logical address at once, so later members and the
// caller can reference it, but the address goes live only when WriteSet has
// logged and stored the member: a set that fails, or is never written,
// leaves no live address. A set is written at most once and is not safe for
// concurrent use.
type AtomSet struct {
	s       *System
	members []setMember
	pos     map[addr.LogicalAddr]int // member address -> index
	used    bool
}

// setMember is one atom of a set: a member the caller added, or a partner
// WriteSet added.
type setMember struct {
	t *catalog.AtomType
	a addr.LogicalAddr
	// kind is the member's write: wal.RecInsert, RecUpdate or RecDelete. A
	// partner is 0 until a back-reference changes it.
	kind  wal.Kind
	edits []setEdit // update: the changes, applied to the pre-image in order
	backs []int     // update: the back attributes back-references changed
	// img and pre are the pre-image read after admission (updates, deletes
	// and partners); vals are the values to write (all but deletes).
	img       atom.Image
	pre, vals []atom.Value
}

// setEdit is one change of an updated member: attribute i takes v, or, for
// a connection, gains (op > 0) or loses (op < 0) the reference v.A.
type setEdit struct {
	i  int
	op int
	v  atom.Value
}

// backRef is the implicit partner update one reference change implies:
// target's back attribute of t's reference attribute attr gains from (add)
// or loses it.
type backRef struct {
	t            *catalog.AtomType
	attr         int
	from, target addr.LogicalAddr
	add          bool
}

// NewAtomSet returns an empty set of writes to s.
func (s *System) NewAtomSet() *AtomSet {
	return &AtomSet{s: s, pos: map[addr.LogicalAddr]int{}}
}

// Len returns the number of atoms added to the set. WriteSet adds the
// partners it updates.
func (set *AtomSet) Len() int { return len(set.members) }

// Add adds an atom of the named type to insert and returns its address.
// values maps attribute names to values; omitted attributes take their zero
// value, and the IDENTIFIER is assigned by the system ("it is generated by
// the access system when an atom is inserted"). Reference targets are
// checked when the set is written.
func (set *AtomSet) Add(typeName string, values map[string]atom.Value) (addr.LogicalAddr, error) {
	if set.used {
		return 0, ErrSetUsed
	}
	s := set.s
	t, err := s.typeOf(typeName)
	if err != nil {
		return 0, err
	}
	vec := t.NewAtomValues(0)
	for name, v := range values {
		i, err := attrIndex(t, name)
		if err != nil {
			return 0, err
		}
		vec[i] = v
	}
	if err := t.CheckValues(vec); err != nil {
		return 0, err
	}
	a := s.dir.Reserve(t.ID)
	vec[t.IdentIndex()] = atom.Ident(a)
	set.add(setMember{t: t, a: a, kind: wal.RecInsert, vals: vec})
	return a, nil
}

// Update adds an update of atom a to the set: the named attributes take the
// given values. Reference changes imply the partner updates that maintain
// back-references; redundant records are refreshed by deferred update.
func (set *AtomSet) Update(a addr.LogicalAddr, changes map[string]atom.Value) error {
	if _, err := set.member(a, wal.RecUpdate); err != nil {
		return err
	}
	for name, v := range changes {
		if err := set.edit(a, name, 0, v); err != nil {
			return err
		}
	}
	return nil
}

// Change adds to the set the change of a's attribute attr to v: Update of
// one attribute.
func (set *AtomSet) Change(a addr.LogicalAddr, attr string, v atom.Value) error {
	return set.edit(a, attr, 0, v)
}

// Connect adds to the set the connection of target to a's reference
// attribute attr, made to a's values as WriteSet reads them. This realizes
// MQL's component connection.
func (set *AtomSet) Connect(a addr.LogicalAddr, attr string, target addr.LogicalAddr) error {
	return set.edit(a, attr, 1, atom.Ref(target))
}

// Disconnect adds to the set the removal of target from a's reference
// attribute attr.
func (set *AtomSet) Disconnect(a addr.LogicalAddr, attr string, target addr.LogicalAddr) error {
	return set.edit(a, attr, -1, atom.Ref(target))
}

// edit adds the edit of a's attribute attr to a's update member; a new value
// is type-checked at once.
func (set *AtomSet) edit(a addr.LogicalAddr, attr string, op int, v atom.Value) error {
	m, err := set.member(a, wal.RecUpdate)
	if err != nil {
		return err
	}
	i, err := attrIndex(m.t, attr)
	if err != nil {
		return err
	}
	if op == 0 {
		if err := m.t.Attrs[i].Type.Check(v); err != nil {
			return err
		}
	}
	m.edits = append(m.edits, setEdit{i: i, op: op, v: v})
	return nil
}

// Delete adds the deletion of atom a to the set: its partners drop their
// back-references (automatic disconnection), all its physical records are
// reclaimed, and its logical address is released. Deleting a member the set
// deletes already adds nothing.
func (set *AtomSet) Delete(a addr.LogicalAddr) error {
	_, err := set.member(a, wal.RecDelete)
	return err
}

// member returns a's member, an update or a delete as kind says, adding it
// to the set first. A member of the other kind, or an insert, is an error.
func (set *AtomSet) member(a addr.LogicalAddr, kind wal.Kind) (*setMember, error) {
	if set.used {
		return nil, ErrSetUsed
	}
	if j, ok := set.pos[a]; ok {
		if m := &set.members[j]; m.kind == kind {
			return m, nil
		}
		return nil, fmt.Errorf("access: the set writes %v twice", a)
	}
	t, err := set.s.typeByID(a.Type())
	if err != nil {
		return nil, err
	}
	return set.add(setMember{t: t, a: a, kind: kind}), nil
}

func (set *AtomSet) add(m setMember) *setMember {
	set.pos[m.a] = len(set.members)
	set.members = append(set.members, m)
	return &set.members[len(set.members)-1]
}

// attrIndex resolves an attribute a write may set: any but the IDENTIFIER.
func attrIndex(t *catalog.AtomType, name string) (int, error) {
	i, ok := t.AttrIndex(name)
	if !ok {
		return 0, fmt.Errorf("%w: %s.%s", catalog.ErrUnknownAttr, t.Name, name)
	}
	if i == t.IdentIndex() {
		return 0, fmt.Errorf("%w: %s.%s", ErrReadOnlyAttr, t.Name, name)
	}
	return i, nil
}

// WriteSet is Writer.WriteSet in the no-transaction form of System.Insert.
func (s *System) WriteSet(set *AtomSet) error { return s.Writer(0, nil).WriteSet(set) }

// WriteSet writes the members of set in w's write context, in the order
// they were added, and the partner updates they imply.
//
// Nothing is logged or written until every member is admitted by the scope
// and its pre-image read, every added reference targets a live atom or a
// member the set does not delete, every partner is admitted and read, every
// written vector type-checks and every key it enters fits its B-tree. Then
// each member is logged (one record) and applied, each changed partner gets
// its one update, and the cluster occurrence of each inserted root is
// built. The set's first multi-version write span stays open until its last
// write ends, so a snapshot sees all of the set or none of it. Past the
// checks only a physical failure (device, buffer) can stop a write; every
// member written then, the failing one included, gets its pre-image back by
// a logged restore.
//
// A set is atomic in the log too. In a transaction its records are the
// transaction's. An autocommit set of more than one record takes a
// transaction id of its own and ends with an (unforced) commit mark, so
// recovery rolls back a set a crash cut short instead of redoing a prefix.
func (w Writer) WriteSet(set *AtomSet) (err error) {
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
	defer s.walOpEnd(s.walOpBegin())
	admitted := 0
	// Released last: after the write spans closed and the cache barriers ran.
	defer func() {
		for _, m := range set.members[:admitted] {
			w.release(m.a, m.kind, m.pre, err)
		}
	}()
	// admit admits and reads the members from admitted on.
	admit := func() error {
		for _, m := range set.members[admitted:] {
			if err := w.acquire(m.a); err != nil {
				return err
			}
			admitted++
		}
		return set.read()
	}
	if err := admit(); err != nil {
		return err
	}
	refs, err := set.applyEdits()
	if err != nil {
		return err
	}
	if err := admit(); err != nil { // the partners applyEdits added
		return err
	}
	for _, r := range refs {
		if err := set.members[set.pos[r.target]].applyBackRef(r); err != nil {
			return err
		}
	}
	records := 0
	for _, m := range set.members {
		if m.vals != nil {
			if err := m.t.CheckValues(m.vals); err != nil {
				return err
			}
			if err := s.checkKeys(m.t, m.pre, m.vals); err != nil {
				return err
			}
		}
		if m.kind != 0 {
			records++
		}
	}
	own := w.txID == 0 && s.wal != nil && !s.walRecovering && records > 1
	if own {
		w.txID = s.NewTxID()
	}
	return w.writeSet(set, own)
}

// read reads the pre-image of every admitted member that exists already and
// has none yet: the updates, deletes and partners.
func (set *AtomSet) read() error {
	for i := range set.members {
		m := &set.members[i]
		if m.kind == wal.RecInsert || m.pre != nil {
			continue
		}
		rec, err := set.s.record(m.a)
		if err != nil {
			return err
		}
		m.img, m.pre = rec.Image, rec.Image.Values()
		if m.kind != wal.RecDelete {
			m.vals = slices.Clone(m.pre)
		}
	}
	return nil
}

// applyEdits makes the members' reference changes in member order, as
// writing the members one by one would: an update's edits are applied to
// its values, and the back-references each change implies are applied to
// the members they target at once. It returns the back-references that
// target other atoms and adds each such atom to the set as a partner,
// unless a removal finds it no longer live.
func (set *AtomSet) applyEdits() ([]backRef, error) {
	var out, rs []backRef
	for k := range set.members {
		var err error
		if rs, err = set.refChanges(&set.members[k], rs[:0]); err != nil {
			return nil, err
		}
		for _, r := range rs {
			if j, ok := set.pos[r.target]; ok {
				if err := set.members[j].applyBackRef(r); err != nil {
					return nil, err
				}
			} else if r.add || set.s.dir.Exists(r.target) {
				out = append(out, r)
			}
		}
	}
	for _, r := range out {
		if _, ok := set.pos[r.target]; ok {
			continue
		}
		pt, err := set.s.typeByID(r.target.Type())
		if err != nil {
			return nil, err
		}
		set.add(setMember{t: pt, a: r.target})
	}
	return out, nil
}

// refChanges applies member m's edits, if it is an update, and appends to
// rs the back-references its reference changes imply: an insert adds all
// its references, an update adds and removes what its edits change, and a
// delete removes all of them. An added reference must target a live atom or
// a member the set does not delete.
func (set *AtomSet) refChanges(m *setMember, rs []backRef) ([]backRef, error) {
	var err error
	diff := func(i int, old, nv atom.Value) {
		if err != nil || !m.t.Attrs[i].Type.IsRef() {
			return
		}
		for x := range nv.AllRefs() {
			if !old.ContainsRef(x) {
				if err = set.checkTarget(m.t, i, x); err != nil {
					return
				}
				rs = append(rs, backRef{t: m.t, attr: i, from: m.a, target: x, add: true})
			}
		}
		for x := range old.AllRefs() {
			if !nv.ContainsRef(x) {
				rs = append(rs, backRef{t: m.t, attr: i, from: m.a, target: x})
			}
		}
	}
	switch m.kind {
	case wal.RecInsert:
		for i, v := range m.vals {
			diff(i, atom.Null(), v)
		}
	case wal.RecUpdate:
		for _, e := range m.edits {
			old, nv := m.vals[e.i], e.v
			switch {
			case e.op > 0:
				nv = old.WithRef(e.v.A)
			case e.op < 0:
				nv = old.WithoutRef(e.v.A)
			}
			m.vals[e.i] = nv
			diff(e.i, old, nv)
		}
	case wal.RecDelete:
		for i, v := range m.pre {
			diff(i, v, atom.Null())
		}
	}
	return rs, err
}

// checkTarget validates that target, added to t's reference attribute i,
// has the attribute's declared target type and is live or a member the set
// does not delete.
func (set *AtomSet) checkTarget(t *catalog.AtomType, i int, target addr.LogicalAddr) error {
	targetType, _, _ := t.Attrs[i].Type.RefTarget()
	tt, err := set.s.typeOf(targetType)
	if err != nil {
		return err
	}
	live := false
	if target.Type() == tt.ID {
		if j, ok := set.pos[target]; ok {
			live = set.members[j].kind != wal.RecDelete
		} else {
			live = set.s.dir.Exists(target)
		}
	}
	if !live {
		return fmt.Errorf("%w: %s.%s -> %v (want live %s)", ErrBadRef, t.Name, t.Attrs[i].Name, target, targetType)
	}
	return nil
}

// applyBackRef applies back-reference r to member m's values, unless the
// set deletes m. A partner's first change makes it an update.
func (m *setMember) applyBackRef(r backRef) error {
	if m.kind == wal.RecDelete {
		return nil
	}
	bi, err := backAttr(r.t, r.attr, m.t)
	if err != nil {
		return err
	}
	v := m.vals[bi]
	if v.ContainsRef(r.from) == r.add {
		return nil // symmetric already
	}
	if r.add {
		m.vals[bi] = v.WithRef(r.from)
	} else {
		m.vals[bi] = v.WithoutRef(r.from)
	}
	m.backs = append(m.backs, bi)
	if m.kind == 0 {
		m.kind = wal.RecUpdate
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

// writeSet logs and applies the members that write, in order, and builds
// the cluster occurrence of each inserted root; on a failure it rolls
// back what it wrote. The first member's write span is held open to the
// end. With own set, the set's records carry a transaction id of their own,
// and writeSet ends them with a commit mark, or after a rollback an abort
// mark.
func (w Writer) writeSet(set *AtomSet, own bool) (err error) {
	s := w.s
	first := &set.members[0]
	defer s.mvBegin(first.t, first.a, first.img)()
	// Deferred after the span opened, so it runs while the span is open:
	// no snapshot sees the rolled-back writes, and none sees a member
	// before the commit mark is in the log, so a writer that learned a
	// member's address from a snapshot logs its reference after the mark.
	written := 0
	defer func() {
		if err != nil {
			w.rollbackSet(set.members[:written])
			if own {
				_ = w.walMark(wal.RecAbort) // a lost mark leaves a loser: the same state
			}
		}
	}()
	for k := range set.members {
		written++ // a member that fails partway is rolled back too
		if m := &set.members[k]; m.kind != 0 {
			if err := w.writeMember(m, k == 0); err != nil {
				return err
			}
		}
	}
	// Cluster maintenance: a new root atom spawns a new occurrence.
	for _, m := range set.members {
		if m.kind == wal.RecInsert {
			if err := s.buildRootedClusters(m.t, m.a); err != nil {
				return err
			}
		}
	}
	if own {
		return w.walMark(wal.RecCommit)
	}
	return nil
}

// writeMember logs member m's write and applies it, inside a write span
// whose pre-image is m's (a tombstone for an insert); the first member's
// span is opened, and closed, by writeSet.
func (w Writer) writeMember(m *setMember, first bool) error {
	if !first {
		defer w.s.mvBegin(m.t, m.a, m.img)()
	}
	return w.write(m.t, m.a, m.pre, m.pre, m.vals, false)
}

// rollbackSet undoes a failed set's writes, newest first: each member gets
// its pre-image back. Best effort, like any undo: the failure that stopped
// the set may stop its undo too.
func (w Writer) rollbackSet(members []setMember) {
	for i := len(members) - 1; i >= 0; i-- {
		if m := &members[i]; m.kind != 0 {
			_ = w.restore(m.t, m.a, m.vals, m.pre)
		}
	}
}
