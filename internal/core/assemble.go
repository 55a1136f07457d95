package core

import (
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"

	"prima/internal/access"
	"prima/internal/access/addr"
	"prima/internal/access/atom"
	"prima/internal/access/mdindex"
	"prima/internal/catalog"
	"prima/internal/obs"
)

// atomSource supplies atoms during molecule assembly, as record images. The
// snapshot source reads through the access system at the cursor's epoch; the
// cluster source reads from a materialized atom-cluster occurrence, falling
// back to the snapshot for atoms outside the cluster. Both support batched
// reads so one page fix in the buffer can serve a whole assembly level.
type atomSource interface {
	get(a addr.LogicalAddr) (access.Record, error)
	// fill reads the atoms recs names by address, in place; after an error
	// recs is filled in part.
	fill(recs []access.Record) error
}

// snapshotSource reads through a snapshot: every atom resolves at the
// cursor's epoch, so one molecule can never mix pre- and post-DML state no
// matter which writes land while it assembles.
type snapshotSource struct{ sn *access.Snapshot }

func (s snapshotSource) get(a addr.LogicalAddr) (access.Record, error) { return s.sn.Get(a) }

func (s snapshotSource) fill(recs []access.Record) error { return s.sn.Fill(recs) }

type clusterSource struct {
	occ *access.ClusterOccurrence
	sn  *access.Snapshot
}

// get serves a from the occurrence. Occurrence atoms are current state; the
// chains override them with the epoch's pre-image when a writer has since
// moved on.
func (s clusterSource) get(a addr.LogicalAddr) (access.Record, error) {
	return s.sn.Resolve(a, func() (access.Record, error) {
		if rec, ok := s.occ.Record(a); ok {
			return rec, nil
		}
		return s.sn.Get(a)
	})
}

func (s clusterSource) fill(recs []access.Record) error {
	for i := range recs {
		rec, err := s.get(recs[i].Addr)
		if err != nil {
			return err
		}
		recs[i] = rec
	}
	return nil
}

// roots enumerates the candidate molecule roots of every access but the
// atom-type scan, in the order of the chosen access.
func (p *Plan) roots() ([]addr.LogicalAddr, error) {
	sys := p.engine.sys
	switch p.AccessKind {
	case "direct":
		// A wrong-type address can never be the IDENTIFIER of a root atom,
		// so the restriction is unsatisfiable.
		if p.DirectRoot.Type() != p.Root.ID {
			return nil, nil
		}
		return []addr.LogicalAddr{p.DirectRoot}, nil
	case "accesspath":
		return sys.AccessPathSearch(p.PathName, []atom.Value{p.PathKey})
	case "pathrange":
		var out []addr.LogicalAddr
		err := sys.AccessPathScan(p.PathName, []mdindex.Range{{Start: p.PathStart, Stop: p.PathStop}},
			func(_ []atom.Value, a addr.LogicalAddr) bool {
				out = append(out, a)
				return true
			})
		return out, err
	case "gridrange":
		var out []addr.LogicalAddr
		err := sys.AccessPathScan(p.PathName, p.PathRanges,
			func(_ []atom.Value, a addr.LogicalAddr) bool {
				out = append(out, a)
				return true
			})
		if err != nil {
			return nil, err
		}
		// Grid buckets enumerate in directory order, which is not stable
		// across runs; sort into system-defined (insertion) order so cursor
		// delivery stays deterministic like every other access.
		sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
		return out, nil
	case "sortrange":
		return sys.SortOrderAddrs(p.SortOrder, p.PathStart, p.PathStop)
	case "cluster":
		return sys.ClusterRoots(p.Cluster)
	default:
		return nil, fmt.Errorf("core: no root enumeration for access kind %q", p.AccessKind)
	}
}

// rootSource yields successive chunks of candidate molecule roots in the
// order of the chosen access; it returns an empty chunk at the end.
type rootSource interface {
	next() ([]addr.LogicalAddr, error)
}

// scanRoots pages through the directory lazily, so an atom-type scan over a
// huge type never materializes the full address list. The scan is bounded
// by the highest sequence number at first use: atoms inserted while the
// cursor runs do not extend it, preserving termination under concurrent
// insert load. The enumeration includes ghosts (atoms deleted after the
// cursor's epoch), and the bound covers them.
type scanRoots struct {
	sn       *access.Snapshot
	typeName string
	after    uint64
	bound    uint64
	bounded  bool
	chunk    int
	done     bool
}

func (s *scanRoots) next() ([]addr.LogicalAddr, error) {
	if s.done {
		return nil, nil
	}
	if !s.bounded {
		bound, err := s.sn.MaxSeq(s.typeName)
		if err != nil {
			return nil, err
		}
		s.bound, s.bounded = bound, true
	}
	chunk, err := s.sn.ScanAddrsAfter(s.typeName, s.after, s.chunk)
	if err != nil {
		return nil, err
	}
	for len(chunk) > 0 && chunk[len(chunk)-1].Seq() > s.bound {
		chunk = chunk[:len(chunk)-1]
		s.done = true
	}
	if len(chunk) == 0 {
		s.done = true
		return nil, nil
	}
	s.after = chunk[len(chunk)-1].Seq()
	return chunk, nil
}

// lazyRoots defers the root enumeration of access-path and cluster accesses
// to the first chunk request, then serves slices of the materialized list.
type lazyRoots struct {
	plan  *Plan
	chunk int
	roots []addr.LogicalAddr
	pos   int
	open  bool
}

func (l *lazyRoots) next() ([]addr.LogicalAddr, error) {
	if !l.open {
		roots, err := l.plan.roots()
		if err != nil {
			return nil, err
		}
		l.roots, l.open = roots, true
	}
	if l.pos >= len(l.roots) {
		return nil, nil
	}
	j := l.pos + l.chunk
	if j > len(l.roots) {
		j = len(l.roots)
	}
	out := l.roots[l.pos:j]
	l.pos = j
	return out, nil
}

// rootSource builds the lazy root stream for the plan's access choice.
// Atom-type scans enumerate through the snapshot (ghosts included);
// access-path, sort-order and cluster enumerations read the live index —
// entries dropped by post-epoch DML no longer enumerate, but every root that
// does enumerate still assembles at the epoch.
func (p *Plan) rootSource(chunk int, sn *access.Snapshot) rootSource {
	if p.AccessKind == "atomscan" {
		return &scanRoots{sn: sn, typeName: p.Root.Name, chunk: chunk}
	}
	return &lazyRoots{plan: p, chunk: chunk}
}

// asmNode is one component of the plan's molecule type as assembly walks it:
// what the per-atom loops need that is a function of the plan, not of the
// atom, resolved once at plan time.
type asmNode struct {
	node *catalog.MolNode
	ord  int // ordinal of the component's atom type in Mol.AtomTypes()
	// edges are the node's child edges in traversal order: its children, then
	// the node itself once more when the edge into it recurses.
	edges []asmEdge
	// reach[o] reports whether component type o appears at or below the node
	// (a recursive self-edge adds nothing beyond the subtree itself), so
	// assembly knows when a pushed conjunct can no longer be satisfied.
	reach []bool
}

// asmEdge is one association assembly follows from the atoms of a node.
type asmEdge struct {
	to     *asmNode
	attr   int  // index of the edge's Via among the parent type's attributes, -1 if it has none
	deeper bool // atoms reached over the edge lie one recursion level down
}

// asmTree prepares the molecule type's tree for assembly.
func (e *Engine) asmTree(mol *catalog.MoleculeType) *asmNode {
	schema := e.sys.Schema()
	var build func(n *catalog.MolNode) *asmNode
	build = func(n *catalog.MolNode) *asmNode {
		an := &asmNode{node: n, reach: make([]bool, len(mol.AtomTypes()))}
		an.ord, _ = mol.TypeOrdinal(n.AtomType)
		an.reach[an.ord] = true
		t, _ := schema.AtomType(n.AtomType)
		attrOf := func(via string) int {
			if t != nil {
				if i, ok := t.AttrIndex(via); ok {
					return i
				}
			}
			return -1
		}
		for _, c := range n.Children {
			cn := build(c)
			an.edges = append(an.edges, asmEdge{to: cn, attr: attrOf(c.Via), deeper: c.Recursive})
			for o, r := range cn.reach {
				an.reach[o] = an.reach[o] || r
			}
		}
		if n.Recursive {
			an.edges = append(an.edges, asmEdge{to: an, attr: attrOf(n.Via), deeper: true})
		}
		return an
	}
	return build(mol.Root)
}

// pushState tracks the pushed-down component conjuncts during one molecule's
// assembly: a satisfying-atom count per conjunct, decided against the
// conjunct's Min threshold (1 for existentials, n for EXISTS_AT_LEAST).
// Early pruning (abandoning the remaining assembly levels) is only armed for
// non-recursive molecule types: their assembly cannot raise recursion-depth
// errors, so skipping levels never hides an error the full build would have
// reported.
type pushState struct {
	conds     []CompCond
	counts    []int
	remaining int
	canEarly  bool
	complete  bool // the fetch streamed the whole molecule through observe
	disabled  bool // the streamed view may be incomplete (a fetch failed)
}

// minOf returns a conjunct's required count (old zero-valued conjuncts mean
// "exists", i.e. 1).
func minOf(cc CompCond) int {
	if cc.Min < 1 {
		return 1
	}
	return cc.Min
}

// observe folds one streamed atom of component type ord into the conjunct
// counts. The fetch streams every atom exactly once (its index dedupes
// addresses), so counts are over distinct component atoms — the same set the
// quantifier counts.
func (ps *pushState) observe(ord int, rec access.Record) {
	if ps == nil || ps.remaining == 0 {
		return
	}
	for i, cc := range ps.conds {
		if ps.counts[i] >= minOf(cc) || cc.ord != ord {
			continue
		}
		ok, err := cc.SSA.EvalRecord(rec)
		if err != nil {
			ps.disabled = true
			return
		}
		if ok {
			ps.counts[i]++
			if ps.counts[i] >= minOf(cc) {
				ps.remaining--
			}
		}
	}
}

// unreachable reports whether some undecided conjunct's component type
// cannot appear at or below any of the frontier nodes — its count can no
// longer be reached, so the molecule can be pruned without assembling the
// remaining levels.
func (ps *pushState) unreachable(frontier []asmItem) bool {
	if ps == nil || !ps.canEarly || ps.disabled || ps.remaining == 0 {
		return false
	}
	for i, cc := range ps.conds {
		if ps.counts[i] >= minOf(cc) {
			continue
		}
		reachable := false
		for _, it := range frontier {
			if it.node.reach[cc.ord] {
				reachable = true
				break
			}
		}
		if !reachable {
			return true
		}
	}
	return false
}

// pushPruned decides the pushed-down conjuncts on the fully assembled
// molecule: each is counting-existential, so the molecule fails as soon as
// one cannot reach its required count of satisfying component atoms. A
// pruned molecule skips residual predicate evaluation entirely; a kept one
// still runs the full residual (the conjuncts remain part of it), so pruning
// can only ever be a fast negative.
func (p *Plan) pushPruned(m *Molecule) bool {
	for _, cc := range p.CompSSA {
		need := minOf(cc)
		for _, ma := range m.ByType[cc.ord] {
			ok, err := cc.SSA.EvalRecord(ma.Rec)
			if err != nil {
				need = 0 // leave the decision to the residual predicate
				break
			}
			if ok {
				need--
				if need <= 0 {
					break
				}
			}
		}
		if need > 0 {
			return true
		}
	}
	return false
}

// assembler performs the vertical access for one cursor worker: starting from
// a root atom it deduces the dependent component atoms along the molecule
// type's associations. It fetches level-wise — one batched read per level,
// so one directory lookup and page fix serve every atom of a level that
// shares a page — and then links depth-first over what it fetched, so the
// component role, recursion level and delivery order of every atom are those
// of its first depth-first reach. Atoms travel as record images: references
// are followed straight off the bytes and nothing is decoded. The MAtoms of a
// molecule lie in one slab and its child lists in one arena.
//
// The address index and the frontier buffers are scratch, cleared and reused
// from molecule to molecule and, through asmPool, from cursor to cursor. An
// assembler serves one goroutine.
type assembler struct {
	plan *Plan
	sn   *access.Snapshot
	src  atomSource // of the molecule in hand: the snapshot, or its cluster occurrence
	push pushState

	index    map[addr.LogicalAddr]int32 // address → position in recs and mas
	recs     []access.Record            // every address met, in fetch order; the address alone until fetched
	mas      []*MAtom                   // parallel to recs: nil until linked
	frontier []asmItem
	next     []asmItem
	targets  []addr.LogicalAddr // linkAtom's stack of references still to link
	order    []linked           // the linked atoms in depth-first order
	counts   []int              // linked atoms per component-type ordinal

	// The arenas of the molecule in hand; it owns them once delivered. The
	// fetch sizes them, so each is normally one allocation.
	slab   []MAtom
	groups [][]*MAtom // the Children headers, and ByType
	kids   []*MAtom   // the child lists, and the ByType lists
	nedges int        // edges leaving the fetched atoms
	nrefs  int        // references the fetch followed
}

// linked is one atom of the molecule with the ordinal of its component type.
type linked struct {
	ma  *MAtom
	ord int
}

// asmItem is one frontier entry of the level-wise fetch.
type asmItem struct {
	node  *asmNode
	ent   int32
	level int
}

var asmPool = sync.Pool{New: func() any {
	return &assembler{index: map[addr.LogicalAddr]int32{}}
}}

// newAssembler takes an assembler from the pool for one cursor worker.
func newAssembler(p *Plan, sn *access.Snapshot) *assembler {
	as := asmPool.Get().(*assembler)
	as.plan, as.sn = p, sn
	as.push = pushState{conds: p.CompSSA, counts: as.push.counts[:0], canEarly: !p.Mol.IsRecursive()}
	return as
}

// release returns the assembler to the pool, holding on to no atom and no
// plan.
func (as *assembler) release() {
	as.reset()
	as.plan, as.sn, as.src, as.push.conds = nil, nil, nil, nil
	asmPool.Put(as)
}

// reset clears the per-molecule scratch.
func (as *assembler) reset() {
	clear(as.index)
	clear(as.recs)
	clear(as.mas)
	clear(as.order)
	as.recs, as.mas, as.order = as.recs[:0], as.mas[:0], as.order[:0]
	as.slab, as.groups, as.kids = nil, nil, nil
	as.nedges, as.nrefs = 0, 0
}

// enter registers an address the molecule reaches and returns its position.
func (as *assembler) enter(a addr.LogicalAddr) int32 {
	i := int32(len(as.recs))
	as.index[a] = i
	as.recs = append(as.recs, access.Record{Addr: a})
	as.mas = append(as.mas, nil)
	return i
}

// carve cuts n zeroed elements off the arena. A full arena is replaced by a
// fresh chunk, never grown: pointers into the old one stay valid.
func carve[T any](arena *[]T, n int) []T {
	if len(*arena)+n > cap(*arena) {
		*arena = make([]T, 0, max(n, 2*cap(*arena), 8))
	}
	lo := len(*arena)
	*arena = (*arena)[:lo+n]
	return (*arena)[lo : lo+n : lo+n]
}

// assemble materializes, restricts, and projects the molecule rooted at a,
// resolving every atom read at the snapshot's epoch. It returns (nil, nil)
// when the root or molecule fails qualification.
func (as *assembler) assemble(a addr.LogicalAddr) (*Molecule, error) {
	p := as.plan
	as.src = snapshotSource{as.sn}

	// Root SSA (pushed-down restriction) decides before assembly.
	var root access.Record
	if len(p.RootSSA) > 0 {
		var err error
		if root, err = as.src.get(a); err != nil {
			if p.AccessKind == "direct" && errors.Is(err, access.ErrNoAtom) {
				// The named atom is gone (or never existed): the root fails
				// qualification, it does not error the query — direct roots
				// are the one access whose candidates are not enumerated
				// from live storage.
				return nil, nil
			}
			return nil, err
		}
		ok, err := p.RootSSA.EvalRecord(root)
		if err != nil {
			return nil, err
		}
		if !ok {
			return nil, nil
		}
	}

	if p.AccessKind == "cluster" {
		occ, err := p.engine.sys.ClusterOccurrenceOf(p.Cluster, a)
		switch {
		case err == nil:
			as.src = clusterSource{occ: occ, sn: as.sn}
		case errors.Is(err, access.ErrNoAtom):
			// Ghost root: the occurrence was dropped by post-epoch DML, but
			// the chains still hold the molecule's pre-images — assemble
			// through the snapshot alone.
		default:
			return nil, err
		}
	}

	return as.build(a, root)
}

// build assembles the molecule rooted at a from as.src (root is the root's
// record when the caller has read it already, else zero), then decides the
// pushed conjuncts and the residual predicate on it and projects it.
func (as *assembler) build(a addr.LogicalAddr, root access.Record) (*Molecule, error) {
	p := as.plan
	as.reset()
	var ps *pushState
	if len(p.CompSSA) > 0 {
		ps = &as.push
		ps.counts = append(ps.counts[:0], make([]int, len(ps.conds))...)
		ps.remaining, ps.complete, ps.disabled = len(ps.conds), false, false
	}
	if as.fetch(a, root, ps) {
		return nil, nil // pruned mid-assembly by a pushed-down conjunct
	}
	m, err := as.link(a)
	if err != nil {
		return nil, err
	}
	// Decide the pushed conjuncts. A complete, fully observed stream already
	// holds the verdict; otherwise re-decide on the assembled molecule.
	if ps != nil && ps.complete && !ps.disabled {
		if ps.remaining > 0 {
			return nil, nil
		}
	} else if p.pushPruned(m) {
		return nil, nil
	}
	if p.whereC != nil {
		keep, err := p.whereC.Eval(m, p.params)
		if err != nil {
			return nil, err
		}
		if !keep {
			return nil, nil
		}
	}
	if err := applyProjection(p.Project, m, p.params); err != nil {
		return nil, err
	}
	return m, nil
}

// fetch walks the molecule structure breadth-first and batch-reads every
// level's fan-out. It is best-effort: an address it cannot fetch, or does not
// reach because the depth-first order gives an atom another role than the
// breadth-first one, is left to the link's own, deterministic read and error
// path.
//
// Pushed-down component conjuncts are evaluated here, as atoms stream out of
// the batched reads; when a conjunct can no longer be satisfied by any
// remaining level, fetch reports pruned=true and the remaining levels are
// skipped entirely. At that point the qualification is fully decided: every
// atom of the conjunct's type was observed (a failed fetch disables pruning)
// and failed, so the existential conjunct — and with it the WHERE — is
// false no matter what the unread levels hold. Skipping them also skips any
// materialization error (e.g. a dangling reference) those levels would have
// raised; the pruned outcome is the correct query answer, the error was an
// artifact of materialization the plan proved unnecessary.
func (as *assembler) fetch(root addr.LogicalAddr, rootRec access.Record, ps *pushState) (pruned bool) {
	as.enter(root)
	if !rootRec.Image.IsZero() {
		as.recs[0] = rootRec
	}
	as.frontier = append(as.frontier[:0], asmItem{node: as.plan.asm})
	for len(as.frontier) > 0 {
		if ps.unreachable(as.frontier) {
			return true
		}
		// The frontier is the addresses the level before entered, one after
		// the other in recs, none of them read yet (but a root the caller
		// read): the batched read fills them where they lie.
		batch := as.recs[as.frontier[0].ent:]
		if !batch[0].Image.IsZero() {
			batch = batch[1:]
		}
		if len(batch) > 0 && as.src.fill(batch) != nil {
			// A batch fails as a whole; retry individually so one bad
			// address does not hide the rest of the level.
			for i := range batch {
				if !batch[i].Image.IsZero() {
					continue
				}
				if rec, err := as.src.get(batch[i].Addr); err == nil {
					batch[i] = rec
				} else if ps != nil {
					ps.disabled = true
				}
			}
		}
		as.next = as.next[:0]
		for _, it := range as.frontier {
			rec := as.recs[it.ent]
			if rec.Image.IsZero() {
				continue
			}
			ps.observe(it.node.ord, rec)
			as.nedges += len(it.node.edges)
			for _, ed := range it.node.edges {
				if ed.attr < 0 {
					continue // the link reports the semantic error
				}
				level := it.level
				if ed.deeper {
					level++
				}
				if level > as.plan.MaxDepth {
					continue // the link reports the recursion error
				}
				for target := range rec.Image.Refs(ed.attr) {
					as.nrefs++
					if _, seen := as.index[target]; !seen {
						as.next = append(as.next, asmItem{node: ed.to, ent: as.enter(target), level: level})
					}
				}
			}
		}
		as.frontier, as.next = as.next, as.frontier
	}
	if ps != nil {
		ps.complete = true
	}
	return false
}

// link fixes the result structure depth-first over the fetched atoms, with
// cycle protection, and hands the molecule its arenas.
func (as *assembler) link(root addr.LogicalAddr) (*Molecule, error) {
	mol := as.plan.Mol
	ntypes := len(mol.AtomTypes())
	as.slab = make([]MAtom, 0, len(as.recs))
	as.groups = make([][]*MAtom, 0, as.nedges+ntypes)
	as.kids = make([]*MAtom, 0, as.nrefs+len(as.recs))
	as.counts = append(as.counts[:0], make([]int, ntypes)...)

	rootMA, err := as.linkAtom(as.plan.asm, root, 0)
	if err != nil {
		return nil, err
	}
	m := &Molecule{Type: mol, Root: rootMA, ByType: carve(&as.groups, ntypes)}
	for o, n := range as.counts {
		m.ByType[o] = carve(&as.kids, n)[:0]
	}
	for _, l := range as.order {
		m.ByType[l.ord] = append(m.ByType[l.ord], l.ma)
	}
	return m, nil
}

// linkAtom returns the molecule's atom at address a, linking it and its
// components on the first reach. An atom belongs to a molecule at most once
// even when reachable over several lanes (shared components, recursion
// cycles); it takes the component role of that first reach.
func (as *assembler) linkAtom(n *asmNode, a addr.LogicalAddr, level int) (*MAtom, error) {
	i, met := as.index[a]
	if met && as.mas[i] != nil {
		return as.mas[i], nil
	}
	if level > as.plan.MaxDepth {
		return nil, fmt.Errorf("%w: recursion deeper than %d", ErrSemantic, as.plan.MaxDepth)
	}
	if !met {
		i = as.enter(a)
	}
	rec := as.recs[i]
	if rec.Image.IsZero() {
		var err error
		if rec, err = as.src.get(a); err != nil {
			return nil, err
		}
	}
	ma := &carve(&as.slab, 1)[0]
	*ma = MAtom{Rec: rec, Node: n.node, Level: level}
	as.mas[i] = ma
	as.order = append(as.order, linked{ma, n.ord})
	as.counts[n.ord]++

	ma.Children = carve(&as.groups, len(n.edges))
	for g, ed := range n.edges {
		if ed.attr < 0 {
			return nil, fmt.Errorf("%w: %s.%s", catalog.ErrUnknownAttr, rec.Type.Name, ed.to.node.Via)
		}
		next := level
		if ed.deeper {
			next++
		}
		// One walk over the image: the edge's references wait on the stack
		// while the recursion below pushes and pops its own.
		base := len(as.targets)
		for target := range rec.Image.Refs(ed.attr) {
			as.targets = append(as.targets, target)
		}
		kids := carve(&as.kids, len(as.targets)-base)
		for i := range kids {
			c, err := as.linkAtom(ed.to, as.targets[base+i], next)
			if err != nil {
				return nil, err
			}
			kids[i] = c
		}
		as.targets = as.targets[:base]
		ma.Children[g] = kids
	}
	return ma, nil
}

// rootChunk is how many candidate roots a cursor takes from its access at a
// time: the unit of lazy root streaming and of read-ahead dispatch, and the
// input a cursor derives its assembly width from.
var rootChunk = 64

// maxAssemblyWorkers caps one cursor's read-ahead, so one query does not
// monopolize a big host.
const maxAssemblyWorkers = 8

// Cursor delivers the qualified molecules of a plan one at a time — the
// one-molecule-at-a-time interface of the molecule management (§3.1). Roots
// stream lazily from the access system in chunks. The first chunk decides
// how the cursor assembles (see start): one root — a point checkout, a
// direct-address MODIFY — on the caller's goroutine; a molecule set on a
// bounded worker pool that materializes molecules concurrently while Next
// still delivers them in root order, the "semantic parallelism" of
// molecule-set operations (§4).
type Cursor struct {
	plan    *Plan
	src     rootSource
	snap    *access.Snapshot
	started bool
	done    bool

	// Inline assembly: the assembler and the current root chunk.
	asm     *assembler
	pending []addr.LogicalAddr
	pos     int

	// Read-ahead assembly.
	pipe *pipeline

	// asmNs accumulates wall time spent inside Next — the assembly stage as
	// the caller experiences it — and is observed once at Close (asmDone
	// guards the double Close that a Next error path produces).
	asmNs   int64
	asmDone bool

	// span is the trace span this cursor's work is charged to (nil =
	// untraced): delivered molecules bump its counters in Next, and Close
	// ends it.
	span *obs.Span
}

// Open prepares a cursor over the plan's molecules, pinned to a snapshot of
// the current epoch: iteration delivers the state as of Open no matter which
// DML runs concurrently, so parallel read-ahead is always safe. Root
// enumeration is lazy, so errors of the chosen access surface at the first
// Next. Close the cursor so its epoch's history can be reclaimed.
func (p *Plan) Open() (*Cursor, error) { return p.open(nil, nil) }

// open is the one cursor constructor. A non-nil epoch resolves every read at
// that epoch, which the caller must hold open through a live snapshot (the
// transaction layer pins one at Begin and reuses its epoch for every cursor
// it opens); nil pins the current epoch. The cursor's snapshot charges its
// read-path counters (atoms decoded, cache hits, pages pinned, decode time)
// to sp and Close ends it; the span is attached before any assembly starts,
// so read-ahead workers record into it from the first read. A nil sp means
// untraced.
func (p *Plan) open(epoch *uint64, sp *obs.Span) (*Cursor, error) {
	var sn *access.Snapshot
	if epoch != nil {
		sn = p.engine.sys.SnapshotAt(*epoch)
	} else {
		sn = p.engine.sys.OpenSnapshot()
	}
	sn.SetTraceSpan(sp)
	c := &Cursor{plan: p, snap: sn, src: p.rootSource(rootChunk, sn), span: sp}
	c.guard(nil)
	return c, nil
}

// guard is the safety net for abandoned cursors: neither the snapshot nor
// the pipeline goroutines reference the Cursor, so when a caller drops it
// without Close the finalizer still releases the epoch (and winds the
// workers of pipe down first — off the finalizer goroutine, since joining
// them can block).
func (c *Cursor) guard(pipe *pipeline) {
	sn := c.snap
	runtime.SetFinalizer(c, func(_ *Cursor) {
		go func() {
			if pipe != nil {
				pipe.shutdown()
				pipe.wg.Wait()
			}
			sn.Close()
		}()
	})
}

// start takes the cursor's first root chunk and derives the assembly width
// from it: min(GOMAXPROCS, maxAssemblyWorkers, roots in the chunk). At
// width one the cursor assembles on the caller's goroutine, which is every
// cursor over one root; above one an order-preserving pipeline reads ahead
// on that many workers.
func (c *Cursor) start() error {
	c.started = true
	first, err := c.src.next()
	if err != nil {
		return err
	}
	if workers := min(runtime.GOMAXPROCS(0), maxAssemblyWorkers, len(first)); workers > 1 {
		c.pipe = startPipeline(c.plan, c.snap, c.src, first, workers)
		runtime.SetFinalizer(c, nil)
		c.guard(c.pipe)
		return nil
	}
	c.asm = newAssembler(c.plan, c.snap)
	c.pending = first
	return nil
}

// Epoch returns the snapshot epoch the cursor reads at.
func (c *Cursor) Epoch() uint64 { return c.snap.Epoch() }

// asmResult is one root's assembly outcome.
type asmResult struct {
	m   *Molecule
	err error
}

// pipeline runs the order-preserving parallel assembly: a dispatcher streams
// roots from the source, starting with the chunk the cursor already took,
// handing each root a one-slot result channel that is
// queued in dispatch order; workers assemble out of order and fulfill their
// slot; the consumer drains slots in order. In-flight molecules are bounded
// by the queue capacities, so huge result sets stream instead of piling up.
type pipeline struct {
	ordered  chan chan asmResult
	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup // dispatcher + workers
}

type asmJob struct {
	root addr.LogicalAddr
	out  chan asmResult
}

func startPipeline(p *Plan, sn *access.Snapshot, src rootSource, first []addr.LogicalAddr, workers int) *pipeline {
	pl := &pipeline{
		ordered: make(chan chan asmResult, workers*2),
		stop:    make(chan struct{}),
	}
	jobs := make(chan asmJob, workers*2)
	pl.wg.Add(workers + 1)
	for i := 0; i < workers; i++ {
		go func() {
			defer pl.wg.Done()
			as := newAssembler(p, sn)
			defer as.release()
			for j := range jobs {
				var res asmResult
				select {
				case <-pl.stop:
					// Closed cursor: fulfill the slot without touching
					// pages, so no read outlives Close.
				default:
					// The snapshot decides membership: roots deleted after
					// the epoch still assemble (from their pre-images),
					// roots inserted after it are tombstoned and skipped.
					if sn.Exists(j.root) {
						res.m, res.err = as.assemble(j.root)
					}
				}
				j.out <- res // one-slot buffer: never blocks
			}
		}()
	}
	go func() {
		defer pl.wg.Done()
		defer close(jobs)
		defer close(pl.ordered)
		for batch := first; len(batch) > 0; {
			for _, root := range batch {
				out := make(chan asmResult, 1)
				select {
				case pl.ordered <- out:
				case <-pl.stop:
					return
				}
				select {
				case jobs <- asmJob{root: root, out: out}:
				case <-pl.stop:
					// The slot is already queued; fulfill it so a
					// concurrent Next cannot block on it.
					out <- asmResult{}
					return
				}
			}
			var err error
			if batch, err = src.next(); err != nil {
				out := make(chan asmResult, 1)
				out <- asmResult{err: err}
				select {
				case pl.ordered <- out:
				case <-pl.stop:
				}
				return
			}
		}
	}()
	return pl
}

func (pl *pipeline) shutdown() {
	pl.stopOnce.Do(func() { close(pl.stop) })
}

// Next returns the next qualified molecule, or (nil, nil) at the end.
func (c *Cursor) Next() (*Molecule, error) {
	if c.done {
		return nil, nil
	}
	nextStart := time.Now()
	defer func() { c.asmNs += time.Since(nextStart).Nanoseconds() }()
	if !c.started {
		if err := c.start(); err != nil {
			c.done = true
			return nil, err
		}
	}
	if c.pipe != nil {
		for {
			out, ok := <-c.pipe.ordered
			if !ok {
				c.done = true
				return nil, nil
			}
			res := <-out
			if res.err != nil {
				c.Close()
				return nil, res.err
			}
			if res.m != nil {
				c.emit(res.m)
				return res.m, nil
			}
		}
	}
	for {
		for c.pos < len(c.pending) {
			a := c.pending[c.pos]
			c.pos++
			// The snapshot decides membership: roots deleted after the
			// cursor's epoch still assemble, later inserts are skipped.
			if !c.snap.Exists(a) {
				continue
			}
			m, err := c.asm.assemble(a)
			if err != nil {
				c.done = true
				return nil, err
			}
			if m != nil {
				c.emit(m)
				return m, nil
			}
		}
		batch, err := c.src.next()
		if err != nil {
			c.done = true
			return nil, err
		}
		if len(batch) == 0 {
			c.done = true
			return nil, nil
		}
		c.pending, c.pos = batch, 0
	}
}

// emit charges one delivered molecule to the cursor's trace span.
func (c *Cursor) emit(m *Molecule) {
	if c.span == nil {
		return
	}
	c.span.Add(obs.CtrMolecules, 1)
	c.span.Add(obs.CtrAtoms, int64(m.Size()))
}

// Close releases the cursor and its snapshot. A read-ahead pipeline is joined
// first: when Close returns, no worker touches buffer pages anymore and the
// epoch's history is free to be reclaimed.
func (c *Cursor) Close() {
	c.done = true
	c.span.End()
	if !c.asmDone && c.asmNs > 0 {
		c.asmDone = true
		c.plan.engine.assembleNs.Observe(c.asmNs)
	}
	if c.pipe != nil {
		c.pipe.shutdown()
		c.pipe.wg.Wait()
	}
	if c.asm != nil {
		c.asm.release()
		c.asm = nil
	}
	c.snap.Close()
	runtime.SetFinalizer(c, nil)
}

// Collect drains the cursor.
func (c *Cursor) Collect() ([]*Molecule, error) {
	var out []*Molecule
	for {
		m, err := c.Next()
		if err != nil {
			return nil, err
		}
		if m == nil {
			return out, nil
		}
		out = append(out, m)
	}
}
