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

// atomSource supplies atoms during molecule assembly. The snapshot source
// reads through the access system at the cursor's epoch; the cluster source
// reads from a materialized atom-cluster occurrence, falling back to the
// snapshot for atoms outside the cluster. Both support batched reads so one
// page fix in the buffer can serve a whole assembly level.
type atomSource interface {
	get(a addr.LogicalAddr) (*access.Atom, error)
	getBatch(as []addr.LogicalAddr) ([]*access.Atom, error)
}

// snapshotSource reads through a snapshot: every atom resolves at the
// cursor's epoch, so one molecule can never mix pre- and post-DML state no
// matter which writes land while it assembles.
type snapshotSource struct{ sn *access.Snapshot }

func (s snapshotSource) get(a addr.LogicalAddr) (*access.Atom, error) { return s.sn.Get(a) }

func (s snapshotSource) getBatch(as []addr.LogicalAddr) ([]*access.Atom, error) {
	return s.sn.GetBatch(as)
}

type clusterSource struct {
	occ *access.ClusterOccurrence
	sn  *access.Snapshot
}

// get serves a from the occurrence. Occurrence atoms are current state; the
// chains override them with the epoch's pre-image when a writer has since
// moved on.
func (s clusterSource) get(a addr.LogicalAddr) (*access.Atom, error) {
	return s.sn.Resolve(a, func() (*access.Atom, error) {
		if at, ok := s.occ.Atom(a); ok {
			return at, nil
		}
		return s.sn.Get(a)
	})
}

func (s clusterSource) getBatch(as []addr.LogicalAddr) ([]*access.Atom, error) {
	out := make([]*access.Atom, len(as))
	for i, a := range as {
		at, err := s.get(a)
		if err != nil {
			return nil, err
		}
		out[i] = at
	}
	return out, nil
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

// assembleRootAt materializes, restricts, and projects the molecule rooted
// at a, resolving every atom read at the snapshot's epoch. It returns
// (nil, nil) when the root or molecule fails qualification.
func (p *Plan) assembleRootAt(sn *access.Snapshot, a addr.LogicalAddr) (*Molecule, error) {
	var src atomSource = snapshotSource{sn}
	// The cache is only written by the SSA root read and the prefetch;
	// flat, unrestricted molecules leave it nil (reads of a nil map miss).
	var cache map[addr.LogicalAddr]*access.Atom
	if len(p.RootSSA) > 0 || len(p.Mol.Root.Children) > 0 || p.Mol.Root.Recursive {
		cache = map[addr.LogicalAddr]*access.Atom{}
	}

	// Root SSA (pushed-down restriction) decides before assembly.
	if len(p.RootSSA) > 0 {
		rootAtom, err := src.get(a)
		if err != nil {
			if p.AccessKind == "direct" && errors.Is(err, access.ErrNoAtom) {
				// The named atom is gone (or never existed): the root fails
				// qualification, it does not error the query — direct roots
				// are the one access whose candidates are not enumerated
				// from live storage.
				return nil, nil
			}
			return nil, err
		}
		ok, err := p.RootSSA.Eval(rootAtom)
		if err != nil {
			return nil, err
		}
		if !ok {
			return nil, nil
		}
		cache[a] = rootAtom
	}

	if p.AccessKind == "cluster" {
		occ, err := p.engine.sys.ClusterOccurrenceOf(p.Cluster, a)
		switch {
		case err == nil:
			src = clusterSource{occ: occ, sn: sn}
		case errors.Is(err, access.ErrNoAtom):
			// Ghost root: the occurrence was dropped by post-epoch DML, but
			// the chains still hold the molecule's pre-images — assemble
			// through the snapshot alone.
		default:
			return nil, err
		}
	}

	ps := p.newPushState()
	m, err := p.assemble(src, a, cache, ps)
	if err != nil {
		return nil, err
	}
	if m == nil {
		return nil, nil // pruned mid-assembly by a pushed-down conjunct
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
		keep, err := p.whereC.Eval(m)
		if err != nil {
			return nil, err
		}
		if !keep {
			return nil, nil
		}
	}
	if err := p.engine.applyProjection(p.Project, m); err != nil {
		return nil, err
	}
	return m, nil
}

// pushState tracks the pushed-down component conjuncts during one molecule's
// assembly: a satisfying-atom count per conjunct, decided against the
// conjunct's Min threshold (1 for existentials, n for EXISTS_AT_LEAST).
// Early pruning (abandoning the remaining assembly levels) is only armed for
// non-recursive molecule types: their assembly cannot raise recursion-depth
// errors, so skipping levels never hides an error the full build would have
// reported.
type pushState struct {
	plan      *Plan
	counts    []int
	remaining int
	canEarly  bool
	complete  bool // prefetch streamed the whole molecule through observe
	disabled  bool // the streamed view may be incomplete (a fetch failed)
}

func (p *Plan) newPushState() *pushState {
	if len(p.CompSSA) == 0 {
		return nil
	}
	return &pushState{
		plan:      p,
		counts:    make([]int, len(p.CompSSA)),
		remaining: len(p.CompSSA),
		canEarly:  !p.Mol.IsRecursive(),
	}
}

// minOf returns a conjunct's required count (old zero-valued conjuncts mean
// "exists", i.e. 1).
func minOf(cc CompCond) int {
	if cc.Min < 1 {
		return 1
	}
	return cc.Min
}

// observe folds one streamed atom into the conjunct counts. prefetch streams
// every atom exactly once (its seen set dedupes addresses), so counts are
// over distinct component atoms — the same set the quantifier counts.
func (ps *pushState) observe(at *access.Atom) {
	if ps == nil || ps.remaining == 0 {
		return
	}
	for i, cc := range ps.plan.CompSSA {
		if ps.counts[i] >= minOf(cc) || cc.TypeName != at.Type.Name {
			continue
		}
		ok, err := cc.SSA.Eval(at)
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
func (ps *pushState) unreachable(frontier []*catalog.MolNode) bool {
	if ps == nil || !ps.canEarly || ps.disabled || ps.remaining == 0 {
		return false
	}
	for i, cc := range ps.plan.CompSSA {
		if ps.counts[i] >= minOf(cc) {
			continue
		}
		reachable := false
		for _, n := range frontier {
			if ps.plan.reach[n][cc.TypeName] {
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
		for _, ma := range m.ByType[cc.TypeName] {
			ok, err := cc.SSA.Eval(ma.Atom)
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

// effectiveEdges returns a node's child edges for traversal: its children,
// plus the node itself once more when the edge into it recurses. prefetch
// and the structural build share it so their traversals cannot diverge.
func effectiveEdges(node *catalog.MolNode) []*catalog.MolNode {
	if !node.Recursive {
		return node.Children
	}
	return append(append([]*catalog.MolNode(nil), node.Children...), node)
}

// edgeLevel returns the recursion level of atoms reached over the edge from
// node to child.
func edgeLevel(node, child *catalog.MolNode, level int) int {
	if child.Recursive || child == node {
		return level + 1
	}
	return level
}

// prefetch walks the molecule structure breadth-first and batch-reads every
// level's fan-out into cache, so the structural build below finds its atoms
// memory-resident — one directory lookup and page fix per level and page
// instead of one per atom. It is best-effort: any address it cannot fetch is
// simply left out of the cache and surfaces through the build's own,
// deterministic error path.
//
// Pushed-down component conjuncts are evaluated here, as atoms stream out of
// the batched reads; when a conjunct can no longer be satisfied by any
// remaining level, prefetch reports pruned=true and the remaining levels are
// skipped entirely. At that point the qualification is fully decided: every
// atom of the conjunct's type was observed (a failed fetch disables pruning)
// and failed, so the existential conjunct — and with it the WHERE — is
// false no matter what the unread levels hold. Skipping them also skips any
// materialization error (e.g. a dangling reference) those levels would have
// raised; the pruned outcome is the correct query answer, the error was an
// artifact of materialization the plan proved unnecessary.
func (p *Plan) prefetch(src atomSource, root addr.LogicalAddr, cache map[addr.LogicalAddr]*access.Atom, ps *pushState) (pruned bool) {
	type item struct {
		node  *catalog.MolNode
		a     addr.LogicalAddr
		level int
	}
	frontier := []item{{node: p.Mol.Root, a: root, level: 0}}
	seen := map[addr.LogicalAddr]bool{root: true}
	var nodes []*catalog.MolNode // frontier nodes, for the reachability check
	for len(frontier) > 0 {
		if ps != nil {
			nodes = nodes[:0]
			for _, it := range frontier {
				nodes = append(nodes, it.node)
			}
			if ps.unreachable(nodes) {
				return true
			}
		}
		var want []addr.LogicalAddr
		for _, it := range frontier {
			if _, ok := cache[it.a]; !ok {
				want = append(want, it.a)
			}
		}
		if len(want) > 0 {
			atoms, err := src.getBatch(want)
			if err != nil {
				// A batch fails as a whole; retry individually so one bad
				// address does not hide the rest of the level.
				for _, a := range want {
					if at, err := src.get(a); err == nil {
						cache[a] = at
					} else if ps != nil {
						ps.disabled = true
					}
				}
			} else {
				for i, at := range atoms {
					cache[want[i]] = at
				}
			}
		}
		var next []item
		for _, it := range frontier {
			at := cache[it.a]
			if at == nil {
				continue
			}
			ps.observe(at)
			for _, child := range effectiveEdges(it.node) {
				idx, ok := at.Type.AttrIndex(child.Via)
				if !ok {
					continue // the build reports the semantic error
				}
				nextLevel := edgeLevel(it.node, child, it.level)
				if nextLevel > p.MaxDepth {
					continue // the build reports the recursion error
				}
				for _, target := range at.Values[idx].Refs() {
					if seen[target] {
						continue
					}
					seen[target] = true
					next = append(next, item{node: child, a: target, level: nextLevel})
				}
			}
		}
		frontier = next
	}
	if ps != nil {
		ps.complete = true
	}
	return false
}

// assemble performs the vertical access: starting from the root atom it
// deduces the dependent component atoms along the molecule type's
// associations, level by level for recursive edges, with cycle protection.
// Atom reads are batched per level by prefetch; the recursive build then
// fixes the result structure in depth-first order.
func (p *Plan) assemble(src atomSource, root addr.LogicalAddr, cache map[addr.LogicalAddr]*access.Atom, ps *pushState) (*Molecule, error) {
	// A flat single-node molecule has no fan-out to batch; skip the
	// prefetch bookkeeping and read the root directly.
	if len(p.Mol.Root.Children) > 0 || p.Mol.Root.Recursive {
		if p.prefetch(src, root, cache, ps) {
			return nil, nil // pruned: a pushed conjunct became undecidable-true
		}
	}
	m := &Molecule{
		Type:   p.Mol,
		ByType: map[string][]*MAtom{},
		atoms:  map[addr.LogicalAddr]*MAtom{},
	}
	var build func(node *catalog.MolNode, a addr.LogicalAddr, level int) (*MAtom, error)
	build = func(node *catalog.MolNode, a addr.LogicalAddr, level int) (*MAtom, error) {
		if existing, ok := m.atoms[a]; ok {
			return existing, nil // shared component or recursion cycle
		}
		if level > p.MaxDepth {
			return nil, fmt.Errorf("%w: recursion deeper than %d", ErrSemantic, p.MaxDepth)
		}
		at, ok := cache[a]
		if !ok {
			var err error
			if at, err = src.get(a); err != nil {
				return nil, err
			}
		}
		ma := &MAtom{Atom: at, Node: node, Level: level}
		m.atoms[a] = ma
		m.ByType[at.Type.Name] = append(m.ByType[at.Type.Name], ma)

		edges := effectiveEdges(node)
		ma.Children = make([][]*MAtom, len(edges))
		for i, child := range edges {
			idx, ok := at.Type.AttrIndex(child.Via)
			if !ok {
				return nil, fmt.Errorf("%w: %s.%s", catalog.ErrUnknownAttr, at.Type.Name, child.Via)
			}
			nextLevel := edgeLevel(node, child, level)
			for _, target := range at.Values[idx].Refs() {
				c, err := build(child, target, nextLevel)
				if err != nil {
					return nil, err
				}
				ma.Children[i] = append(ma.Children[i], c)
			}
		}
		return ma, nil
	}
	rootMA, err := build(p.Mol.Root, root, 0)
	if err != nil {
		return nil, err
	}
	m.Root = rootMA
	return m, nil
}

// Cursor delivers the qualified molecules of a plan one at a time — the
// one-molecule-at-a-time interface of the molecule management (§3.1). Roots
// stream lazily from the access system in chunks; when the engine's
// assembly parallelism is above one, a bounded worker pool materializes
// molecules concurrently while Next still delivers them in root order.
type Cursor struct {
	plan *Plan
	src  rootSource
	snap *access.Snapshot
	done bool

	// Serial mode: the current root chunk.
	pending []addr.LogicalAddr
	pos     int

	// Parallel mode.
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
// to sp and Close ends it; the span is attached before the pipeline starts,
// so parallel assembly workers record into it from the first read. A nil sp
// means untraced.
func (p *Plan) open(epoch *uint64, sp *obs.Span) (*Cursor, error) {
	workers, chunk := p.engine.assemblyConfig()
	var sn *access.Snapshot
	if epoch != nil {
		sn = p.engine.sys.SnapshotAt(*epoch)
	} else {
		sn = p.engine.sys.OpenSnapshot()
	}
	sn.SetTraceSpan(sp)
	c := &Cursor{plan: p, snap: sn, src: p.rootSource(chunk, sn), span: sp}
	if workers > 1 {
		c.pipe = startPipeline(p, sn, c.src, workers)
	}
	// Safety net for abandoned cursors: neither the snapshot nor the
	// pipeline goroutines reference the Cursor, so when a caller drops it
	// without Close the finalizer still releases the epoch (and winds the
	// workers down first — off the finalizer goroutine, since joining them
	// can block).
	pipe := c.pipe
	runtime.SetFinalizer(c, func(_ *Cursor) {
		go func() {
			if pipe != nil {
				pipe.shutdown()
				pipe.wg.Wait()
			}
			sn.Close()
		}()
	})
	return c, nil
}

// Epoch returns the snapshot epoch the cursor reads at.
func (c *Cursor) Epoch() uint64 { return c.snap.Epoch() }

// asmResult is one root's assembly outcome.
type asmResult struct {
	m   *Molecule
	err error
}

// pipeline runs the order-preserving parallel assembly: a dispatcher streams
// roots from the source, handing each root a one-slot result channel that is
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

func startPipeline(p *Plan, sn *access.Snapshot, src rootSource, workers int) *pipeline {
	pl := &pipeline{
		ordered: make(chan chan asmResult, workers*2),
		stop:    make(chan struct{}),
	}
	jobs := make(chan asmJob, workers*2)
	pl.wg.Add(workers + 1)
	for i := 0; i < workers; i++ {
		go func() {
			defer pl.wg.Done()
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
						res.m, res.err = p.assembleRootAt(sn, j.root)
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
		for {
			batch, err := src.next()
			if err != nil {
				out := make(chan asmResult, 1)
				out <- asmResult{err: err}
				select {
				case pl.ordered <- out:
				case <-pl.stop:
				}
				return
			}
			if len(batch) == 0 {
				return
			}
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
			m, err := c.plan.assembleRootAt(c.snap, a)
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

// Close releases the cursor and its snapshot. A parallel pipeline is joined
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
