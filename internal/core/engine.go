package core

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"time"

	"prima/internal/access"
	"prima/internal/access/addr"
	"prima/internal/access/atom"
	"prima/internal/catalog"
	"prima/internal/mql"
	"prima/internal/obs"
)

// Engine is the data system: it translates MQL statements into access
// system call sequences and manages molecule materialization.
type Engine struct {
	sys   *access.System
	plans *planCache

	// Per-stage latency observers (from the access system's registry):
	// parsing, planning (cache misses only — hits skip the stage), and
	// molecule assembly (accumulated per cursor, observed at Close).
	parseNs    *obs.Histogram
	planNs     *obs.Histogram
	assembleNs *obs.Histogram

	mu          sync.Mutex
	maxDepth    int
	schemaDirty bool // associations not yet re-validated after DDL
}

// New creates a data system over an access system instance. Each cursor
// picks its own assembly width from its first root chunk (see Cursor).
func New(sys *access.System) *Engine {
	e := &Engine{
		sys:         sys,
		maxDepth:    64,
		plans:       newPlanCache(DefaultPlanCacheSize),
		schemaDirty: true,
		parseNs:     sys.Obs().Histogram("core_parse_ns"),
		planNs:      sys.Obs().Histogram("core_plan_ns"),
		assembleNs:  sys.Obs().Histogram("core_assemble_ns"),
	}
	reg := sys.Obs()
	reg.CounterFunc("plan_cache_hits", func() uint64 { h, _, _ := e.PlanCacheStats(); return h })
	reg.CounterFunc("plan_cache_misses", func() uint64 { _, m, _ := e.PlanCacheStats(); return m })
	reg.GaugeFunc("plan_cache_size", func() float64 { _, _, n := e.PlanCacheStats(); return float64(n) })
	return e
}

// DefaultPlanCacheSize is the default capacity of the engine's plan cache.
const DefaultPlanCacheSize = 128

// System exposes the underlying access system.
func (e *Engine) System() *access.System { return e.sys }

// SetMaxRecursionDepth bounds recursive molecule evaluation.
func (e *Engine) SetMaxRecursionDepth(d int) {
	e.mu.Lock()
	e.maxDepth = d
	e.mu.Unlock()
}

// planDepth snapshots the one knob that shapes a prepared plan, the
// recursion bound. The cache key and the plan itself are always built from
// one snapshot, so a concurrent SetMaxRecursionDepth can never publish a plan
// under a mismatched key.
func (e *Engine) planDepth() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.maxDepth
}

// SetPlanCacheSize resizes the engine's plan cache; n <= 0 disables caching
// and drops all cached plans.
func (e *Engine) SetPlanCacheSize(n int) { e.plans.resize(n) }

// PlanCacheStats reports plan cache hits, misses and current size. A miss is
// counted only when a cacheable statement (SELECT, DELETE, MODIFY) was
// actually planned fresh, so DDL and insert traffic does not dilute the
// ratio.
func (e *Engine) PlanCacheStats() (hits, misses uint64, size int) { return e.plans.stats() }

// planKeyFor builds the cache key of a statement: schema version plus the
// recursion bound that will shape the plan, then the statement text. DDL
// bumps the schema version, so stale plans miss naturally and age out of
// the LRU.
func (e *Engine) planKeyFor(depth int, src string) string {
	return fmt.Sprintf("%d\x00%d\x00%s", e.sys.Schema().Version(), depth, src)
}

// ErrNotSelect is returned by PlanQuery for statements that are not SELECTs.
var ErrNotSelect = errors.New("core: not a SELECT statement")

// PlanQuery prepares a single SELECT statement, consulting the plan cache
// keyed by statement text and schema version so repeated queries skip both
// parsing and planning. Returned plans are immutable and may be shared by
// concurrent cursors.
func (e *Engine) PlanQuery(src string) (*Plan, error) { return e.cachedSelect(src, nil) }

// cachedSelect is the one plan lookup of single-SELECT entry points: probe
// the cache, else parse, plan and publish. Planning is recorded as a "plan"
// span on tr (a cache hit sets the root's plan_cache attribute instead); a
// nil tr records nothing.
func (e *Engine) cachedSelect(src string, tr *obs.Trace) (*Plan, error) {
	depth := e.planDepth()
	key := e.planKeyFor(depth, src)
	if p, ok := e.plans.get(key).(*Plan); ok {
		tr.SetAttr("plan_cache", "hit")
		return p, nil
	}
	p, err := e.planStage(tr, func() (*Plan, error) {
		parseStart := time.Now()
		stmt, err := mql.ParseOne(src)
		e.parseNs.ObserveSince(parseStart)
		if err != nil {
			return nil, err
		}
		sel, ok := stmt.(*mql.Select)
		if !ok {
			return nil, ErrNotSelect
		}
		return e.planSelect(sel, depth)
	})
	if err != nil {
		return nil, err
	}
	e.plans.putMiss(key, p)
	return p, nil
}

// OpenQueryTraced is PlanQuery plus a cursor open, with tracing: the plan
// lookup is recorded on tr, and the returned cursor's page reads and molecule
// deliveries are charged to an "assemble" span that Cursor.Close ends. A nil
// tr behaves exactly like PlanQuery followed by Open.
func (e *Engine) OpenQueryTraced(src string, tr *obs.Trace) (*Cursor, error) {
	p, err := e.cachedSelect(src, tr)
	if err != nil {
		return nil, err
	}
	sp := tr.Root().Child("assemble")
	annotatePlanSpan(sp, p)
	cur, err := p.open(nil, sp)
	if err != nil {
		sp.End()
		return nil, err
	}
	return cur, nil
}

// maybeCacheable reports whether the script's first keyword can be a
// plan-cacheable statement (SELECT, DELETE or MODIFY) — the cheap pre-filter
// that keeps DDL and insert traffic off the plan-cache probe.
func maybeCacheable(src string) bool {
	i := 0
	for i < len(src) && (src[i] == ' ' || src[i] == '\t' || src[i] == '\n' || src[i] == '\r') {
		i++
	}
	rest := len(src) - i
	return (rest >= 6 && (strings.EqualFold(src[i:i+6], "SELECT") ||
		strings.EqualFold(src[i:i+6], "DELETE") ||
		strings.EqualFold(src[i:i+6], "MODIFY")))
}

// ensureResolved re-validates association symmetry after DDL. DDL scripts
// may declare mutually referencing types in any order (Fig. 2.3 does), so
// resolution is deferred until the first statement that needs a consistent
// schema.
func (e *Engine) ensureResolved() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if !e.schemaDirty {
		return nil
	}
	if err := e.sys.Schema().ResolveAssociations(); err != nil {
		return fmt.Errorf("%w: %v", ErrUnresolved, err)
	}
	e.schemaDirty = false
	return nil
}

// Result is the outcome of one statement.
type Result struct {
	Kind      string // "molecules", "inserted", "count", "ok"
	Molecules []*Molecule
	Inserted  []addr.LogicalAddr
	Count     int
	Message   string
}

// execCtx carries the per-request execution context down the statement
// dispatch: the pinned snapshot epoch (nil = current), the request trace
// (nil = untraced — every span operation no-ops), the write context DML
// mutates through, and the script parse time so EXPLAIN ANALYZE can report
// the parse stage it arrived through.
type execCtx struct {
	epoch   *uint64
	tr      *obs.Trace
	w       access.Writer
	parseNs int64
}

// ExecuteScript parses and executes a semicolon-separated MQL script,
// returning one result per statement. Single-statement SELECT, DELETE and
// MODIFY scripts are served through the plan cache: a repeated statement
// text skips parsing and planning entirely and goes straight to execution.
// DML writes through the access system's no-transaction form (loaders and
// tools); the other entry points name their write context.
func (e *Engine) ExecuteScript(src string) ([]*Result, error) {
	return e.executeScript(src, execCtx{w: e.sys.Writer(0, nil)})
}

// ExecuteScriptTraced is ExecuteScript writing through w and recording
// parse/plan/assemble/apply spans under tr's root span (nil tr records
// nothing).
func (e *Engine) ExecuteScriptTraced(src string, tr *obs.Trace, w access.Writer) ([]*Result, error) {
	return e.executeScript(src, execCtx{tr: tr, w: w})
}

// ExecuteScriptAt runs the script with every SELECT reading at the given
// snapshot epoch, which the caller must hold open through a live snapshot
// (the transaction layer pins one at Begin), and DML writing through w. DML
// statements always run against current state — writes cannot apply to
// history.
func (e *Engine) ExecuteScriptAt(src string, epoch uint64, w access.Writer) ([]*Result, error) {
	return e.executeScript(src, execCtx{epoch: &epoch, w: w})
}

func (e *Engine) executeScript(src string, ctx execCtx) ([]*Result, error) {
	var depth int
	var key string
	if maybeCacheable(src) {
		depth = e.planDepth()
		key = e.planKeyFor(depth, src)
		var r *Result
		var err error
		hit := true
		switch v := e.plans.get(key).(type) {
		case *Plan:
			ctx.tr.SetAttr("plan_cache", "hit")
			r, err = e.runSelect(v, ctx)
		case *cachedDML:
			ctx.tr.SetAttr("plan_cache", "hit")
			r, err = e.runDML(v, ctx)
		default:
			hit = false
		}
		if hit {
			if err != nil {
				return nil, fmt.Errorf("statement 1: %w", err)
			}
			return []*Result{r}, nil
		}
	}
	psp := ctx.tr.Root().Child("parse")
	parseStart := time.Now()
	stmts, err := mql.Parse(src)
	ctx.parseNs = time.Since(parseStart).Nanoseconds()
	e.parseNs.Observe(ctx.parseNs)
	psp.End()
	if err != nil {
		return nil, err
	}
	out := make([]*Result, 0, len(stmts))
	for i, s := range stmts {
		var r *Result
		var err error
		if len(stmts) == 1 && key != "" {
			// Cacheable single statement that missed: prepare, publish, run.
			switch v := s.(type) {
			case *mql.Select:
				var p *Plan
				if p, err = e.planStage(ctx.tr, func() (*Plan, error) { return e.planSelect(v, depth) }); err == nil {
					e.plans.putMiss(key, p)
					r, err = e.runSelect(p, ctx)
				}
			case *mql.Delete:
				var c *cachedDML
				if c, err = e.prepareDMLStage(ctx.tr, func() (*cachedDML, error) { return e.prepareDelete(v, depth) }); err == nil {
					e.plans.putMiss(key, c)
					r, err = e.runDML(c, ctx)
				}
			case *mql.Modify:
				var c *cachedDML
				if c, err = e.prepareDMLStage(ctx.tr, func() (*cachedDML, error) { return e.prepareModify(v, depth) }); err == nil {
					e.plans.putMiss(key, c)
					r, err = e.runDML(c, ctx)
				}
			default:
				r, err = e.execute(s, ctx)
			}
		} else {
			r, err = e.execute(s, ctx)
		}
		if err != nil {
			return out, fmt.Errorf("statement %d: %w", i+1, err)
		}
		out = append(out, r)
	}
	return out, nil
}

// planStage wraps a fresh planning call in a "plan" span annotated with the
// chosen access and pushdown facts.
func (e *Engine) planStage(tr *obs.Trace, plan func() (*Plan, error)) (*Plan, error) {
	sp := tr.Root().Child("plan")
	sp.SetAttr("plan_cache", "miss")
	p, err := plan()
	if err == nil {
		annotatePlanSpan(sp, p)
	}
	sp.End()
	return p, err
}

// prepareDMLStage is planStage for prepared DELETE/MODIFY statements.
func (e *Engine) prepareDMLStage(tr *obs.Trace, prep func() (*cachedDML, error)) (*cachedDML, error) {
	sp := tr.Root().Child("plan")
	sp.SetAttr("plan_cache", "miss")
	c, err := prep()
	if err == nil {
		annotatePlanSpan(sp, c.plan)
	}
	sp.End()
	return c, err
}

// annotatePlanSpan records the plan facts EXPLAIN renders — access kind,
// index/range details, pushdown shape — as span attributes (nil-safe).
func annotatePlanSpan(sp *obs.Span, p *Plan) {
	if sp == nil || p == nil {
		return
	}
	sp.SetAttr("kind", p.AccessKind)
	if p.PathName != "" {
		sp.SetAttr("path", p.PathName)
	}
	if p.SortOrder != "" {
		sp.SetAttr("sort_order", p.SortOrder)
	}
	if p.Cluster != "" {
		sp.SetAttr("cluster", p.Cluster)
	}
	if n := len(p.RootSSA); n > 0 {
		sp.SetAttr("root_ssa", fmt.Sprintf("%d", n))
	}
	if n := len(p.CompSSA); n > 0 {
		sp.SetAttr("pushed_conjuncts", fmt.Sprintf("%d", n))
	}
}

// runSelect opens a cursor over a prepared plan and drains it; a non-nil
// ctx.epoch pins the cursor to that snapshot epoch instead of the current
// one. When the request is traced, the whole drain runs under an "assemble"
// span that carries the plan facts and the read-path counters.
func (e *Engine) runSelect(p *Plan, ctx execCtx) (*Result, error) {
	sp := ctx.tr.Root().Child("assemble")
	annotatePlanSpan(sp, p)
	defer sp.End()
	cur, err := p.open(ctx.epoch, sp)
	if err != nil {
		return nil, err
	}
	defer cur.Close()
	mols, err := cur.Collect()
	if err != nil {
		return nil, err
	}
	return &Result{Kind: "molecules", Molecules: mols, Count: len(mols)}, nil
}

// Execute runs a single parsed statement, writing through w.
func (e *Engine) Execute(stmt mql.Stmt, w access.Writer) (*Result, error) {
	return e.execute(stmt, execCtx{w: w})
}

func (e *Engine) execute(stmt mql.Stmt, ctx execCtx) (*Result, error) {
	res, err := e.executeInner(stmt, ctx)
	if err == nil && isDDL(stmt) {
		// Schema changes only persist in checkpoint snapshots — log records
		// replayed against a pre-DDL schema would name unknown types — so
		// every successful DDL statement checkpoints before acknowledging.
		if derr := e.sys.DDLDurable(); derr != nil {
			return res, fmt.Errorf("core: DDL checkpoint: %w", derr)
		}
	}
	return res, err
}

// isDDL reports whether stmt changes the schema or the set of LDL-declared
// storage structures.
func isDDL(stmt mql.Stmt) bool {
	switch stmt.(type) {
	case *mql.CreateAtomType, *mql.DefineMoleculeType, *mql.Drop,
		*mql.CreateAccessPath, *mql.CreateSortOrder, *mql.CreatePartition,
		*mql.CreateCluster:
		return true
	}
	return false
}

func (e *Engine) executeInner(stmt mql.Stmt, ctx execCtx) (*Result, error) {
	switch s := stmt.(type) {
	case *mql.CreateAtomType:
		at, err := mql.LowerAtomType(s)
		if err != nil {
			return nil, err
		}
		if err := e.sys.Schema().AddAtomType(at); err != nil {
			return nil, err
		}
		e.mu.Lock()
		e.schemaDirty = true
		e.mu.Unlock()
		return &Result{Kind: "ok", Message: "atom type " + s.Name + " created"}, nil

	case *mql.DefineMoleculeType:
		if err := e.ensureResolved(); err != nil {
			return nil, err
		}
		m, err := mql.LowerMolecule(e.sys.Schema(), s.Name, s.From)
		if err != nil {
			return nil, err
		}
		if err := e.sys.Schema().DefineMoleculeType(m); err != nil {
			return nil, err
		}
		return &Result{Kind: "ok", Message: "molecule type " + s.Name + " defined"}, nil

	case *mql.Drop:
		switch s.Kind {
		case "ATOM_TYPE":
			if err := e.sys.Schema().DropAtomType(s.Name); err != nil {
				return nil, err
			}
		case "MOLECULE_TYPE":
			if err := e.sys.Schema().DropMoleculeType(s.Name); err != nil {
				return nil, err
			}
		default:
			if err := e.sys.DropLDL(s.Name); err != nil {
				return nil, err
			}
		}
		return &Result{Kind: "ok", Message: s.Name + " dropped"}, nil

	case *mql.CreateAccessPath:
		if err := e.ensureResolved(); err != nil {
			return nil, err
		}
		return okResult(e.sys.CreateAccessPath(&catalog.AccessPathDef{
			Name: s.Name, AtomType: s.AtomType, Attrs: s.Attrs, Method: s.Using,
		}), "access path "+s.Name+" created")

	case *mql.CreateSortOrder:
		if err := e.ensureResolved(); err != nil {
			return nil, err
		}
		return okResult(e.sys.CreateSortOrder(&catalog.SortOrderDef{
			Name: s.Name, AtomType: s.AtomType, Attrs: s.Attrs, Desc: s.Desc,
		}), "sort order "+s.Name+" created")

	case *mql.CreatePartition:
		if err := e.ensureResolved(); err != nil {
			return nil, err
		}
		return okResult(e.sys.CreatePartition(&catalog.PartitionDef{
			Name: s.Name, AtomType: s.AtomType, Attrs: s.Attrs,
		}), "partition "+s.Name+" created")

	case *mql.CreateCluster:
		if err := e.ensureResolved(); err != nil {
			return nil, err
		}
		m, err := mql.LowerMolecule(e.sys.Schema(), "", s.From)
		if err != nil {
			return nil, err
		}
		return okResult(e.sys.CreateCluster(&catalog.ClusterDef{
			Name: s.Name, Molecule: m,
		}), "atom cluster "+s.Name+" created")

	case *mql.Select:
		plan, err := e.planStage(ctx.tr, func() (*Plan, error) { return e.PlanSelect(s) })
		if err != nil {
			return nil, err
		}
		return e.runSelect(plan, ctx)

	case *mql.Explain:
		return e.execExplain(s, ctx)

	case *mql.Insert:
		return e.execInsert(s, ctx)

	case *mql.Delete:
		return e.execDelete(s, ctx)

	case *mql.Modify:
		return e.execModify(s, ctx)

	case *mql.Connect:
		return e.execConnect(s.From, s.To, s.Via, true, ctx.w)

	case *mql.Disconnect:
		return e.execConnect(s.From, s.To, s.Via, false, ctx.w)

	case *mql.CheckIntegrity:
		if err := e.ensureResolved(); err != nil {
			return nil, err
		}
		if err := e.sys.CheckIntegrity(s.AtomType); err != nil {
			return nil, err
		}
		return &Result{Kind: "ok", Message: "integrity ok"}, nil

	case *mql.PropagateDeferred:
		if err := e.sys.PropagateDeferred(); err != nil {
			return nil, err
		}
		return &Result{Kind: "ok", Message: "deferred updates propagated"}, nil

	default:
		return nil, fmt.Errorf("%w: unsupported statement %T", ErrSemantic, stmt)
	}
}

func okResult(err error, msg string) (*Result, error) {
	if err != nil {
		return nil, err
	}
	return &Result{Kind: "ok", Message: msg}, nil
}

func (e *Engine) execInsert(s *mql.Insert, ctx execCtx) (*Result, error) {
	if err := e.ensureResolved(); err != nil {
		return nil, err
	}
	sp, w := ctx.apply()
	defer sp.End()
	res := &Result{Kind: "inserted"}
	for _, row := range s.Rows {
		values := map[string]atom.Value{}
		for i, attr := range s.Attrs {
			v, err := mql.LitValue(row[i])
			if err != nil {
				return nil, err
			}
			values[attr] = v
		}
		a, err := w.Insert(s.AtomType, values)
		if err != nil {
			return nil, err
		}
		res.Inserted = append(res.Inserted, a)
	}
	res.Count = len(res.Inserted)
	return res, nil
}

// cachedDML is a prepared DELETE or MODIFY statement: the qualification is a
// prepared molecule plan (the same object the plan cache shares between
// SELECT cursors) plus, for MODIFY, the lowered SET values. Like cached
// SELECT plans it is immutable after preparation — changes is read-only —
// and safe for concurrent execution.
type cachedDML struct {
	kind    string // "delete" | "modify"
	plan    *Plan
	changes map[string]atom.Value // modify only
}

// prepareDelete lowers a DELETE into its prepared form under one planDepth
// snapshot.
func (e *Engine) prepareDelete(s *mql.Delete, depth int) (*cachedDML, error) {
	plan, err := e.planSelect(&mql.Select{All: true, From: s.From, Where: s.Where}, depth)
	if err != nil {
		return nil, err
	}
	return &cachedDML{kind: "delete", plan: plan}, nil
}

// prepareModify lowers a MODIFY into its prepared form: qualification plan
// plus the SET values, lowered once.
func (e *Engine) prepareModify(s *mql.Modify, depth int) (*cachedDML, error) {
	plan, err := e.planSelect(&mql.Select{All: true, From: &mql.MolComponent{Name: s.AtomType}, Where: s.Where}, depth)
	if err != nil {
		return nil, err
	}
	changes := map[string]atom.Value{}
	for _, as := range s.Set {
		v, err := mql.LitValue(as.Value)
		if err != nil {
			return nil, err
		}
		changes[as.Attr] = v
	}
	return &cachedDML{kind: "modify", plan: plan, changes: changes}, nil
}

// apply opens the "apply" span of a mutating statement and returns it with
// the statement's write context charging its log bytes to it; the caller ends
// the span. Untraced requests get a nil span and an untraced writer.
func (ctx execCtx) apply() (*obs.Span, access.Writer) {
	sp := ctx.tr.Root().Child("apply")
	return sp, ctx.w.Traced(sp)
}

// runDML executes a prepared DELETE or MODIFY. The qualification read runs
// under an "assemble" span like a SELECT; the mutations run under "apply".
func (e *Engine) runDML(c *cachedDML, ctx execCtx) (*Result, error) {
	asp := ctx.tr.Root().Child("assemble")
	annotatePlanSpan(asp, c.plan)
	cur, err := c.plan.open(nil, asp)
	if err != nil {
		asp.End()
		return nil, err
	}
	defer cur.Close()
	mols, err := cur.Collect()
	asp.End()
	if err != nil {
		return nil, err
	}
	sp, w := ctx.apply()
	defer sp.End()
	if c.kind == "delete" {
		deleted := map[addr.LogicalAddr]bool{}
		for _, m := range mols {
			for _, a := range m.SortedAddrs() {
				if deleted[a] || !e.sys.Directory().Exists(a) {
					continue
				}
				if err := w.Delete(a); err != nil {
					return nil, err
				}
				deleted[a] = true
			}
		}
		return &Result{Kind: "count", Count: len(deleted), Message: fmt.Sprintf("%d atoms deleted", len(deleted))}, nil
	}
	n := 0
	for _, m := range mols {
		if err := w.Update(m.Root.Addr(), c.changes); err != nil {
			return nil, err
		}
		n++
	}
	return &Result{Kind: "count", Count: n, Message: fmt.Sprintf("%d atoms modified", n)}, nil
}

// execDelete deletes all component atoms of every qualified molecule
// ("removal of single components as well as of whole component sets,
// thereby automatically disconnecting these parts").
func (e *Engine) execDelete(s *mql.Delete, ctx execCtx) (*Result, error) {
	c, err := e.prepareDelete(s, e.planDepth())
	if err != nil {
		return nil, err
	}
	return e.runDML(c, ctx)
}

func (e *Engine) execModify(s *mql.Modify, ctx execCtx) (*Result, error) {
	c, err := e.prepareModify(s, e.planDepth())
	if err != nil {
		return nil, err
	}
	return e.runDML(c, ctx)
}

func (e *Engine) execConnect(from, to mql.Expr, via string, connect bool, w access.Writer) (*Result, error) {
	if err := e.ensureResolved(); err != nil {
		return nil, err
	}
	fv, err := mql.LitValue(from)
	if err != nil {
		return nil, err
	}
	tv, err := mql.LitValue(to)
	if err != nil {
		return nil, err
	}
	if fv.K != atom.KindRef || tv.K != atom.KindRef {
		return nil, fmt.Errorf("%w: CONNECT requires address literals", ErrSemantic)
	}
	if connect {
		err = w.Connect(fv.A, via, tv.A)
	} else {
		err = w.Disconnect(fv.A, via, tv.A)
	}
	if err != nil {
		return nil, err
	}
	return &Result{Kind: "ok", Message: "done"}, nil
}
