package core

import (
	"errors"
	"fmt"
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
	// parsing (lexing every script, parsing a statement the plan cache
	// cannot serve), planning (cache misses only — hits skip the stage),
	// and molecule assembly (accumulated per cursor, observed at Close).
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
		plans:       newPlanCache(),
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

// PlanCacheStats reports plan cache hits, misses and current size. One
// lookup is counted per statement the cache can serve — every SELECT, DELETE
// and MODIFY of a script and the SELECT of an EXPLAIN — so DDL and insert
// traffic does not dilute the ratio; a miss is counted when the statement
// was actually prepared fresh.
func (e *Engine) PlanCacheStats() (hits, misses uint64, size int) { return e.plans.stats() }

// ErrNotSelect is returned by PlanQuery for statements that are not SELECTs.
var ErrNotSelect = errors.New("core: not a SELECT statement")

// PlanQuery prepares a single SELECT statement through the plan cache: a
// statement of a shape prepared before skips parsing and planning, and the
// returned plan is the shape's plan with this statement's literals bound.
// Returned plans are immutable and may be shared by concurrent cursors.
func (e *Engine) PlanQuery(src string) (*Plan, error) { return e.cachedSelect(src, nil) }

// cachedSelect is the plan lookup of single-SELECT entry points. Lexing is
// recorded as a "parse" span on tr and planning as a "plan" span (a cache
// hit sets the root's plan_cache attribute instead); a nil tr records
// nothing.
func (e *Engine) cachedSelect(src string, tr *obs.Trace) (*Plan, error) {
	stmts, _, err := e.lex(src, tr)
	if err == nil {
		err = exactlyOne(stmts)
	}
	if err != nil {
		return nil, err
	}
	st := &stmts[0]
	if st.Verb != "SELECT" {
		if _, err := st.Parse(); err != nil {
			return nil, err
		}
		return nil, ErrNotSelect
	}
	prep := e.lookup(st, tr)
	if prep == nil {
		ast, err := e.parse(st)
		if err != nil {
			return nil, err
		}
		if prep, err = e.prepareStage(st, ast, tr); err != nil {
			return nil, err
		}
	}
	return prep.plan.bind(st.Params), nil
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

// lex splits a script into its statements under a "parse" span and returns
// the time it took.
func (e *Engine) lex(src string, tr *obs.Trace) ([]mql.Statement, int64, error) {
	sp := tr.Root().Child("parse")
	start := time.Now()
	stmts, err := mql.Lex(src)
	ns := time.Since(start).Nanoseconds()
	e.parseNs.Observe(ns)
	sp.End()
	return stmts, ns, err
}

// exactlyOne refuses a text of other than one statement, before any of it
// runs.
func exactlyOne(stmts []mql.Statement) error {
	if len(stmts) != 1 {
		return fmt.Errorf("%w: expected exactly one statement, got %d", mql.ErrSyntax, len(stmts))
	}
	return nil
}

// parse parses one statement of a script.
func (e *Engine) parse(st *mql.Statement) (mql.Stmt, error) {
	defer e.parseNs.ObserveSince(time.Now())
	return st.Parse()
}

// lookup returns the prepared form of the statement's shape from the plan
// cache, counting the hit, or nil.
func (e *Engine) lookup(st *mql.Statement, tr *obs.Trace) *prepared {
	p := e.plans.get(e.sys.Schema().Version(), e.planDepth(), st.Shape, st.Params, true)
	if p != nil {
		tr.SetAttr("plan_cache", "hit")
	}
	return p
}

// prepareStage prepares the parsed statement of a shape the cache missed
// and publishes it, under a "plan" span annotated with the chosen access and
// pushdown facts.
func (e *Engine) prepareStage(st *mql.Statement, ast mql.Stmt, tr *obs.Trace) (*prepared, error) {
	version, depth := e.sys.Schema().Version(), e.planDepth()
	sp := tr.Root().Child("plan")
	sp.SetAttr("plan_cache", "miss")
	defer sp.End()
	var prep *prepared
	var err error
	switch v := ast.(type) {
	case *mql.Select:
		prep, err = e.prepareSelect(v, depth)
	case *mql.Explain:
		prep, err = e.prepareSelect(v.Query, depth)
	case *mql.Delete:
		prep, err = e.prepareDelete(v, depth)
	case *mql.Modify:
		prep, err = e.prepareModify(v, depth)
	default:
		err = fmt.Errorf("%w: cannot prepare %T", ErrSemantic, ast)
	}
	if err != nil {
		return nil, err
	}
	prep.fixed = fixedParams(ast, st.Params)
	annotatePlanSpan(sp, prep.plan)
	e.plans.putMiss(version, depth, st.Shape, prep)
	return prep, nil
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
// mutates through, the script's parse time so EXPLAIN ANALYZE can report
// the parse stage it arrived through, and whether the text must be exactly
// one statement (ExecuteOne).
type execCtx struct {
	epoch   *uint64
	tr      *obs.Trace
	w       access.Writer
	parseNs int64
	one     bool
}

// ExecuteScript parses and executes a semicolon-separated MQL script,
// returning one result per statement. Every SELECT, DELETE and MODIFY is
// served through the plan cache: a statement of a shape prepared before
// skips parsing and planning and runs its shape's plan with its own literals
// bound. DML writes through the access system's no-transaction form
// (loaders and tools); the other entry points name their write context.
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

// ExecuteOne runs a text of exactly one statement through the script path,
// writing through w: a text of any other count is a syntax error, refused
// before anything runs. Its errors carry no statement number.
func (e *Engine) ExecuteOne(src string, w access.Writer) (*Result, error) {
	out, err := e.executeScript(src, execCtx{w: w, one: true})
	if err != nil {
		return nil, err
	}
	return out[0], nil
}

func (e *Engine) executeScript(src string, ctx execCtx) ([]*Result, error) {
	stmts, lexNs, err := e.lex(src, ctx.tr)
	if err == nil && ctx.one {
		err = exactlyOne(stmts)
	}
	if err != nil {
		return nil, err
	}
	ctx.parseNs = lexNs
	// A script runs only if all of it parses. Every statement of a shape
	// parses or none does, so one whose shape the cache holds is known to;
	// the others are parsed before the first statement runs — all but a
	// leading prepared statement, which looks itself up first.
	var one [1]mql.Stmt
	asts := one[:]
	if len(stmts) > 1 {
		asts = make([]mql.Stmt, len(stmts))
	}
	version, depth := e.sys.Schema().Version(), e.planDepth()
	for i := range stmts {
		st := &stmts[i]
		if st.Shape != nil && (i == 0 || e.plans.get(version, depth, st.Shape, st.Params, false) != nil) {
			continue
		}
		if asts[i], err = e.parse(st); err != nil {
			return nil, err
		}
	}
	out := make([]*Result, 0, len(stmts))
	for i := range stmts {
		st, ast := &stmts[i], asts[i]
		var prep *prepared
		if st.Shape != nil {
			if prep = e.lookup(st, ctx.tr); prep == nil && ast == nil {
				// The leading statement, or one whose cached shape DDL
				// earlier in the script has outdated since the pre-check
				// (it parses: its shape does).
				if ast, err = e.parse(st); err != nil {
					return nil, err
				}
			}
		}
		r, err := e.runStatement(st, prep, ast, ctx)
		if err != nil {
			if !ctx.one {
				err = fmt.Errorf("statement %d: %w", i+1, err)
			}
			return out, err
		}
		out = append(out, r)
	}
	return out, nil
}

// runStatement executes one statement of a script: a prepared shape with the
// statement's literals bound (prep is nil on a cache miss: ast is prepared
// and published first), or any other statement from its tree.
func (e *Engine) runStatement(st *mql.Statement, prep *prepared, ast mql.Stmt, ctx execCtx) (*Result, error) {
	if st.Shape == nil {
		return e.execute(ast, ctx)
	}
	planStart := time.Now()
	if prep == nil {
		var err error
		if prep, err = e.prepareStage(st, ast, ctx.tr); err != nil {
			return nil, err
		}
	}
	switch {
	case st.Verb == "EXPLAIN":
		plan := prep.plan.bind(st.Params)
		return e.explain(plan, st.Analyze, st, time.Since(planStart).Nanoseconds(), ctx)
	case prep.kind == "select":
		return e.runSelect(prep.plan.bind(st.Params), ctx)
	}
	return e.runDML(prep, st.Params, ctx)
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

// executeInner runs a statement the plan cache does not prepare: DDL, LDL,
// INSERT, CONNECT/DISCONNECT and the maintenance statements. SELECT, EXPLAIN,
// DELETE and MODIFY carry a shape and run from their prepared form.
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

	case *mql.Insert:
		return e.execInsert(s, ctx)

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
	// The rows are one atom set: each row is written once, and an atom
	// several rows reference gets one partner update.
	set := e.sys.NewAtomSet()
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
		a, err := set.Add(s.AtomType, values)
		if err != nil {
			return nil, err
		}
		res.Inserted = append(res.Inserted, a)
	}
	if err := w.WriteSet(set); err != nil {
		return nil, err
	}
	res.Count = len(res.Inserted)
	return res, nil
}

// prepared is a statement prepared once per shape: the molecule plan of a
// SELECT (an EXPLAIN of it shares it) or of a DELETE's or MODIFY's
// qualification, and for MODIFY the lowered SET values with the parameter
// each came from. fixed lists the shape's structural literals (see
// fixedParams): a statement of the shape whose values differ there is not
// served by it. Like the plans it holds it is immutable after preparation
// and safe for concurrent execution.
type prepared struct {
	kind    string // "select" | "delete" | "modify"
	plan    *Plan
	changes []change // modify only
	fixed   []fixedParam
}

// change is one SET assignment of a MODIFY: attr takes v, or the statement's
// parameter param (1-based) when it is one.
type change struct {
	attr  string
	v     atom.Value
	param int
}

type fixedParam struct {
	ord int // 0-based
	v   atom.Value
}

// fixedParams lists the parameters of a shape that the statement's tree
// does not carry as Lit nodes — quantifier counts, recursion levels,
// constructor elements, which the plan bakes in — with this statement's
// values.
func fixedParams(ast mql.Stmt, params []atom.Value) []fixedParam {
	slotted := make([]bool, len(params))
	mql.WalkLits(ast, func(l *mql.Lit) {
		if l.Param > 0 {
			slotted[l.Param-1] = true
		}
	})
	var fixed []fixedParam
	for i, ok := range slotted {
		if !ok {
			fixed = append(fixed, fixedParam{i, params[i]})
		}
	}
	return fixed
}

// fits reports whether a statement of the shape with these parameters
// agrees with the prepared one on every structural literal.
func (p *prepared) fits(params []atom.Value) bool {
	for _, f := range p.fixed {
		if v := params[f.ord]; v.K != f.v.K || atom.Compare(v, f.v) != 0 {
			return false
		}
	}
	return true
}

// prepareSelect prepares a SELECT under one planDepth snapshot.
func (e *Engine) prepareSelect(s *mql.Select, depth int) (*prepared, error) {
	plan, err := e.planSelect(s, depth)
	if err != nil {
		return nil, err
	}
	return &prepared{kind: "select", plan: plan}, nil
}

// prepareDelete lowers a DELETE into its prepared form under one planDepth
// snapshot.
func (e *Engine) prepareDelete(s *mql.Delete, depth int) (*prepared, error) {
	plan, err := e.planSelect(&mql.Select{All: true, From: s.From, Where: s.Where}, depth)
	if err != nil {
		return nil, err
	}
	return &prepared{kind: "delete", plan: plan}, nil
}

// prepareModify lowers a MODIFY into its prepared form: qualification plan
// plus the SET values, lowered once.
func (e *Engine) prepareModify(s *mql.Modify, depth int) (*prepared, error) {
	plan, err := e.planSelect(&mql.Select{All: true, From: &mql.MolComponent{Name: s.AtomType}, Where: s.Where}, depth)
	if err != nil {
		return nil, err
	}
	prep := &prepared{kind: "modify", plan: plan}
	for _, as := range s.Set {
		v, err := mql.LitValue(as.Value)
		if err != nil {
			return nil, err
		}
		ch := change{attr: as.Attr, v: v}
		if lit, ok := as.Value.(*mql.Lit); ok {
			ch.param = lit.Param
		}
		prep.changes = append(prep.changes, ch)
	}
	return prep, nil
}

// apply opens the "apply" span of a mutating statement and returns it with
// the statement's write context charging its log bytes to it; the caller ends
// the span. Untraced requests get a nil span and an untraced writer.
func (ctx execCtx) apply() (*obs.Span, access.Writer) {
	sp := ctx.tr.Root().Child("apply")
	return sp, ctx.w.Traced(sp)
}

// runDML executes a prepared DELETE or MODIFY with params bound, as one atom
// set: the statement is all-or-nothing, and snapshots see all of it or none.
// A DELETE removes all component atoms of every qualified molecule ("removal
// of single components as well as of whole component sets, thereby
// automatically disconnecting these parts"). The qualification read runs
// under an "assemble" span like a SELECT; the mutations run under "apply".
func (e *Engine) runDML(c *prepared, params []atom.Value, ctx execCtx) (*Result, error) {
	plan := c.plan.bind(params)
	asp := ctx.tr.Root().Child("assemble")
	annotatePlanSpan(asp, plan)
	cur, err := plan.open(nil, asp)
	if err != nil {
		asp.End()
		return nil, err
	}
	mols, err := cur.Collect()
	cur.Close() // before apply, or its snapshot pins every pre-image the apply makes
	asp.End()
	if err != nil {
		return nil, err
	}
	sp, w := ctx.apply()
	defer sp.End()
	set := e.sys.NewAtomSet()
	if c.kind == "delete" {
		for _, m := range mols {
			for _, a := range m.SortedAddrs() {
				if !e.sys.Directory().Exists(a) {
					continue
				}
				if err := set.Delete(a); err != nil {
					return nil, err
				}
			}
		}
	} else {
		for _, m := range mols {
			for _, ch := range c.changes {
				v := ch.v
				if ch.param > 0 {
					v = params[ch.param-1]
				}
				if err := set.Change(m.Root.Addr(), ch.attr, v); err != nil {
					return nil, err
				}
			}
		}
	}
	n := set.Len()
	if err := w.WriteSet(set); err != nil {
		return nil, err
	}
	msg := "%d atoms modified"
	if c.kind == "delete" {
		msg = "%d atoms deleted"
	}
	return &Result{Kind: "count", Count: n, Message: fmt.Sprintf(msg, n)}, nil
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
