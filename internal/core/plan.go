package core

import (
	"errors"
	"fmt"
	"slices"
	"time"

	"prima/internal/access"
	"prima/internal/access/addr"
	"prima/internal/access/atom"
	"prima/internal/access/mdindex"
	"prima/internal/catalog"
	"prima/internal/mql"
)

// Errors returned by planning and execution.
var (
	ErrSemantic   = errors.New("core: semantic error")
	ErrUnresolved = errors.New("core: schema has unresolved associations")
)

// Plan is a prepared molecule query: the resolved (hierarchical) molecule
// type, the chosen root access (atom-type scan, access-path scan or
// atom-cluster-type scan), pushed-down restrictions, the residual predicate
// and the projection. Plans are produced by the query validation /
// simplification / preparation pipeline of §3.1.
type Plan struct {
	engine *Engine
	Mol    *catalog.MoleculeType
	Root   *catalog.AtomType

	// Root access choice.
	AccessKind string // "direct" | "atomscan" | "accesspath" | "pathrange" | "gridrange" | "sortrange" | "cluster"
	PathName   string // access path to use
	PathKey    atom.Value
	// DirectRoot is the single candidate root of a "direct" access: an
	// equality on the root's IDENTIFIER attribute names the atom's logical
	// address outright, so root enumeration needs no index and no scan.
	DirectRoot addr.LogicalAddr
	// PathStart/PathStop bound "pathrange" and "sortrange" accesses
	// (inclusive; a superset is fine — RootSSA re-decides every root).
	PathStart *atom.Value
	PathStop  *atom.Value
	// PathRanges bounds a "gridrange" access: one (possibly open) inclusive
	// interval per grid dimension, again a superset re-decided by RootSSA.
	PathRanges []mdindex.Range
	SortOrder  string // sort order backing a "sortrange" access
	Cluster    string // cluster type to use

	RootSSA access.SSA // pushed-down root restrictions
	// CompSSA is the pushed-down non-root component restrictions: implicitly
	// existential single-component conjuncts decided during assembly.
	CompSSA  []CompCond
	Where    mql.Expr // residual molecule predicate (may be nil)
	Project  *projection
	MaxDepth int

	whereC *compiledPred // compiled residual predicate (nil iff Where is nil)
	asm    *asmNode      // Mol's tree as assembly walks it

	// Parameter slots (see bind): the parameter ordinal each RootSSA value
	// came from (0 = not a parameter), and what the access bounds are folded
	// from — the RootSSA conjunct of a "direct" or "accesspath" access, the
	// attributes of a range access.
	rootParams  []int
	accessCond  int
	accessAttrs []string
	// params are the bound parameter values of a plan bound from a shape's
	// template; nil for a plan prepared from a statement tree, whose values
	// are its own literals.
	params []atom.Value
}

// CompCond is one pushed-down component conjunct: the molecule is pruned
// when fewer than Min distinct atoms of TypeName satisfy the
// (single-condition) SSA — Min is 1 for implicitly existential conjuncts and
// n for EXISTS_AT_LEAST (n). The conjunct also stays in the residual
// predicate, so pushdown is only ever a fast negative path — semantics never
// depend on it.
type CompCond struct {
	TypeName string
	SSA      access.SSA
	Min      int
	ord      int // ordinal of TypeName in the molecule type's AtomTypes()
	param    int // parameter ordinal of the SSA's value (0 = not a parameter)
}

// projection compiled from the SELECT list.
type projection struct {
	all bool
	// perType maps atom type name -> projection spec for atoms of the type.
	perType map[string]*typeProjection
}

type typeProjection struct {
	whole   bool
	attrs   []string              // projected attributes (when !whole)
	keep    []bool                // by attribute index: projected, or the identifier (always kept)
	whereC  *compiledPred         // qualified projection predicate (may be nil)
	subType *catalog.MoleculeType // single-type pseudo molecule for whereC
}

// planSelect validates a SELECT statement against the schema and prepares
// an executable plan under one planDepth snapshot — callers that cache the
// plan pass the same snapshot they keyed it with.
func (e *Engine) planSelect(sel *mql.Select, depth int) (*Plan, error) {
	defer e.planNs.ObserveSince(time.Now())
	if err := e.ensureResolved(); err != nil {
		return nil, err
	}
	// Query validation and modification: resolve predefined molecule
	// types, normalize to a hierarchical molecule type.
	mol, err := mql.LowerMolecule(e.sys.Schema(), "", sel.From)
	if err != nil {
		return nil, err
	}
	if sel.From.Name != mol.Root.AtomType {
		// FROM named a predefined molecule type; remember its name for
		// seed qualifications like piece_list(0).attr.
		mol.Name = sel.From.Name
	}
	root, ok := e.sys.Schema().AtomType(mol.Root.AtomType)
	if !ok {
		return nil, fmt.Errorf("%w: %s", catalog.ErrUnknownType, mol.Root.AtomType)
	}
	p := &Plan{engine: e, Mol: mol, Root: root, AccessKind: "atomscan", MaxDepth: depth}

	// Validate and compile the projection.
	proj, err := e.compileProjection(sel, mol)
	if err != nil {
		return nil, err
	}
	p.Project = proj

	// Validate the predicate's attribute references and lower the residual
	// predicate to its compiled form.
	if sel.Where != nil {
		if err := e.checkExpr(sel.Where, mol); err != nil {
			return nil, err
		}
		p.Where = sel.Where
		p.whereC = e.compilePredicate(sel.Where, mol)
	}

	// Query preparation: extract pushed-down root restrictions, push
	// single-component conjuncts into assembly, and choose the root access.
	p.RootSSA, p.rootParams = e.extractRootSSA(sel.Where, mol, root)
	p.CompSSA = e.extractComponentSSA(sel.Where, mol, root)
	p.asm = e.asmTree(mol)
	e.chooseRootAccess(p)
	p.foldAccess()
	return p, nil
}

// bind returns the plan with its parameter slots filled from params, the
// values of a statement of the shape the plan was prepared for: the RootSSA
// and CompSSA values, the access bounds folded from them, and the compiled
// predicates' parameter operands, which read params through their scratch.
// The template is left untouched, and is its own binding for a statement
// without parameters. The access choice itself never depends on a value —
// only on a literal's kind, which is part of the shape.
func (p *Plan) bind(params []atom.Value) *Plan {
	if len(params) == 0 {
		return p
	}
	bp := &boundPlan{Plan: *p}
	b := &bp.Plan
	b.params = params
	if len(p.rootParams) > 0 {
		b.RootSSA = append(bp.root[:0:len(bp.root)], p.RootSSA...)
		for i, o := range p.rootParams {
			if o > 0 {
				b.RootSSA[i].Value = params[o-1]
			}
		}
	}
	if len(p.CompSSA) > 0 {
		b.CompSSA = slices.Clone(p.CompSSA)
		conds := make([]access.Cond, len(p.CompSSA))
		for i := range b.CompSSA {
			cc := &b.CompSSA[i]
			conds[i] = cc.SSA[0]
			if cc.param > 0 {
				conds[i].Value = params[cc.param-1]
			}
			cc.SSA = conds[i : i+1 : i+1]
		}
	}
	b.foldAccess()
	return b
}

// boundPlan holds a bound plan with room for a short RootSSA — a point
// lookup has one conjunct — so binding one allocates once.
type boundPlan struct {
	Plan
	root [2]access.Cond
}

// compileProjection lowers the SELECT list.
func (e *Engine) compileProjection(sel *mql.Select, mol *catalog.MoleculeType) (*projection, error) {
	proj := &projection{perType: map[string]*typeProjection{}}
	if sel.All {
		proj.all = true
		return proj, nil
	}
	molTypes := mol.AtomTypes()
	hasType := func(name string) bool {
		_, ok := mol.TypeOrdinal(name)
		return ok
	}
	get := func(name string) *typeProjection {
		tp := proj.perType[name]
		if tp == nil {
			tp = &typeProjection{}
			proj.perType[name] = tp
		}
		return tp
	}
	for _, item := range sel.Items {
		switch {
		case item.Sub != nil:
			// Qualified projection: qualifier := SELECT attrs FROM type WHERE ...
			typeName := item.Sub.From.Name
			if !hasType(typeName) {
				return nil, fmt.Errorf("%w: qualified projection type %s not in molecule", ErrSemantic, typeName)
			}
			if item.Qualifier != typeName {
				return nil, fmt.Errorf("%w: qualified projection %s := SELECT ... FROM %s must match", ErrSemantic, item.Qualifier, typeName)
			}
			tp := get(typeName)
			if item.Sub.All {
				tp.whole = true
			} else {
				for _, si := range item.Sub.Items {
					if si.Sub != nil {
						return nil, fmt.Errorf("%w: nested qualified projections are not supported", ErrSemantic)
					}
					if err := e.addProjectedAttr(tp, typeName, si.Name); err != nil {
						return nil, err
					}
				}
			}
			if item.Sub.Where != nil {
				sub := &catalog.MoleculeType{Root: &catalog.MolNode{AtomType: typeName}}
				if err := e.checkExpr(item.Sub.Where, sub); err != nil {
					return nil, err
				}
				tp.subType = sub
				tp.whereC = e.compilePredicate(item.Sub.Where, sub)
			}
		case item.Qualifier != "":
			// type.attr
			if !hasType(item.Qualifier) {
				return nil, fmt.Errorf("%w: %s is not a component of the molecule", ErrSemantic, item.Qualifier)
			}
			if err := e.addProjectedAttr(get(item.Qualifier), item.Qualifier, item.Name); err != nil {
				return nil, err
			}
		case hasType(item.Name):
			// Whole component type.
			get(item.Name).whole = true
		default:
			// Bare attribute: find its unique owning type in the molecule.
			owner := ""
			for _, tn := range molTypes {
				t, _ := e.sys.Schema().AtomType(tn)
				if _, ok := t.AttrIndex(item.Name); ok {
					if owner != "" {
						return nil, fmt.Errorf("%w: attribute %s is ambiguous (in %s and %s)", ErrSemantic, item.Name, owner, tn)
					}
					owner = tn
				}
			}
			if owner == "" {
				return nil, fmt.Errorf("%w: unknown attribute %s", ErrSemantic, item.Name)
			}
			if err := e.addProjectedAttr(get(owner), owner, item.Name); err != nil {
				return nil, err
			}
		}
	}
	return proj, nil
}

func (e *Engine) addProjectedAttr(tp *typeProjection, typeName, attr string) error {
	t, _ := e.sys.Schema().AtomType(typeName)
	i, ok := t.AttrIndex(attr)
	if !ok {
		return fmt.Errorf("%w: %s.%s", catalog.ErrUnknownAttr, typeName, attr)
	}
	if tp.keep == nil {
		tp.keep = make([]bool, len(t.Attrs))
		tp.keep[t.IdentIndex()] = true
	}
	tp.attrs, tp.keep[i] = append(tp.attrs, attr), true
	return nil
}

// checkExpr validates every attribute reference of an expression against the
// molecule type.
func (e *Engine) checkExpr(x mql.Expr, mol *catalog.MoleculeType) error {
	switch v := x.(type) {
	case nil:
		return nil
	case *mql.Binary:
		if err := e.checkExpr(v.L, mol); err != nil {
			return err
		}
		return e.checkExpr(v.R, mol)
	case *mql.Not:
		return e.checkExpr(v.X, mol)
	case *mql.Compare:
		if err := e.checkExpr(v.L, mol); err != nil {
			return err
		}
		return e.checkExpr(v.R, mol)
	case *mql.Quant:
		if _, ok := mol.TypeOrdinal(v.Var); !ok {
			return fmt.Errorf("%w: quantifier variable %s is not a component type", ErrSemantic, v.Var)
		}
		return e.checkExpr(v.Cond, mol)
	case *mql.AttrRef:
		_, err := e.resolveRefTarget(v, mol)
		return err
	case *mql.Lit, *mql.EmptyLit:
		return nil
	default:
		return fmt.Errorf("%w: unsupported expression %T", ErrSemantic, x)
	}
}

// refTarget describes a resolved attribute reference.
type refTarget struct {
	typeName string
	attr     string   // first attribute
	fields   []string // RECORD field path
	level    int
	hasLevel bool
}

// resolveRefTarget resolves an AttrRef's owning atom type within a molecule.
func (e *Engine) resolveRefTarget(ref *mql.AttrRef, mol *catalog.MoleculeType) (refTarget, error) {
	schema := e.sys.Schema()
	molTypes := mol.AtomTypes()
	out := refTarget{level: ref.Level, hasLevel: ref.HasLevel}

	parts := ref.Parts
	// molName(level).attr: the molecule name qualifies the ROOT type.
	if ref.HasLevel {
		if len(parts) < 2 {
			return out, fmt.Errorf("%w: level reference needs an attribute", ErrSemantic)
		}
		if parts[0] != mol.Name && parts[0] != mol.Root.AtomType {
			return out, fmt.Errorf("%w: %s(%d) does not name this molecule", ErrSemantic, parts[0], ref.Level)
		}
		out.typeName = mol.Root.AtomType
		out.attr = parts[1]
		out.fields = parts[2:]
	} else if len(parts) >= 2 {
		// type.attr (or attr.field when parts[0] is an attribute).
		if _, ok := schema.AtomType(parts[0]); ok {
			if _, ok := mol.TypeOrdinal(parts[0]); !ok {
				return out, fmt.Errorf("%w: %s is not a component of the molecule", ErrSemantic, parts[0])
			}
			out.typeName = parts[0]
			out.attr = parts[1]
			out.fields = parts[2:]
		} else {
			// attr.field... on a unique owner.
			owner, err := e.uniqueOwner(parts[0], molTypes)
			if err != nil {
				return out, err
			}
			out.typeName = owner
			out.attr = parts[0]
			out.fields = parts[1:]
		}
	} else {
		owner, err := e.uniqueOwner(parts[0], molTypes)
		if err != nil {
			return out, err
		}
		out.typeName = owner
		out.attr = parts[0]
	}

	t, _ := schema.AtomType(out.typeName)
	if t == nil {
		return out, fmt.Errorf("%w: %s", catalog.ErrUnknownType, out.typeName)
	}
	i, ok := t.AttrIndex(out.attr)
	if !ok {
		return out, fmt.Errorf("%w: %s.%s", catalog.ErrUnknownAttr, out.typeName, out.attr)
	}
	// Validate RECORD field path.
	spec := t.Attrs[i].Type
	for _, f := range out.fields {
		if spec.Kind != atom.KindRecord {
			return out, fmt.Errorf("%w: %s.%s is not a RECORD", ErrSemantic, out.typeName, out.attr)
		}
		found := -1
		for j, rf := range spec.Fields {
			if rf.Name == f {
				found = j
				break
			}
		}
		if found < 0 {
			return out, fmt.Errorf("%w: RECORD field %s", catalog.ErrUnknownAttr, f)
		}
		spec = spec.Fields[found].Type
	}
	return out, nil
}

// uniqueOwner finds the single molecule component type having the attribute.
// Preference: the root type wins (so brep_no resolves to the root even if
// another component also had it).
func (e *Engine) uniqueOwner(attr string, molTypes []string) (string, error) {
	schema := e.sys.Schema()
	if len(molTypes) > 0 {
		rt, _ := schema.AtomType(molTypes[0])
		if rt != nil {
			if _, ok := rt.AttrIndex(attr); ok {
				return molTypes[0], nil
			}
		}
	}
	owner := ""
	for _, tn := range molTypes[1:] {
		t, _ := schema.AtomType(tn)
		if t == nil {
			continue
		}
		if _, ok := t.AttrIndex(attr); ok {
			if owner != "" {
				return "", fmt.Errorf("%w: attribute %s is ambiguous (%s, %s)", ErrSemantic, attr, owner, tn)
			}
			owner = tn
		}
	}
	if owner == "" {
		return "", fmt.Errorf("%w: unknown attribute %s", catalog.ErrUnknownAttr, attr)
	}
	return owner, nil
}

// normalizeCompare matches <ref> op <literal> in either orientation, flipping
// the operator for literal-on-the-left forms (5 > attr ⇒ attr < 5). ok is
// false for comparisons that are not a ref/literal pair or whose operator has
// no SSA equivalent — unrecognized operators are skipped, never mapped to a
// zero-valued (wrong) condition.
func normalizeCompare(v *mql.Compare) (ref *mql.AttrRef, op access.Op, lit *mql.Lit, ok bool) {
	ref, refL := v.L.(*mql.AttrRef)
	lit, litR := v.R.(*mql.Lit)
	flip := false
	if !refL || !litR {
		ref2, okRef := v.R.(*mql.AttrRef)
		lit2, okLit := v.L.(*mql.Lit)
		if !okRef || !okLit {
			return nil, 0, nil, false
		}
		ref, lit, flip = ref2, lit2, true
	}
	switch v.Op {
	case mql.CmpEQ:
		op = access.OpEQ
	case mql.CmpNE:
		op = access.OpNE
	case mql.CmpLT:
		op = access.OpLT
	case mql.CmpLE:
		op = access.OpLE
	case mql.CmpGT:
		op = access.OpGT
	case mql.CmpGE:
		op = access.OpGE
	default:
		return nil, 0, nil, false
	}
	if flip {
		switch op {
		case access.OpLT:
			op = access.OpGT
		case access.OpLE:
			op = access.OpGE
		case access.OpGT:
			op = access.OpLT
		case access.OpGE:
			op = access.OpLE
		}
	}
	return ref, op, lit, true
}

// extractRootSSA pulls conjuncts of the form <rootAttr> op <literal> out of
// the WHERE clause — "qualifications 'pushed down' for efficiency reasons".
// Level-0 references (seed qualification of recursive molecules) also
// restrict the root. params holds, by conjunct, the parameter ordinal of its
// value (0 = none).
func (e *Engine) extractRootSSA(where mql.Expr, mol *catalog.MoleculeType, root *catalog.AtomType) (ssa access.SSA, params []int) {
	var walk func(x mql.Expr)
	walk = func(x mql.Expr) {
		switch v := x.(type) {
		case *mql.Binary:
			if v.Op == "AND" {
				walk(v.L)
				walk(v.R)
			}
		case *mql.Compare:
			if ref, op, lit, ok := normalizeCompare(v); ok {
				if attr, ok := e.rootAttr(ref, mol, root, lit.V); ok {
					ssa = append(ssa, access.Cond{Attr: attr, Op: op, Value: lit.V})
					params = append(params, lit.Param)
				}
				return
			}
			// attr = EMPTY pushdown.
			if ref, refIsL := v.L.(*mql.AttrRef); refIsL {
				if _, isEmpty := v.R.(*mql.EmptyLit); isEmpty {
					tgt, err := e.resolveRefTarget(ref, mol)
					if err == nil && tgt.typeName == root.Name && len(tgt.fields) == 0 &&
						(!tgt.hasLevel || tgt.level == 0) {
						switch v.Op {
						case mql.CmpEQ:
							ssa = append(ssa, access.Cond{Attr: tgt.attr, Op: access.OpEmpty})
							params = append(params, 0)
						case mql.CmpNE:
							ssa = append(ssa, access.Cond{Attr: tgt.attr, Op: access.OpNotEmpty})
							params = append(params, 0)
						}
					}
				}
			}
		}
	}
	walk(where)
	return ssa, params
}

// extractComponentSSA pulls counting-existential single-component conjuncts
// on NON-root atom types out of the top-level AND tree: bare comparisons
// (edge.length > 1.0), the explicit EXISTS form, and EXISTS_AT_LEAST (n)
// with its count threshold. All three are monotone in "one more atom
// satisfies the condition", so failing to reach the count on the fully
// observed component set proves the conjunct — and the WHERE — false. Other
// quantifiers (FOR_ALL, EXISTS_EXACTLY, ...) are never pushed: an extra
// satisfying atom can flip them back to false, so pushdown stays
// conservative.
func (e *Engine) extractComponentSSA(where mql.Expr, mol *catalog.MoleculeType, root *catalog.AtomType) []CompCond {
	var out []CompCond
	push := func(ref *mql.AttrRef, op access.Op, lit *mql.Lit, mustType string, min int) {
		val := lit.V
		if val.IsNull() {
			return // IS-NULL semantics stay in the residual predicate
		}
		tgt, err := e.resolveRefTarget(ref, mol)
		if err != nil || tgt.typeName == root.Name || len(tgt.fields) != 0 || tgt.hasLevel {
			return
		}
		if mustType != "" && tgt.typeName != mustType {
			return
		}
		ord, _ := mol.TypeOrdinal(tgt.typeName)
		out = append(out, CompCond{
			TypeName: tgt.typeName,
			SSA:      access.SSA{{Attr: tgt.attr, Op: op, Value: val}},
			Min:      min,
			ord:      ord,
			param:    lit.Param,
		})
	}
	var walk func(x mql.Expr)
	walk = func(x mql.Expr) {
		switch v := x.(type) {
		case *mql.Binary:
			if v.Op == "AND" {
				walk(v.L)
				walk(v.R)
			}
		case *mql.Compare:
			if ref, op, lit, ok := normalizeCompare(v); ok {
				push(ref, op, lit, "", 1)
			}
		case *mql.Quant:
			// EXISTS t: t.attr op literal is the explicit spelling of the
			// implicit existential conjunct; EXISTS_AT_LEAST (n) raises the
			// required count. The condition must be on the quantified type
			// itself.
			min := 1
			switch v.Kind {
			case "EXISTS":
			case "EXISTS_AT_LEAST":
				if v.N < 1 {
					return // trivially true, nothing to prune on
				}
				min = v.N
			default:
				return
			}
			if cmp, ok := v.Cond.(*mql.Compare); ok {
				if ref, op, lit, ok := normalizeCompare(cmp); ok {
					push(ref, op, lit, v.Var, min)
				}
			}
		}
	}
	walk(where)
	return out
}

// rootAttr returns the root attribute ref names when ref op v pushes down as
// a root SSA conjunct: a non-NULL comparison on a plain root attribute.
func (e *Engine) rootAttr(ref *mql.AttrRef, mol *catalog.MoleculeType, root *catalog.AtomType, v atom.Value) (string, bool) {
	if v.IsNull() {
		return "", false // IS-NULL semantics are handled by the evaluator, not SSAs
	}
	tgt, err := e.resolveRefTarget(ref, mol)
	if err != nil || tgt.typeName != root.Name || len(tgt.fields) != 0 || (tgt.hasLevel && tgt.level != 0) {
		return "", false
	}
	return tgt.attr, true
}

// chooseRootAccess picks the cheapest root access: an access path for an
// equality restriction on an indexed root attribute, a range-bounded BTREE
// access path, a multi-attribute GRID box query, or a sort-order scan for
// <, <=, >, >= restrictions, else an atom cluster materializing the
// molecule, else the atom-type scan. This is the molecule-type-specific
// optimization of §3.1 ("aware of access methods, sort orders, partitions
// of atom types, and physical clusters"). The choice depends on the RootSSA's
// attributes, operators and value kinds, never on a value: it records what
// the bounds are folded from, and foldAccess folds them.
func (e *Engine) chooseRootAccess(p *Plan) {
	schema := e.sys.Schema()
	// Equality on the root's IDENTIFIER attribute: the surrogate IS the
	// logical address, so the restriction names its only possible root
	// outright — cheaper than any index. This is what makes checkin-style
	// statements ("MODIFY ... WHERE part_id = @t.seq") O(1) instead of an
	// atom-type scan.
	identAttr := p.Root.Attrs[p.Root.IdentIndex()].Name
	for i, c := range p.RootSSA {
		if c.Op != access.OpEQ || c.Attr != identAttr {
			continue
		}
		if c.Value.K != atom.KindIdent && c.Value.K != atom.KindRef {
			continue
		}
		p.AccessKind = "direct"
		p.accessCond = i
		return
	}
	// Access path on an EQ-restricted root attribute.
	for i, c := range p.RootSSA {
		if c.Op != access.OpEQ {
			continue
		}
		for _, ap := range schema.AccessPathsFor(p.Root.Name) {
			if ap.Method == "BTREE" && ap.Attrs[0] == c.Attr {
				p.AccessKind = "accesspath"
				p.PathName = ap.Name
				p.accessCond = i
				return
			}
		}
	}
	// BTREE access path with start/stop bounds for range conjuncts. The
	// bounds are an inclusive superset (strict operators keep their
	// boundary key); RootSSA re-decides every root exactly.
	for _, ap := range schema.AccessPathsFor(p.Root.Name) {
		if ap.Method != "BTREE" || len(ap.Attrs) != 1 {
			continue
		}
		if _, _, ok := rangeBounds(p.RootSSA, ap.Attrs[0]); ok {
			p.AccessKind = "pathrange"
			p.PathName = ap.Name
			p.accessAttrs = ap.Attrs
			return
		}
	}
	// GRID access path: fold equality and range conjuncts on any subset
	// of the grid's attributes into one inclusive box query — the
	// multi-dimensional counterpart of the BTREE range above ("start/stop
	// conditions ... may be specified individually for every key").
	// Unbounded dimensions stay open; at least one must be bounded or the
	// grid offers nothing over the atom-type scan.
	for _, ap := range schema.AccessPathsFor(p.Root.Name) {
		if ap.Method != "GRID" {
			continue
		}
		if gridRanges(p.RootSSA, ap.Attrs) == nil {
			continue
		}
		p.AccessKind = "gridrange"
		p.PathName = ap.Name
		p.accessAttrs = ap.Attrs
		return
	}
	// Single-attribute ascending sort order with start/stop bounds.
	for _, so := range schema.SortOrdersFor(p.Root.Name) {
		if len(so.Attrs) != 1 || (len(so.Desc) > 0 && so.Desc[0]) {
			continue
		}
		if _, _, ok := rangeBounds(p.RootSSA, so.Attrs[0]); ok {
			p.AccessKind = "sortrange"
			p.SortOrder = so.Name
			p.accessAttrs = so.Attrs
			return
		}
	}
	// Atom cluster whose molecule covers this query's molecule structure.
	for _, cl := range schema.ClustersForRoot(p.Root.Name) {
		if covers(cl.Molecule.Root, p.Mol.Root) {
			p.AccessKind = "cluster"
			p.Cluster = cl.Name
			return
		}
	}
}

// foldAccess folds the access bounds from the RootSSA's values: the direct
// root, the access-path key, the range or grid-box bounds.
func (p *Plan) foldAccess() {
	switch p.AccessKind {
	case "direct":
		p.DirectRoot = p.RootSSA[p.accessCond].Value.A
	case "accesspath":
		p.PathKey = p.RootSSA[p.accessCond].Value
	case "pathrange", "sortrange":
		p.PathStart, p.PathStop, _ = rangeBounds(p.RootSSA, p.accessAttrs[0])
	case "gridrange":
		p.PathRanges = gridRanges(p.RootSSA, p.accessAttrs)
	}
}

// gridRanges folds equality and range conjuncts on the grid's attributes
// into one inclusive box, unbounded dimensions open; nil when no dimension
// is bounded.
func gridRanges(ssa access.SSA, attrs []string) []mdindex.Range {
	ranges := make([]mdindex.Range, len(attrs))
	bounded := 0
	for i, attr := range attrs {
		if eq, ok := eqBound(ssa, attr); ok {
			ranges[i] = mdindex.Range{Start: eq, Stop: eq}
			bounded++
			continue
		}
		if start, stop, ok := rangeBounds(ssa, attr); ok {
			ranges[i] = mdindex.Range{Start: start, Stop: stop}
			bounded++
		}
	}
	if bounded == 0 {
		return nil
	}
	return ranges
}

// eqBound returns the value of an equality conjunct on the attribute, if
// one exists.
func eqBound(ssa access.SSA, attr string) (*atom.Value, bool) {
	for _, c := range ssa {
		if c.Attr == attr && c.Op == access.OpEQ {
			v := c.Value
			return &v, true
		}
	}
	return nil, false
}

// rangeBounds folds the SSA's range conjuncts on one attribute into the
// tightest inclusive [start, stop] interval (nil bounds stay open). found is
// false when no range conjunct mentions the attribute.
func rangeBounds(ssa access.SSA, attr string) (start, stop *atom.Value, found bool) {
	for _, c := range ssa {
		if c.Attr != attr {
			continue
		}
		switch c.Op {
		case access.OpGT, access.OpGE:
			if start == nil || atom.Compare(c.Value, *start) > 0 {
				v := c.Value
				start = &v
			}
			found = true
		case access.OpLT, access.OpLE:
			if stop == nil || atom.Compare(c.Value, *stop) < 0 {
				v := c.Value
				stop = &v
			}
			found = true
		}
	}
	return start, stop, found
}

// covers reports whether the cluster structure c contains the query
// structure q (every edge of q exists in c).
func covers(c, q *catalog.MolNode) bool {
	if c.AtomType != q.AtomType {
		return false
	}
	for _, qc := range q.Children {
		ok := false
		for _, cc := range c.Children {
			if cc.AtomType == qc.AtomType && cc.Via == qc.Via && cc.Recursive == qc.Recursive && covers(cc, qc) {
				ok = true
				break
			}
		}
		if !ok {
			return false
		}
	}
	return true
}
