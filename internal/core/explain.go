package core

import (
	"fmt"
	"strings"
	"time"

	"prima/internal/access"
	"prima/internal/access/atom"
	"prima/internal/catalog"
	"prima/internal/mql"
	"prima/internal/obs"
)

// EXPLAIN [ANALYZE]: render a SELECT's prepared plan as an indented tree —
// the chosen root access with its bounds, the pushed-down conjuncts per
// component, the residual predicate, whether the statement is
// plan-cacheable, and its shape and bound parameter values. ANALYZE
// additionally executes the query under a forced trace and annotates the
// output with actual per-stage timings (parse/plan/assemble/decode), atom and
// molecule counts, and the cache hit ratio of the run.

// explain renders the plan of an EXPLAIN with the shape and parameters of
// st, the statement it was bound for, and under ANALYZE runs it.
func (e *Engine) explain(plan *Plan, analyze bool, st *mql.Statement, planNs int64, ctx execCtx) (*Result, error) {
	var b strings.Builder
	renderPlan(&b, plan)
	fmt.Fprintf(&b, "  shape: %s\n", mql.ShapeText(st.Shape))
	if len(st.Params) > 0 {
		b.WriteString("  params:")
		for i, v := range st.Params {
			fmt.Fprintf(&b, " $%d=%s", i+1, v)
		}
		b.WriteByte('\n')
	}
	if !analyze {
		return &Result{Kind: "explain", Message: strings.TrimRight(b.String(), "\n")}, nil
	}

	// ANALYZE: run the query under a forced trace — tracing knobs may all be
	// off; the span tree is needed for exactly this execution. The analyzed
	// run shares the enclosing request's epoch, so EXPLAIN ANALYZE inside a
	// transaction sees the transaction's snapshot.
	tr := e.sys.Tracer().BeginForced("explain-analyze")
	wallStart := time.Now()
	res, runErr := e.runSelect(plan, execCtx{epoch: ctx.epoch, tr: tr})
	wall := time.Since(wallStart)
	snap := tr.Finish()
	if runErr != nil {
		return nil, runErr
	}
	renderAnalyze(&b, snap, ctx.parseNs, planNs, wall, res)
	return &Result{
		Kind:    "explain",
		Count:   res.Count,
		Message: strings.TrimRight(b.String(), "\n"),
	}, nil
}

// renderPlan writes the static plan tree.
func renderPlan(b *strings.Builder, p *Plan) {
	molName := p.Mol.Name
	if molName == "" {
		molName = p.Root.Name
	}
	fmt.Fprintf(b, "plan: molecule %s (max depth %d)\n", molName, p.MaxDepth)

	// Root access line with the kind-specific facts.
	fmt.Fprintf(b, "  root access: %s", p.AccessKind)
	switch p.AccessKind {
	case "direct":
		fmt.Fprintf(b, " (%v)", p.DirectRoot)
	case "accesspath":
		fmt.Fprintf(b, " %s key=%s", p.PathName, p.PathKey)
	case "pathrange":
		fmt.Fprintf(b, " %s range=%s", p.PathName, boundsString(p.PathStart, p.PathStop))
	case "gridrange":
		fmt.Fprintf(b, " %s box=", p.PathName)
		for i, r := range p.PathRanges {
			if i > 0 {
				b.WriteByte('x')
			}
			b.WriteString(boundsString(r.Start, r.Stop))
		}
	case "sortrange":
		fmt.Fprintf(b, " %s range=%s", p.SortOrder, boundsString(p.PathStart, p.PathStop))
	case "cluster":
		fmt.Fprintf(b, " %s", p.Cluster)
	}
	b.WriteByte('\n')
	if len(p.RootSSA) > 0 {
		fmt.Fprintf(b, "  root ssa: %s\n", ssaString(p.RootSSA))
	}

	// Component tree with pushed conjuncts attached to their types.
	pushed := map[string][]CompCond{}
	for _, cc := range p.CompSSA {
		pushed[cc.TypeName] = append(pushed[cc.TypeName], cc)
	}
	renderNode(b, p.Mol.Root, pushed, 1)

	if p.Where != nil {
		fmt.Fprintf(b, "  residual predicate: %s\n", exprString(p.Where, p.params))
	}
	if p.Project != nil && !p.Project.all {
		fmt.Fprintf(b, "  projection: %d item(s)\n", len(p.Project.perType))
	}
	b.WriteString("  cacheable: yes (plan cache, keyed by shape, schema version and recursion bound)\n")
}

func renderNode(b *strings.Builder, n *catalog.MolNode, pushed map[string][]CompCond, depth int) {
	indent := strings.Repeat("  ", depth)
	label := n.AtomType
	if n.Via != "" {
		label = fmt.Sprintf("%s via %s", n.AtomType, n.Via)
	}
	if n.Recursive {
		label += " (recursive)"
	}
	fmt.Fprintf(b, "%scomponent %s", indent, label)
	if ccs := pushed[n.AtomType]; len(ccs) > 0 {
		parts := make([]string, len(ccs))
		for i, cc := range ccs {
			if cc.Min > 1 {
				parts[i] = fmt.Sprintf("at least %d: %s", cc.Min, ssaString(cc.SSA))
			} else {
				parts[i] = ssaString(cc.SSA)
			}
		}
		fmt.Fprintf(b, " [pushed: %s]", strings.Join(parts, "; "))
	}
	b.WriteByte('\n')
	for _, c := range n.Children {
		renderNode(b, c, pushed, depth+1)
	}
}

// renderAnalyze appends the actual-execution section.
func renderAnalyze(b *strings.Builder, snap *obs.TraceSnapshot, parseNs, planNs int64, wall time.Duration, res *Result) {
	b.WriteString("analyze:\n")
	if snap != nil {
		fmt.Fprintf(b, "  trace: %s\n", snap.ID)
	}
	fmt.Fprintf(b, "  parse:    %s\n", time.Duration(parseNs))
	fmt.Fprintf(b, "  plan:     %s\n", time.Duration(planNs))
	asm := snap.Find("assemble")
	var asmNs, decodeNs, decoded, pages, hits, misses int64
	if asm != nil {
		asmNs = asm.DurationNs
		decodeNs = asm.Counters["decode_ns"]
		decoded = asm.Counters["atoms_decoded"]
		pages = asm.Counters["pages_pinned"]
		hits = asm.Counters["cache_hits"]
		misses = asm.Counters["cache_misses"]
	}
	var atoms int64
	for _, m := range res.Molecules {
		atoms += int64(m.Size())
	}
	fmt.Fprintf(b, "  assemble: %s  molecules=%d atoms=%d\n", time.Duration(asmNs), res.Count, atoms)
	ratio := "n/a"
	if hits+misses > 0 {
		ratio = fmt.Sprintf("%.1f%%", 100*float64(hits)/float64(hits+misses))
	}
	fmt.Fprintf(b, "  decode:   %s  atoms_decoded=%d pages_pinned=%d cache_hits=%d cache_misses=%d hit_ratio=%s\n",
		time.Duration(decodeNs), decoded, pages, hits, misses, ratio)
	fmt.Fprintf(b, "  total:    %s (stages: %s)\n", wall, time.Duration(parseNs+planNs+asmNs))
}

// ssaString renders a simple search argument as MQL-ish text.
func ssaString(ssa access.SSA) string {
	parts := make([]string, len(ssa))
	for i, c := range ssa {
		parts[i] = fmt.Sprintf("%s %s %s", c.Attr, opString(c.Op), condValueString(c))
	}
	return strings.Join(parts, " AND ")
}

func condValueString(c access.Cond) string {
	switch c.Op {
	case access.OpEmpty, access.OpNotEmpty:
		return "EMPTY"
	}
	return c.Value.String()
}

func opString(op access.Op) string {
	switch op {
	case access.OpEQ:
		return "="
	case access.OpNE:
		return "<>"
	case access.OpLT:
		return "<"
	case access.OpLE:
		return "<="
	case access.OpGT:
		return ">"
	case access.OpGE:
		return ">="
	case access.OpEmpty:
		return "="
	case access.OpNotEmpty:
		return "<>"
	}
	return "?"
}

// boundsString renders an inclusive [start, stop] range with open ends.
func boundsString(start, stop *atom.Value) string {
	lo, hi := "-inf", "+inf"
	if start != nil {
		lo = start.String()
	}
	if stop != nil {
		hi = stop.String()
	}
	return fmt.Sprintf("[%s, %s]", lo, hi)
}

// exprString renders an MQL predicate back to source-like text, its
// parameters bound to params (nil: the literals of the tree).
func exprString(e mql.Expr, params []atom.Value) string {
	switch x := e.(type) {
	case *mql.Binary:
		return fmt.Sprintf("(%s %s %s)", exprString(x.L, params), x.Op, exprString(x.R, params))
	case *mql.Not:
		return "NOT " + exprString(x.X, params)
	case *mql.Compare:
		return fmt.Sprintf("%s %s %s", exprString(x.L, params), x.Op, exprString(x.R, params))
	case *mql.Lit:
		if x.Param > 0 && params != nil {
			return params[x.Param-1].String()
		}
		return x.V.String()
	case *mql.EmptyLit:
		return "EMPTY"
	case *mql.AttrRef:
		s := strings.Join(x.Parts, ".")
		if x.HasLevel {
			if i := strings.IndexByte(s, '.'); i >= 0 {
				return fmt.Sprintf("%s(%d)%s", s[:i], x.Level, s[i:])
			}
			return fmt.Sprintf("%s(%d)", s, x.Level)
		}
		return s
	case *mql.Quant:
		switch x.Kind {
		case "EXISTS_AT_LEAST", "EXISTS_EXACTLY":
			return fmt.Sprintf("%s (%d) %s (%s)", x.Kind, x.N, x.Var, exprString(x.Cond, params))
		}
		return fmt.Sprintf("%s %s (%s)", x.Kind, x.Var, exprString(x.Cond, params))
	default:
		return fmt.Sprintf("%T", e)
	}
}
