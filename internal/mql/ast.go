package mql

import (
	"prima/internal/access/atom"
)

// Stmt is any MQL statement.
type Stmt interface{ stmt() }

// --- DDL ---------------------------------------------------------------------

// CreateAtomType is CREATE ATOM_TYPE name ( attr : type, ... ) KEYS_ARE (...).
type CreateAtomType struct {
	Name  string
	Attrs []AttrDef
	Keys  []string
}

// AttrDef is one attribute declaration.
type AttrDef struct {
	Name string
	Type TypeExpr
}

// TypeExpr is the syntactic form of an attribute type.
type TypeExpr struct {
	Kind     string // INTEGER REAL BOOLEAN CHAR_VAR IDENTIFIER REF_TO SET_OF LIST_OF ARRAY_OF RECORD HULL_DIM
	Elem     *TypeExpr
	Fields   []AttrDef
	ArrayLen int
	RefType  string
	RefAttr  string
	Min      int
	Max      int // -1 = VAR
	HullDim  int
}

// DefineMoleculeType is DEFINE MOLECULE TYPE name FROM molExpr.
type DefineMoleculeType struct {
	Name string
	From *MolComponent
}

// MolComponent is one node of a FROM-clause molecule expression.
type MolComponent struct {
	// Name is an atom type name or a (predefined) molecule type name.
	Name string
	// EdgeAttr optionally qualifies the association used for the edge to
	// this component's (single) child chain, as in solid.sub-solid.
	EdgeAttr string
	// Recursive marks `(RECURSIVE)` on the edge to this component.
	Recursive bool
	Children  []*MolComponent
}

// Drop is DROP ATOM_TYPE x / DROP MOLECULE TYPE x / DROP x (LDL structure).
type Drop struct {
	Kind string // "ATOM_TYPE", "MOLECULE_TYPE", "LDL"
	Name string
}

// --- LDL ---------------------------------------------------------------------

// CreateAccessPath is CREATE ACCESS PATH name ON type (attrs) [USING m].
type CreateAccessPath struct {
	Name     string
	AtomType string
	Attrs    []string
	Using    string
}

// CreateSortOrder is CREATE SORT ORDER name ON type (attr [ASC|DESC],...).
type CreateSortOrder struct {
	Name     string
	AtomType string
	Attrs    []string
	Desc     []bool
}

// CreatePartition is CREATE PARTITION name ON type (attrs).
type CreatePartition struct {
	Name     string
	AtomType string
	Attrs    []string
}

// CreateCluster is CREATE ATOM_CLUSTER name ON molExpr.
type CreateCluster struct {
	Name string
	From *MolComponent
}

// --- DML ---------------------------------------------------------------------

// Select is SELECT items FROM mol [WHERE expr].
type Select struct {
	All   bool
	Items []SelectItem
	From  *MolComponent
	Where Expr
}

// Explain is EXPLAIN [ANALYZE] <select>: render the query's plan without
// executing it, or (ANALYZE) execute it and annotate the plan with actual
// stage timings, atom counts and cache ratios.
type Explain struct {
	Analyze bool
	Query   *Select
}

// SelectItem is one projection item: an attribute name, a type name (whole
// atoms), type.attr, or a qualified projection `type := SELECT ... `.
type SelectItem struct {
	Qualifier string  // optional atom type
	Name      string  // attribute or type name ("" for qualified projection)
	Sub       *Select // qualified projection
}

// Insert is INSERT INTO type (attrs) VALUES (row), (row), ....
type Insert struct {
	AtomType string
	Attrs    []string
	Rows     [][]Expr
}

// Delete is DELETE FROM mol [WHERE expr].
type Delete struct {
	From  *MolComponent
	Where Expr
}

// Modify is MODIFY type SET attr = expr, ... [WHERE expr].
type Modify struct {
	AtomType string
	Set      []Assign
	Where    Expr
}

// Assign is one SET clause element.
type Assign struct {
	Attr  string
	Value Expr
}

// Connect is CONNECT @a TO @b VIA attr.
type Connect struct {
	From Expr
	To   Expr
	Via  string
}

// Disconnect is DISCONNECT @a FROM @b VIA attr.
type Disconnect struct {
	From Expr
	To   Expr
	Via  string
}

// CheckIntegrity is CHECK INTEGRITY [type].
type CheckIntegrity struct {
	AtomType string // "" = all
}

// PropagateDeferred is PROPAGATE DEFERRED.
type PropagateDeferred struct{}

func (*CreateAtomType) stmt()     {}
func (*DefineMoleculeType) stmt() {}
func (*Drop) stmt()               {}
func (*CreateAccessPath) stmt()   {}
func (*CreateSortOrder) stmt()    {}
func (*CreatePartition) stmt()    {}
func (*CreateCluster) stmt()      {}
func (*Select) stmt()             {}
func (*Insert) stmt()             {}
func (*Delete) stmt()             {}
func (*Modify) stmt()             {}
func (*Connect) stmt()            {}
func (*Disconnect) stmt()         {}
func (*CheckIntegrity) stmt()     {}
func (*PropagateDeferred) stmt()  {}
func (*Explain) stmt()            {}

// --- expressions ---------------------------------------------------------------

// Expr is a predicate or value expression.
type Expr interface{ expr() }

// CmpOp is a comparison operator.
type CmpOp uint8

// Comparison operators.
const (
	CmpEQ CmpOp = iota
	CmpNE
	CmpLT
	CmpLE
	CmpGT
	CmpGE
)

func (o CmpOp) String() string {
	switch o {
	case CmpEQ:
		return "="
	case CmpNE:
		return "<>"
	case CmpLT:
		return "<"
	case CmpLE:
		return "<="
	case CmpGT:
		return ">"
	default:
		return ">="
	}
}

// Binary is AND / OR.
type Binary struct {
	Op   string // "AND" | "OR"
	L, R Expr
}

// Not negates a predicate.
type Not struct{ X Expr }

// Compare is <operand> op <operand>.
type Compare struct {
	Op   CmpOp
	L, R Expr
}

// Lit is a literal value (number, string, boolean, NULL, address, or a
// {...} / [...] / (...) constructor). A scalar number, string or address
// literal is a parameter of its statement's shape: Param is its 1-based
// ordinal (see Statement). Keywords and constructors have Param 0.
type Lit struct {
	V     atom.Value
	Param int
}

// EmptyLit is the EMPTY keyword (repeating group emptiness test).
type EmptyLit struct{}

// AttrRef references an attribute: [qualifier.]attr[.field...] with an
// optional recursion level (piece_list(0).solid_no).
type AttrRef struct {
	Parts    []string // e.g. ["edge","length"] or ["solid_no"] or ["point","placement","x_coord"]
	Level    int
	HasLevel bool
}

// Quant is a quantified predicate: EXISTS / FOR_ALL / EXISTS_AT_LEAST(n)
// over the atoms of one component type.
type Quant struct {
	Kind string // "EXISTS", "FOR_ALL", "EXISTS_AT_LEAST", "EXISTS_EXACTLY"
	N    int
	Var  string // component atom type
	Cond Expr
}

func (*Binary) expr()   {}
func (*Not) expr()      {}
func (*Compare) expr()  {}
func (*Lit) expr()      {}
func (*EmptyLit) expr() {}
func (*AttrRef) expr()  {}
func (*Quant) expr()    {}
