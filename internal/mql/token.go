// Package mql implements the Molecule Query Language (§2.2, Table 2.1): an
// SQL-like language whose FROM clause names dynamically defined molecule
// types, with quantified predicates, qualified projections, recursion, full
// DML, the MAD data definition language of Fig. 2.3, and the load definition
// language (LDL) of §2.3.
package mql

import "fmt"

// tokKind enumerates lexical token kinds.
type tokKind uint8

const (
	tokEOF tokKind = iota
	tokIdent
	tokKeyword
	tokInt
	tokReal
	tokString
	tokAddr   // @type.seq literal
	tokLParen // (
	tokRParen // )
	tokLBrace // {
	tokRBrace // }
	tokLBrack // [
	tokRBrack // ]
	tokComma
	tokSemi
	tokColon
	tokDot
	tokMinus
	tokAssign // :=
	tokEQ     // =
	tokNE     // <>
	tokLT
	tokLE
	tokGT
	tokGE
	tokStar // *
)

func (k tokKind) String() string {
	switch k {
	case tokEOF:
		return "end of input"
	case tokIdent:
		return "identifier"
	case tokKeyword:
		return "keyword"
	case tokInt:
		return "integer"
	case tokReal:
		return "real"
	case tokString:
		return "string"
	case tokAddr:
		return "address literal"
	case tokLParen:
		return "'('"
	case tokRParen:
		return "')'"
	case tokLBrace:
		return "'{'"
	case tokRBrace:
		return "'}'"
	case tokLBrack:
		return "'['"
	case tokRBrack:
		return "']'"
	case tokComma:
		return "','"
	case tokSemi:
		return "';'"
	case tokColon:
		return "':'"
	case tokDot:
		return "'.'"
	case tokMinus:
		return "'-'"
	case tokAssign:
		return "':='"
	case tokEQ:
		return "'='"
	case tokNE:
		return "'<>'"
	case tokLT:
		return "'<'"
	case tokLE:
		return "'<='"
	case tokGT:
		return "'>'"
	case tokGE:
		return "'>='"
	case tokStar:
		return "'*'"
	default:
		return fmt.Sprintf("token(%d)", uint8(k))
	}
}

// token is one lexical unit.
type token struct {
	kind tokKind
	text string // identifier / keyword (upper-cased) / literal text
	i    int64
	f    float64
	line int
	col  int
	// param is the 1-based ordinal of a scalar literal (integer, real,
	// string, address) among the literals of its statement; 0 for every
	// other token. See Statement.
	param int
}

// keywords of MQL (normalized upper-case).
var keywords = map[string]bool{
	"SELECT": true, "ALL": true, "FROM": true, "WHERE": true,
	"AND": true, "OR": true, "NOT": true,
	"EXISTS": true, "EXISTS_AT_LEAST": true, "EXISTS_EXACTLY": true, "FOR_ALL": true,
	"EMPTY": true, "NULL": true, "TRUE": true, "FALSE": true,
	"INSERT": true, "INTO": true, "VALUES": true,
	"DELETE": true, "MODIFY": true, "SET": true,
	"CONNECT": true, "DISCONNECT": true, "TO": true, "VIA": true,
	"CREATE": true, "DROP": true, "DEFINE": true,
	"ATOM_TYPE": true, "MOLECULE": true, "TYPE": true, "KEYS_ARE": true, "RECURSIVE": true,
	"INTEGER": true, "REAL": true, "BOOLEAN": true, "CHAR_VAR": true, "IDENTIFIER": true,
	"REF_TO": true, "SET_OF": true, "LIST_OF": true, "ARRAY_OF": true,
	"RECORD": true, "END": true, "VAR": true, "HULL_DIM": true,
	"ACCESS": true, "PATH": true, "SORT": true, "ORDER": true,
	"PARTITION": true, "ATOM_CLUSTER": true, "ON": true, "USING": true,
	"BTREE": true, "GRID": true, "ASC": true, "DESC": true,
	"CHECK": true, "INTEGRITY": true, "PROPAGATE": true, "DEFERRED": true,
	"EXPLAIN": true, "ANALYZE": true,
}
