package mql

import (
	"errors"
	"strings"
	"testing"
	"time"
)

// overlongStatement is one statement of just over maxStatementTokens tokens.
func overlongStatement() string {
	return "SELECT ALL FROM x WHERE " + strings.Repeat("a=1 AND ", maxStatementTokens/4) + "a=1"
}

// FuzzParse feeds arbitrary bytes to the parser: MQL text arrives from wire
// clients, so Parse must return statements or an ErrSyntax error — never
// panic, never hang. What parses is pushed through the lowering the engine
// applies to a parsed statement before touching the schema (LowerAtomType,
// LitValue), which must hold to the same rule. The seed corpus under
// testdata/fuzz/FuzzParse holds the Fig. 2.3 DDL, the Table 2.1 queries, the
// DML and LDL statements of mql_test.go, and hostile inputs — among them the
// deep nestings that overflowed the stack before the parser bounded its
// recursion (maxNesting); a statement just over the token budget
// (maxStatementTokens) is seeded below, being too long for a file; CI runs
// the target for 20 s:
//
//	go test ./internal/mql -run '^$' -fuzz FuzzParse -fuzztime 20s
func FuzzParse(f *testing.F) {
	f.Add([]byte(overlongStatement()))
	f.Fuzz(func(t *testing.T, src []byte) {
		start := time.Now()
		stmts, err := Parse(string(src))
		if d := time.Since(start); d > 5*time.Second {
			t.Fatalf("parsing %d bytes took %v", len(src), d)
		}
		if err != nil {
			if !errors.Is(err, ErrSyntax) {
				t.Fatalf("error is not a syntax error: %v", err)
			}
			return
		}
		for _, s := range stmts {
			switch v := s.(type) {
			case nil:
				t.Fatal("Parse returned a nil statement without an error")
			case *CreateAtomType:
				_, _ = LowerAtomType(v) // may reject the type, must not panic
			case *Insert:
				for _, row := range v.Rows {
					if len(row) != len(v.Attrs) {
						t.Fatalf("INSERT row of %d values for %d attributes", len(row), len(v.Attrs))
					}
					for _, e := range row {
						_, _ = LitValue(e)
					}
				}
			case *Modify:
				for _, as := range v.Set {
					_, _ = LitValue(as.Value)
				}
			}
		}
	})
}
