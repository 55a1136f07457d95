package mql

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
)

// ErrSyntax wraps all lexical and syntactic errors.
var ErrSyntax = errors.New("mql: syntax error")

// lexer turns MQL source into tokens. Comments run from "--" to end of line
// or are enclosed in (* ... *) as in the paper's examples.
type lexer struct {
	src  string
	pos  int
	line int
	col  int
}

func newLexer(src string) *lexer { return &lexer{src: src, line: 1, col: 1} }

func (l *lexer) errf(format string, args ...interface{}) error {
	return fmt.Errorf("%w: line %d col %d: %s", ErrSyntax, l.line, l.col, fmt.Sprintf(format, args...))
}

func (l *lexer) peekByte() byte {
	if l.pos >= len(l.src) {
		return 0
	}
	return l.src[l.pos]
}

func (l *lexer) nextByte() byte {
	b := l.src[l.pos]
	l.pos++
	if b == '\n' {
		l.line++
		l.col = 1
	} else {
		l.col++
	}
	return b
}

// skipSpace consumes whitespace and comments.
func (l *lexer) skipSpace() error {
	for l.pos < len(l.src) {
		b := l.peekByte()
		switch {
		case b == ' ' || b == '\t' || b == '\n' || b == '\r':
			l.nextByte()
		case b == '-' && l.pos+1 < len(l.src) && l.src[l.pos+1] == '-':
			for l.pos < len(l.src) && l.peekByte() != '\n' {
				l.nextByte()
			}
		case b == '(' && l.pos+1 < len(l.src) && l.src[l.pos+1] == '*':
			l.nextByte()
			l.nextByte()
			for {
				if l.pos+1 >= len(l.src) {
					return l.errf("unterminated comment")
				}
				if l.peekByte() == '*' && l.src[l.pos+1] == ')' {
					l.nextByte()
					l.nextByte()
					break
				}
				l.nextByte()
			}
		default:
			return nil
		}
	}
	return nil
}

func isIdentStart(b byte) bool {
	return b == '_' || (b >= 'a' && b <= 'z') || (b >= 'A' && b <= 'Z')
}

func isIdentPart(b byte) bool {
	return isIdentStart(b) || (b >= '0' && b <= '9')
}

func isDigit(b byte) bool { return b >= '0' && b <= '9' }

// keywordText maps each keyword to itself, so the lexer can name a keyword
// by its canonical string.
var keywordText = func() map[string]string {
	m := make(map[string]string, len(keywords))
	for k := range keywords {
		m[k] = k
	}
	return m
}()

// keyword returns the upper-case spelling of word if it is a keyword in any
// case, without allocating: identifiers are looked up on every statement.
func keyword(word string) (string, bool) {
	var buf [16]byte // longer than any keyword
	if len(word) > len(buf) {
		return "", false
	}
	for i := 0; i < len(word); i++ {
		c := word[i]
		if 'a' <= c && c <= 'z' {
			c -= 'a' - 'A'
		}
		buf[i] = c
	}
	kw, ok := keywordText[string(buf[:len(word)])]
	return kw, ok
}

// next returns the next token.
func (l *lexer) next() (token, error) {
	if err := l.skipSpace(); err != nil {
		return token{}, err
	}
	t := token{line: l.line, col: l.col}
	if l.pos >= len(l.src) {
		t.kind = tokEOF
		return t, nil
	}
	b := l.peekByte()
	switch {
	case isIdentStart(b):
		start := l.pos
		for l.pos < len(l.src) && isIdentPart(l.peekByte()) {
			l.nextByte()
		}
		word := l.src[start:l.pos]
		if kw, ok := keyword(word); ok {
			t.kind = tokKeyword
			t.text = kw
		} else {
			t.kind = tokIdent
			t.text = word
		}
		return t, nil

	case isDigit(b):
		return l.lexNumber()

	case b == '\'':
		l.nextByte()
		var sb strings.Builder
		for {
			if l.pos >= len(l.src) {
				return token{}, l.errf("unterminated string")
			}
			c := l.nextByte()
			if c == '\'' {
				if l.peekByte() == '\'' { // escaped quote
					l.nextByte()
					sb.WriteByte('\'')
					continue
				}
				break
			}
			sb.WriteByte(c)
		}
		t.kind = tokString
		t.text = sb.String()
		return t, nil

	case b == '@':
		// Address literal: @typeid.seq (both decimal).
		l.nextByte()
		start := l.pos
		for l.pos < len(l.src) && isDigit(l.peekByte()) {
			l.nextByte()
		}
		if l.pos == start || l.peekByte() != '.' {
			return token{}, l.errf("bad address literal (want @<type>.<seq>)")
		}
		tid, _ := strconv.ParseInt(l.src[start:l.pos], 10, 64)
		l.nextByte() // '.'
		start = l.pos
		for l.pos < len(l.src) && isDigit(l.peekByte()) {
			l.nextByte()
		}
		if l.pos == start {
			return token{}, l.errf("bad address literal sequence")
		}
		seq, _ := strconv.ParseInt(l.src[start:l.pos], 10, 64)
		t.kind = tokAddr
		t.i = tid<<48 | seq
		return t, nil

	default:
		l.nextByte()
		switch b {
		case '(':
			t.kind = tokLParen
		case ')':
			t.kind = tokRParen
		case '{':
			t.kind = tokLBrace
		case '}':
			t.kind = tokRBrace
		case '[':
			t.kind = tokLBrack
		case ']':
			t.kind = tokRBrack
		case ',':
			t.kind = tokComma
		case ';':
			t.kind = tokSemi
		case '.':
			t.kind = tokDot
		case '-':
			t.kind = tokMinus
		case '*':
			t.kind = tokStar
		case '=':
			t.kind = tokEQ
		case ':':
			if l.peekByte() == '=' {
				l.nextByte()
				t.kind = tokAssign
			} else {
				t.kind = tokColon
			}
		case '<':
			switch l.peekByte() {
			case '>':
				l.nextByte()
				t.kind = tokNE
			case '=':
				l.nextByte()
				t.kind = tokLE
			default:
				t.kind = tokLT
			}
		case '>':
			if l.peekByte() == '=' {
				l.nextByte()
				t.kind = tokGE
			} else {
				t.kind = tokGT
			}
		default:
			return token{}, l.errf("unexpected character %q", string(b))
		}
		return t, nil
	}
}

// lexNumber scans integer and real literals (1713, 1.9E4, 1.0E-2).
func (l *lexer) lexNumber() (token, error) {
	t := token{line: l.line, col: l.col}
	start := l.pos
	for l.pos < len(l.src) && isDigit(l.peekByte()) {
		l.nextByte()
	}
	isReal := false
	if l.peekByte() == '.' && l.pos+1 < len(l.src) && isDigit(l.src[l.pos+1]) {
		isReal = true
		l.nextByte()
		for l.pos < len(l.src) && isDigit(l.peekByte()) {
			l.nextByte()
		}
	}
	if b := l.peekByte(); b == 'e' || b == 'E' {
		// Exponent (only if followed by digits or sign+digits).
		save := l.pos
		l.nextByte()
		if l.peekByte() == '+' || l.peekByte() == '-' {
			l.nextByte()
		}
		if isDigit(l.peekByte()) {
			isReal = true
			for l.pos < len(l.src) && isDigit(l.peekByte()) {
				l.nextByte()
			}
		} else {
			l.pos = save
		}
	}
	text := l.src[start:l.pos]
	if isReal {
		f, err := strconv.ParseFloat(text, 64)
		if err != nil {
			return token{}, l.errf("bad real literal %q", text)
		}
		t.kind = tokReal
		t.f = f
	} else {
		i, err := strconv.ParseInt(text, 10, 64)
		if err != nil {
			return token{}, l.errf("bad integer literal %q", text)
		}
		t.kind = tokInt
		t.i = i
	}
	return t, nil
}

// maxStatementTokens bounds the length of one statement of a script, in
// tokens. Statements arrive from wire clients: a 16 MiB `a = 1 AND a = 1 AND
// ...` would otherwise be lexed, parsed and walked by every later pass for
// seconds before anything could refuse it. The unit is tokens, not bytes, so
// a statement carrying a large CHAR_VAR literal is not affected; what the
// workstation clients and load generators send stays four orders of
// magnitude below it.
const maxStatementTokens = 1 << 18

// lexAll tokenizes the whole input (parser convenience), numbering the
// scalar literals of each statement and refusing a statement of more than
// maxStatementTokens tokens as soon as it has seen that many.
func lexAll(src string) ([]token, error) {
	l := newLexer(src)
	out := make([]token, 0, min(len(src)/4+4, 1024))
	inStatement, literals := 0, 0
	for {
		t, err := l.next()
		if err != nil {
			return nil, err
		}
		switch t.kind {
		case tokInt, tokReal, tokString, tokAddr:
			literals++
			t.param = literals
		}
		out = append(out, t)
		switch t.kind {
		case tokEOF:
			return out, nil
		case tokSemi:
			inStatement, literals = 0, 0
		default:
			if inStatement++; inStatement > maxStatementTokens {
				return nil, fmt.Errorf("%w: line %d col %d: statement longer than %d tokens", ErrSyntax, t.line, t.col, maxStatementTokens)
			}
		}
	}
}
