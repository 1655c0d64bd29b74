package vm

// The paper's per-method feedback dimension has active packets carrying
// "programs such as encoders, compilers and compiler-compilers to be
// mounted on the destination node". This file is that artifact: a small
// compiler from arithmetic/logical expressions over named variables to
// WanderScript programs, so experiments can synthesize node methods at
// runtime and ship them in shuttles.
//
// Grammar (precedence climbing, lowest first):
//
//	expr   := or
//	or     := and   { "||" and }
//	and    := cmp   { "&&" cmp }
//	cmp    := sum   { ("=="|"!="|"<"|">"|"<="|">=") sum }
//	sum    := term  { ("+"|"-") term }
//	term   := unary { ("*"|"/"|"%") unary }
//	unary  := ("-"|"!") unary | atom
//	atom   := integer | variable | "(" expr ")"
//
// Variables bind to VM registers via the supplied mapping; the compiled
// program leaves the expression value on top of the stack and HALTs.

import (
	"fmt"
	"strconv"
	"strings"
)

// CompileError reports a compilation failure with position context.
type CompileError struct {
	Pos int
	Msg string
}

// Error renders the failure.
func (e *CompileError) Error() string {
	return fmt.Sprintf("vm: compile error at %d: %s", e.Pos, e.Msg)
}

type token struct {
	kind string // "num", "ident", or the operator literal
	text string
	pos  int
}

func lex(src string) ([]token, error) {
	var toks []token
	i := 0
	for i < len(src) {
		c := src[i]
		switch {
		case c == ' ' || c == '\t' || c == '\n':
			i++
		case c >= '0' && c <= '9':
			j := i
			for j < len(src) && src[j] >= '0' && src[j] <= '9' {
				j++
			}
			toks = append(toks, token{"num", src[i:j], i})
			i = j
		case isIdentStart(c):
			j := i
			for j < len(src) && isIdentPart(src[j]) {
				j++
			}
			toks = append(toks, token{"ident", src[i:j], i})
			i = j
		default:
			// Two-character operators first.
			if i+1 < len(src) {
				two := src[i : i+2]
				switch two {
				case "==", "!=", "<=", ">=", "&&", "||":
					toks = append(toks, token{two, two, i})
					i += 2
					continue
				}
			}
			switch c {
			case '+', '-', '*', '/', '%', '(', ')', '<', '>', '!':
				toks = append(toks, token{string(c), string(c), i})
				i++
			default:
				return nil, &CompileError{Pos: i, Msg: fmt.Sprintf("unexpected character %q", c)}
			}
		}
	}
	return toks, nil
}

func isIdentStart(c byte) bool {
	return c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
}

func isIdentPart(c byte) bool {
	return isIdentStart(c) || (c >= '0' && c <= '9')
}

type parser struct {
	toks []token
	i    int
	vars map[string]int
	prog Program
}

func (p *parser) peek() (token, bool) {
	if p.i < len(p.toks) {
		return p.toks[p.i], true
	}
	return token{}, false
}

func (p *parser) accept(kinds ...string) (token, bool) {
	t, ok := p.peek()
	if !ok {
		return token{}, false
	}
	for _, k := range kinds {
		if t.kind == k {
			p.i++
			return t, true
		}
	}
	return token{}, false
}

func (p *parser) emit(op Op, arg int64) { p.prog = append(p.prog, Instr{Op: op, Arg: arg}) }

// binary level parses a left-associative operator tier.
func (p *parser) binary(next func() error, ops map[string]Op) error {
	if err := next(); err != nil {
		return err
	}
	for {
		t, ok := p.peek()
		if !ok {
			return nil
		}
		op, match := ops[t.kind]
		if !match {
			return nil
		}
		p.i++
		if err := next(); err != nil {
			return err
		}
		p.emit(op, 0)
		// Synthesized comparisons: <= is !(>), >= is !(<), != is !(==).
		switch t.kind {
		case "<=", ">=", "!=":
			p.emit(NOT, 0)
		}
	}
}

func (p *parser) expr() error {
	return p.binary(p.and, map[string]Op{"||": OR})
}

func (p *parser) and() error {
	return p.binary(p.cmp, map[string]Op{"&&": AND})
}

func (p *parser) cmp() error {
	return p.binary(p.sum, map[string]Op{
		"==": EQ, "!=": EQ, "<": LT, ">": GT, "<=": GT, ">=": LT,
	})
}

func (p *parser) sum() error {
	return p.binary(p.term, map[string]Op{"+": ADD, "-": SUB})
}

func (p *parser) term() error {
	return p.binary(p.unary, map[string]Op{"*": MUL, "/": DIV, "%": MOD})
}

func (p *parser) unary() error {
	if _, ok := p.accept("-"); ok {
		if err := p.unary(); err != nil {
			return err
		}
		p.emit(NEG, 0)
		return nil
	}
	if _, ok := p.accept("!"); ok {
		if err := p.unary(); err != nil {
			return err
		}
		p.emit(NOT, 0)
		return nil
	}
	return p.atom()
}

func (p *parser) atom() error {
	if t, ok := p.accept("num"); ok {
		v, err := strconv.ParseInt(t.text, 10, 64)
		if err != nil {
			return &CompileError{Pos: t.pos, Msg: "bad integer"}
		}
		p.emit(PUSH, v)
		return nil
	}
	if t, ok := p.accept("ident"); ok {
		reg, bound := p.vars[t.text]
		if !bound {
			return &CompileError{Pos: t.pos, Msg: fmt.Sprintf("unbound variable %q", t.text)}
		}
		if reg < 0 || reg >= NumRegisters {
			return &CompileError{Pos: t.pos, Msg: fmt.Sprintf("variable %q bound to bad register %d", t.text, reg)}
		}
		p.emit(LOAD, int64(reg))
		return nil
	}
	if _, ok := p.accept("("); ok {
		if err := p.expr(); err != nil {
			return err
		}
		if _, ok := p.accept(")"); !ok {
			pos := len(p.toks)
			return &CompileError{Pos: pos, Msg: "missing )"}
		}
		return nil
	}
	t, ok := p.peek()
	if !ok {
		return &CompileError{Pos: len(p.toks), Msg: "unexpected end of expression"}
	}
	return &CompileError{Pos: t.pos, Msg: fmt.Sprintf("unexpected %q", t.text)}
}

// Compile translates an expression into a WanderScript program. vars maps
// variable names to the registers holding their values at run time.
func Compile(expr string, vars map[string]int) (Program, error) {
	if strings.TrimSpace(expr) == "" {
		return nil, &CompileError{Pos: 0, Msg: "empty expression"}
	}
	toks, err := lex(expr)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks, vars: vars}
	if err := p.expr(); err != nil {
		return nil, err
	}
	if p.i != len(p.toks) {
		return nil, &CompileError{Pos: p.toks[p.i].pos, Msg: fmt.Sprintf("trailing %q", p.toks[p.i].text)}
	}
	p.emit(HALT, 0)
	return p.prog, nil
}
