package loopir

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"unicode"

	"repro/internal/expr"
)

// This file implements a small text format for loop nests, so that the
// command-line tools can characterize user-written programs without Go
// code. The format mirrors the paper's presentation:
//
//	nest twoindex
//	array A[NI, NJ]
//	array T[TI, TN]
//
//	for iT = ceil(NI/TI) {
//	  for nT = ceil(NN/TN) {
//	    for iI = TI { for nI = TN {
//	      S5: T[iI, nI] = 0
//	    } }
//	    for jT = ceil(NJ/TJ) {
//	      for iI = TI { for nI = TN { for jI = TJ {
//	        S7: T[iI, nI] += A[iT*TI + iI, jT*TJ + jI] * C2[nT*TN + nI, jT*TJ + jI]
//	      } } }
//	    }
//	  }
//	}
//
// Loops declare their trip count after '='; statements are either
// `LABEL: ref = 0` (initialization) or `LABEL: ref += ref * ref ...`
// (multiply-accumulate). Subscripts are sums of `index` or `index*Stride`
// terms; `T[]` is a scalar. '#' starts a comment. Trip counts and strides
// are expressions over integers and symbols with * / + - and ceil(x/y).

// Parse builds a Nest from the textual form.
func Parse(src string) (*Nest, error) {
	p := &parser{toks: lex(src)}
	return p.parseNest()
}

// Unparse renders a nest in the textual form accepted by Parse. A nest is
// immutable once built, so its text is rendered on the first call and every
// later call returns the same string.
func Unparse(n *Nest) string {
	n.sourceOnce.Do(func() { n.source = unparse(n) })
	return n.source
}

// unparse renders n's source into one builder: the nest name with every
// character outside [A-Za-z0-9_] replaced by '_', the arrays sorted by
// name, then the loop tree, each level indented by two spaces.
func unparse(n *Nest) string {
	var b strings.Builder
	b.Grow(512)
	b.WriteString("nest ")
	for _, r := range n.Name {
		if unicode.IsLetter(r) || unicode.IsDigit(r) || r == '_' {
			b.WriteRune(r)
		} else {
			b.WriteByte('_')
		}
	}
	b.WriteByte('\n')
	names := make([]string, 0, len(n.Arrays))
	for name := range n.Arrays {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		b.WriteString("array ")
		b.WriteString(name)
		b.WriteByte('[')
		for i, d := range n.Arrays[name].Dims {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(d.String())
		}
		b.WriteString("]\n")
	}
	unparseNodes(&b, n.Root, 0)
	return b.String()
}

func unparseNodes(b *strings.Builder, nodes []Node, depth int) {
	indent := func() {
		for i := 0; i < depth; i++ {
			b.WriteString("  ")
		}
	}
	for _, nd := range nodes {
		switch v := nd.(type) {
		case *Loop:
			indent()
			b.WriteString("for ")
			b.WriteString(v.Index)
			b.WriteString(" = ")
			b.WriteString(v.Trip.String())
			b.WriteString(" {\n")
			unparseNodes(b, v.Body, depth+1)
			indent()
			b.WriteString("}\n")
		case *Stmt:
			indent()
			b.WriteString(v.Label)
			b.WriteString(": ")
			unparseStmt(b, v)
			b.WriteByte('\n')
		}
	}
}

// unparseStmt renders a statement's body: the last non-read reference is
// the target, written "target = 0" without reads and "target += r1 * r2"
// with them.
func unparseStmt(b *strings.Builder, s *Stmt) {
	target := -1
	reads := 0
	for i := range s.Refs {
		if s.Refs[i].Mode == Read {
			reads++
		} else {
			target = i
		}
	}
	if target >= 0 {
		unparseRef(b, &s.Refs[target])
		if reads == 0 {
			b.WriteString(" = 0")
			return
		}
		b.WriteString(" += ")
	}
	// Read-only statements are representable but unusual; they render as
	// the bare product of their reads.
	first := true
	for i := range s.Refs {
		if s.Refs[i].Mode != Read {
			continue
		}
		if !first {
			b.WriteString(" * ")
		}
		first = false
		unparseRef(b, &s.Refs[i])
	}
}

func unparseRef(b *strings.Builder, r *Ref) {
	b.WriteString(r.Array)
	b.WriteByte('[')
	for i, sub := range r.Subs {
		if i > 0 {
			b.WriteString(", ")
		}
		for j, t := range sub.Terms {
			if j > 0 {
				b.WriteString(" + ")
			}
			b.WriteString(t.Index)
			if t.Stride != nil {
				b.WriteByte('*')
				b.WriteString(t.Stride.String())
			}
		}
	}
	b.WriteByte(']')
}

// --- lexer ---

type tokKind int

const (
	tokIdent tokKind = iota
	tokNumber
	tokPunct // one of [ ] { } ( ) , : = + - * / and "+="
	tokEOF
)

type token struct {
	kind tokKind
	text string
	line int
}

func lex(src string) []token {
	// The kernels' canonical sources run 2.3 to 3.5 bytes per token, so
	// half the length holds every token without growing the slice.
	toks := make([]token, 0, len(src)/2+1)
	line := 1
	i := 0
	for i < len(src) {
		c := src[i]
		switch {
		case c == '\n':
			line++
			i++
		case c == ' ' || c == '\t' || c == '\r':
			i++
		case c == '#':
			for i < len(src) && src[i] != '\n' {
				i++
			}
		case c == '+' && i+1 < len(src) && src[i+1] == '=':
			toks = append(toks, token{tokPunct, "+=", line})
			i += 2
		case strings.IndexByte("[]{}(),:=+-*/", c) >= 0:
			toks = append(toks, token{tokPunct, src[i : i+1], line})
			i++
		case unicode.IsLetter(rune(c)) || c == '_':
			j := i
			for j < len(src) && (unicode.IsLetter(rune(src[j])) || unicode.IsDigit(rune(src[j])) || src[j] == '_') {
				j++
			}
			toks = append(toks, token{tokIdent, src[i:j], line})
			i = j
		case unicode.IsDigit(rune(c)):
			j := i
			for j < len(src) && unicode.IsDigit(rune(src[j])) {
				j++
			}
			toks = append(toks, token{tokNumber, src[i:j], line})
			i = j
		default:
			toks = append(toks, token{tokPunct, string(c), line})
			i++
		}
	}
	toks = append(toks, token{tokEOF, "", line})
	return toks
}

// --- parser ---

type parser struct {
	toks []token
	pos  int
}

func (p *parser) peek() token { return p.toks[p.pos] }
func (p *parser) next() token { t := p.toks[p.pos]; p.pos++; return t }
func (p *parser) errf(format string, args ...interface{}) error {
	return fmt.Errorf("loopir: line %d: %s", p.peek().line, fmt.Sprintf(format, args...))
}

func (p *parser) expect(text string) error {
	t := p.next()
	if t.text != text {
		return fmt.Errorf("loopir: line %d: expected %q, got %q", t.line, text, t.text)
	}
	return nil
}

func (p *parser) parseNest() (*Nest, error) {
	if err := p.expect("nest"); err != nil {
		return nil, err
	}
	nameTok := p.next()
	if nameTok.kind != tokIdent {
		return nil, fmt.Errorf("loopir: line %d: nest name expected", nameTok.line)
	}
	var arrays []*Array
	for p.peek().text == "array" {
		p.next()
		a, err := p.parseArray()
		if err != nil {
			return nil, err
		}
		arrays = append(arrays, a)
	}
	var root []Node
	for p.peek().kind != tokEOF {
		nd, err := p.parseNode()
		if err != nil {
			return nil, err
		}
		root = append(root, nd)
	}
	return NewNest(nameTok.text, arrays, root)
}

func (p *parser) parseArray() (*Array, error) {
	nameTok := p.next()
	if nameTok.kind != tokIdent {
		return nil, fmt.Errorf("loopir: line %d: array name expected", nameTok.line)
	}
	if err := p.expect("["); err != nil {
		return nil, err
	}
	var dims []*expr.Expr
	for {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		dims = append(dims, e)
		t := p.next()
		if t.text == "]" {
			break
		}
		if t.text != "," {
			return nil, fmt.Errorf("loopir: line %d: expected , or ] in array dims", t.line)
		}
	}
	return &Array{Name: nameTok.text, Dims: dims}, nil
}

func (p *parser) parseNode() (Node, error) {
	t := p.peek()
	if t.text == "for" {
		return p.parseFor()
	}
	if t.kind == tokIdent {
		return p.parseStmt()
	}
	return nil, p.errf("expected 'for' or a statement label, got %q", t.text)
}

func (p *parser) parseFor() (Node, error) {
	p.next() // for
	idx := p.next()
	if idx.kind != tokIdent {
		return nil, fmt.Errorf("loopir: line %d: loop index expected", idx.line)
	}
	if err := p.expect("="); err != nil {
		return nil, err
	}
	trip, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if err := p.expect("{"); err != nil {
		return nil, err
	}
	var body []Node
	for p.peek().text != "}" {
		if p.peek().kind == tokEOF {
			return nil, p.errf("unterminated loop body for %s", idx.text)
		}
		nd, err := p.parseNode()
		if err != nil {
			return nil, err
		}
		body = append(body, nd)
	}
	p.next() // }
	return &Loop{Index: idx.text, Trip: trip, Body: body}, nil
}

func (p *parser) parseStmt() (Node, error) {
	label := p.next()
	if err := p.expect(":"); err != nil {
		return nil, err
	}
	target, err := p.parseRef()
	if err != nil {
		return nil, err
	}
	op := p.next()
	st := &Stmt{Label: label.text}
	switch op.text {
	case "=":
		// `ref = 0` initialization
		z := p.next()
		if z.text != "0" {
			return nil, fmt.Errorf("loopir: line %d: only '= 0' initialization is supported", z.line)
		}
		target.Mode = Write
		st.Refs = []Ref{*target}
	case "+=":
		var reads []Ref
		for {
			r, err := p.parseRef()
			if err != nil {
				return nil, err
			}
			r.Mode = Read
			reads = append(reads, *r)
			if p.peek().text != "*" {
				break
			}
			p.next()
		}
		target.Mode = Update
		st.Refs = append(reads, *target)
		st.Flops = 2
	default:
		return nil, fmt.Errorf("loopir: line %d: expected = or += after reference", op.line)
	}
	return st, nil
}

func (p *parser) parseRef() (*Ref, error) {
	nameTok := p.next()
	if nameTok.kind != tokIdent {
		return nil, fmt.Errorf("loopir: line %d: array name expected", nameTok.line)
	}
	if err := p.expect("["); err != nil {
		return nil, err
	}
	ref := &Ref{Array: nameTok.text}
	if p.peek().text == "]" {
		p.next()
		ref.Subs = []Subscript{ConstIdx()}
		return ref, nil
	}
	for {
		sub, err := p.parseSubscript()
		if err != nil {
			return nil, err
		}
		ref.Subs = append(ref.Subs, sub)
		t := p.next()
		if t.text == "]" {
			break
		}
		if t.text != "," {
			return nil, fmt.Errorf("loopir: line %d: expected , or ] in subscripts", t.line)
		}
	}
	return ref, nil
}

// parseSubscript parses `idx` or `idx*stride` joined by '+'.
func (p *parser) parseSubscript() (Subscript, error) {
	var sub Subscript
	for {
		idTok := p.next()
		if idTok.kind != tokIdent {
			return sub, fmt.Errorf("loopir: line %d: subscript index expected, got %q", idTok.line, idTok.text)
		}
		term := Term{Index: idTok.text}
		if p.peek().text == "*" {
			p.next()
			stride, err := p.parseAtom()
			if err != nil {
				return sub, err
			}
			term.Stride = stride
		}
		sub.Terms = append(sub.Terms, term)
		if p.peek().text != "+" {
			return sub, nil
		}
		p.next()
	}
}

// --- expression grammar: sum -> product (('+'|'-') product)* ;
// product -> atom (('*'|'/') atom)* ; atom -> number | ident | ceil(e/e) |
// floor(e/e) | '(' sum ')'.

func (p *parser) parseExpr() (*expr.Expr, error) { return p.parseSum() }

func (p *parser) parseSum() (*expr.Expr, error) {
	left, err := p.parseProduct()
	if err != nil {
		return nil, err
	}
	for {
		switch p.peek().text {
		case "+":
			p.next()
			right, err := p.parseProduct()
			if err != nil {
				return nil, err
			}
			left = expr.Add(left, right)
		case "-":
			p.next()
			right, err := p.parseProduct()
			if err != nil {
				return nil, err
			}
			left = expr.Sub(left, right)
		default:
			return left, nil
		}
	}
}

// parseSumStopDiv parses a sum whose products do not consume '/': the
// numerator of ceil(x/y) and floor(x/y), whose dividing slash belongs to
// the enclosing construct.
func (p *parser) parseSumStopDiv() (*expr.Expr, error) {
	left, err := p.parseProductStopDiv()
	if err != nil {
		return nil, err
	}
	for {
		switch p.peek().text {
		case "+":
			p.next()
			right, err := p.parseProductStopDiv()
			if err != nil {
				return nil, err
			}
			left = expr.Add(left, right)
		case "-":
			p.next()
			right, err := p.parseProductStopDiv()
			if err != nil {
				return nil, err
			}
			left = expr.Sub(left, right)
		default:
			return left, nil
		}
	}
}

func (p *parser) parseProductStopDiv() (*expr.Expr, error) {
	left, err := p.parseAtom()
	if err != nil {
		return nil, err
	}
	for p.peek().text == "*" {
		p.next()
		right, err := p.parseAtom()
		if err != nil {
			return nil, err
		}
		left = expr.Mul(left, right)
	}
	return left, nil
}

func (p *parser) parseProduct() (*expr.Expr, error) {
	left, err := p.parseAtom()
	if err != nil {
		return nil, err
	}
	for {
		switch p.peek().text {
		case "*":
			p.next()
			right, err := p.parseAtom()
			if err != nil {
				return nil, err
			}
			left = expr.Mul(left, right)
		case "/":
			p.next()
			right, err := p.parseAtom()
			if err != nil {
				return nil, err
			}
			left = expr.Div(left, right)
		default:
			return left, nil
		}
	}
}

func (p *parser) parseAtom() (*expr.Expr, error) {
	t := p.next()
	switch {
	case t.text == "-":
		a, err := p.parseAtom()
		if err != nil {
			return nil, err
		}
		return expr.Mul(expr.Const(-1), a), nil
	case t.kind == tokNumber:
		v, err := strconv.ParseInt(t.text, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("loopir: line %d: bad number %q", t.line, t.text)
		}
		return expr.Const(v), nil
	case t.text == "ceil" || t.text == "floor":
		if err := p.expect("("); err != nil {
			return nil, err
		}
		a, err := p.parseSumStopDiv()
		if err != nil {
			return nil, err
		}
		if err := p.expect("/"); err != nil {
			return nil, err
		}
		b, err := p.parseSum()
		if err != nil {
			return nil, err
		}
		if err := p.expect(")"); err != nil {
			return nil, err
		}
		if t.text == "ceil" {
			return expr.CeilDiv(a, b), nil
		}
		return expr.Div(a, b), nil
	case t.kind == tokIdent:
		return expr.Var(t.text), nil
	case t.text == "(":
		e, err := p.parseSum()
		if err != nil {
			return nil, err
		}
		if err := p.expect(")"); err != nil {
			return nil, err
		}
		return e, nil
	}
	return nil, fmt.Errorf("loopir: line %d: unexpected token %q in expression", t.line, t.text)
}
