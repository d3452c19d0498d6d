package expr

import (
	"fmt"
	"math"
	"sort"
)

// Compilation of expressions into flat op-slice programs.
//
// The tree-walking Eval pays an interface-free but still branchy and
// map-heavy price per node: every polynomial term looks its variables up in
// a map[string]int64, every opaque node recurses. The §6 tile search and
// the SMP sweeps evaluate the same few hundred expressions under millions
// of environments, so the per-evaluation constant matters more than
// anything else. Compile flattens an expression once into a linear
// instruction slice over SymTab slots; Program.Eval then runs it as a small
// stack machine over a Frame — no maps, no recursion, no allocation (the
// scratch stack lives in the Frame and is reused).
//
// Semantics are bit-for-bit those of (*Expr).Eval, including the quirks the
// differential fuzz test pins down:
//
//   - Inf evaluates to math.MaxInt64 and is absorbed by sums, products and
//     divisions exactly as the tree walk absorbs it — including the
//     short-circuit: a sum or product stops evaluating at its first
//     MaxInt64 operand, so errors lurking in later operands never surface.
//     Jump instructions reproduce that control flow.
//   - An unbound slot yields *ErrUnbound with the symbol's name.
//   - Division by zero yields the same "division by zero evaluating E"
//     error, rendered from the same subexpression.
//   - Polynomial arithmetic is plain wrapping int64 arithmetic with no Inf
//     checks, exactly like the tree walk's poly case. Monomials are
//     evaluated in sorted-key order; wrapping addition is commutative, so
//     the result matches the tree walk's map-order iteration.

type opcode uint8

const (
	opConst          opcode = iota // push imm
	opLoad                         // push frame value of slot a; ErrUnbound if unbound
	opInf                          // push math.MaxInt64
	opAdd                          // pop y, x; push x+y
	opMul                          // pop y, x; push x*y
	opDiv                          // pop y, x; floor(x/y); zero check, Inf propagation
	opCeilDiv                      // pop y, x; ceil(x/y); zero check, Inf propagation
	opJmpIfMax                     // if top == MaxInt64: pc = a (top stays as result)
	opJmpIfMaxSquash               // if top == MaxInt64: pop the accumulator under it, pc = a
)

type instr struct {
	op  opcode
	a   int32 // slot (opLoad), jump target, or aux string index (divisions)
	imm int64 // constant (opConst)
}

// Program is one expression compiled against a SymTab. Programs are
// immutable and safe for concurrent evaluation as long as each goroutine
// brings its own Frame.
type Program struct {
	tab      *SymTab
	code     []instr
	divs     []string // rendering of each division node, for error messages
	maxStack int
}

// Compile flattens e into a program over tab's slots, assigning slots for
// any symbols tab has not seen yet (compile order therefore fixes the
// name→slot mapping). Compiling nil returns nil; a nil *Program is not
// evaluable.
func Compile(e *Expr, tab *SymTab) *Program {
	if e == nil {
		return nil
	}
	c := &compiler{tab: tab}
	c.emit(e)
	return &Program{tab: tab, code: c.code, divs: c.divs, maxStack: c.maxDepth}
}

type compiler struct {
	tab      *SymTab
	code     []instr
	divs     []string
	depth    int
	maxDepth int
}

func (c *compiler) push(op opcode, a int32, imm int64) {
	c.code = append(c.code, instr{op: op, a: a, imm: imm})
}

// note tracks stack depth: d is the net effect of the last instruction.
func (c *compiler) note(d int) {
	c.depth += d
	if c.depth > c.maxDepth {
		c.maxDepth = c.depth
	}
}

func (c *compiler) emit(e *Expr) {
	switch e.kind {
	case KindInf:
		c.push(opInf, 0, 0)
		c.note(1)
	case KindPoly:
		c.emitPoly(e.poly)
	case KindDiv, KindCeilDiv:
		c.emit(e.args[0])
		c.emit(e.args[1])
		op := opDiv
		if e.kind == KindCeilDiv {
			op = opCeilDiv
		}
		c.divs = append(c.divs, e.str)
		c.push(op, int32(len(c.divs)-1), 0)
		c.note(-1)
	case KindSum, KindProd:
		// Fold left with the tree walk's per-operand Inf short-circuit:
		// check each operand as it is produced, before accumulating it.
		op := opAdd
		if e.kind == KindProd {
			op = opMul
		}
		var jumps []int // indices of jump instructions to patch to the end
		c.emit(e.args[0])
		jumps = append(jumps, len(c.code))
		c.push(opJmpIfMax, 0, 0)
		for _, a := range e.args[1:] {
			c.emit(a)
			jumps = append(jumps, len(c.code))
			c.push(opJmpIfMaxSquash, 0, 0)
			c.push(op, 0, 0)
			c.note(-1)
		}
		end := int32(len(c.code))
		for _, j := range jumps {
			c.code[j].a = end
		}
	default:
		panic("expr: unknown kind")
	}
}

// emitPoly emits the sum-of-monomials evaluation in sorted-key order:
// for each monomial, push the coefficient and multiply in each factor,
// then fold the terms with plain additions (no Inf checks — matching the
// tree walk's poly case, which uses raw wrapping arithmetic).
func (c *compiler) emitPoly(p poly) {
	if len(p) == 0 {
		c.push(opConst, 0, 0)
		c.note(1)
		return
	}
	keys := make([]string, 0, len(p))
	for k := range p {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for i, k := range keys {
		c.push(opConst, 0, p[k])
		c.note(1)
		for _, name := range splitKey(k) {
			c.push(opLoad, int32(c.tab.Slot(name)), 0)
			c.note(1)
			c.push(opMul, 0, 0)
			c.note(-1)
		}
		if i > 0 {
			c.push(opAdd, 0, 0)
			c.note(-1)
		}
	}
}

// Eval runs the program against f, which must stem from the same SymTab the
// program was compiled against. It allocates nothing once f's scratch stack
// has grown to the program's depth.
func (p *Program) Eval(f *Frame) (int64, error) {
	if f.tab != p.tab {
		panic("expr: Program.Eval with a Frame from a different SymTab")
	}
	if cap(f.stack) < p.maxStack {
		f.stack = make([]int64, p.maxStack)
	}
	stack := f.stack[:cap(f.stack)]
	vals, bound := f.vals, f.bound
	sp := 0
	code := p.code
	for pc := 0; pc < len(code); pc++ {
		in := &code[pc]
		switch in.op {
		case opConst:
			stack[sp] = in.imm
			sp++
		case opLoad:
			slot := int(in.a)
			if slot >= len(vals) || !bound[slot] {
				return 0, &ErrUnbound{p.tab.Name(slot)}
			}
			stack[sp] = vals[slot]
			sp++
		case opInf:
			stack[sp] = math.MaxInt64
			sp++
		case opAdd:
			sp--
			stack[sp-1] += stack[sp]
		case opMul:
			sp--
			stack[sp-1] *= stack[sp]
		case opDiv, opCeilDiv:
			sp--
			b := stack[sp]
			a := stack[sp-1]
			if b == 0 {
				return 0, fmt.Errorf("expr: division by zero evaluating %s", p.divs[in.a])
			}
			if a == math.MaxInt64 {
				stack[sp-1] = math.MaxInt64
			} else if in.op == opCeilDiv {
				stack[sp-1] = ceilDiv64(a, b)
			} else {
				stack[sp-1] = floorDiv64(a, b)
			}
		case opJmpIfMax:
			if stack[sp-1] == math.MaxInt64 {
				pc = int(in.a) - 1
			}
		case opJmpIfMaxSquash:
			if stack[sp-1] == math.MaxInt64 {
				sp--
				stack[sp-1] = math.MaxInt64
				pc = int(in.a) - 1
			}
		}
	}
	return stack[0], nil
}
