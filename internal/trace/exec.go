package trace

import (
	"fmt"

	"repro/internal/expr"
	"repro/internal/loopir"
)

// Executor runs a nest numerically. The statement semantics are the
// multiply-accumulate form of all TCE-generated code:
//
//   - a statement whose last written/updated reference is W and whose read
//     references are R1..Rk executes W (+)= R1·…·Rk (write assigns, update
//     accumulates);
//   - a statement with only a written reference zeroes it.
//
// This lets tests verify that generated programs (tiled kernels, fused
// chains) compute the same tensors as straightforward reference code, not
// merely touch the same addresses.
type Executor struct {
	prog *Program
	mem  []float64
	// per-site dims for flat addressing are already encoded in the
	// compiled program; the executor re-derives per-ref roles.
	roles []stmtRole
}

type stmtRole struct {
	// index of the target ref within the statement (-1 = none), whether it
	// accumulates, and the indices of the factor refs.
	target  int
	accum   bool
	factors []int
}

// NewExecutor compiles the nest under env and allocates a zeroed memory
// image covering every array.
func NewExecutor(nest *loopir.Nest, env expr.Env) (*Executor, error) {
	p, err := Compile(nest, env)
	if err != nil {
		return nil, err
	}
	e := &Executor{prog: p, mem: make([]float64, p.Size)}
	for _, s := range nest.Stmts() {
		role := stmtRole{target: -1}
		for i, r := range s.Refs {
			switch r.Mode {
			case loopir.Write, loopir.Update:
				if role.target >= 0 {
					return nil, fmt.Errorf("trace: statement %s has two written references", s.Label)
				}
				role.target = i
				role.accum = r.Mode == loopir.Update
			default:
				role.factors = append(role.factors, i)
			}
		}
		if role.target < 0 {
			return nil, fmt.Errorf("trace: statement %s writes nothing", s.Label)
		}
		e.roles = append(e.roles, role)
	}
	return e, nil
}

// SetArray copies data into the array's memory image. The slice length must
// equal the array's element count under the executor's environment.
func (e *Executor) SetArray(name string, data []float64) error {
	base, n, err := e.arrayRange(name)
	if err != nil {
		return err
	}
	if int64(len(data)) != n {
		return fmt.Errorf("trace: array %s has %d elements, got %d", name, n, len(data))
	}
	copy(e.mem[base:base+n], data)
	return nil
}

// Array returns a copy of the array's current contents.
func (e *Executor) Array(name string) ([]float64, error) {
	base, n, err := e.arrayRange(name)
	if err != nil {
		return nil, err
	}
	out := make([]float64, n)
	copy(out, e.mem[base:base+n])
	return out, nil
}

func (e *Executor) arrayRange(name string) (base, n int64, err error) {
	b, ok := e.prog.Bases[name]
	if !ok {
		return 0, 0, fmt.Errorf("trace: unknown array %s", name)
	}
	arr := e.prog.Nest.Arrays[name]
	n, err = arr.Elements().Eval(e.prog.Env)
	if err != nil {
		return 0, 0, err
	}
	return b, n, nil
}

// Run executes the program once. Statement executions are driven by the
// same compiled tree as trace generation, so the numeric semantics and the
// reference trace are guaranteed to correspond access for access.
func (e *Executor) Run() {
	// Reuse the trace machinery: accesses of one statement arrive in ref
	// order; gather them per statement execution.
	stmtOf := make([]int, len(e.prog.Sites))
	refIdx := make([]int, len(e.prog.Sites))
	for i, s := range e.prog.Sites {
		stmtOf[i] = s.Stmt.ID
		refIdx[i] = s.RefIdx
	}
	// Buffer of addresses for the statement currently executing.
	var curStmt = -1
	addrs := map[int]int64{}
	flush := func() {
		if curStmt < 0 {
			return
		}
		role := e.roles[curStmt]
		prod := 1.0
		for _, f := range role.factors {
			prod *= e.mem[addrs[f]]
		}
		t := addrs[role.target]
		if len(role.factors) == 0 {
			prod = 0
		}
		if role.accum {
			e.mem[t] += prod
		} else {
			e.mem[t] = prod
		}
		curStmt = -1
	}
	e.prog.RunBlocks(DefaultBlockSize, func(sites []int32, block []int64) {
		for i, site := range sites {
			if refIdx[site] == 0 {
				flush()
				curStmt = stmtOf[site]
			}
			addrs[refIdx[site]] = block[i]
		}
	})
	flush()
}
