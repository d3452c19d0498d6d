// Package trace turns a loopir.Nest plus a concrete environment into the
// exact sequence of memory references the program performs. It is the ground
// truth against which the analytical cache-miss model is validated: the
// stream it produces feeds internal/cachesim, playing the role SimpleScalar's
// sim-cache plays in the paper.
//
// Addresses are element-granular: every array element occupies one address
// unit, arrays are laid out row-major and placed consecutively in a single
// address space. The cache simulator applies line-size scaling if needed.
package trace

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/expr"
	"repro/internal/loopir"
)

// Program is a nest compiled against a concrete environment, ready to
// generate its reference trace.
type Program struct {
	Nest  *loopir.Nest
	Env   expr.Env
	Sites []loopir.RefSite

	// Base address of each array and total address-space size in elements.
	Bases map[string]int64
	Size  int64

	root     []cnode
	nSlots   int
	nLeaves  int   // leaf loops carrying the stride fast path
	total    int64 // trace length, computed at compile time
	minBlock int   // largest per-iteration emission unit; RunBlocks floor
}

type cnode interface {
	runBlocks(vals []int64, b *blockRun)
}

type cloop struct {
	trip int64
	slot int
	body []cnode
	// Innermost-loop fast path: when the body consists solely of statements,
	// the flattened reference list is precompiled here and runBlocks advances
	// each reference's address by a per-iteration stride instead of
	// re-evaluating the subscript terms. leafID indexes the per-run scratch
	// array holding the current addresses. leaf == nil means general path.
	leaf   []leafRef
	leafID int
}

// leafRef is one reference of an innermost loop, split into the terms that
// stay constant across the loop (rest, evaluated once on entry) and the
// accumulated stride of the loop's own index (step, added per iteration).
type leafRef struct {
	site int32
	step int64
	base int64
	rest []cterm
}

type cref struct {
	site  int
	base  int64
	terms []cterm // addr = base + sum(stride*vals[slot])
}

type cterm struct {
	slot   int
	stride int64
}

type cstmt struct {
	refs []cref
}

// errOverflow reports int64 overflow in the address or trace-length
// arithmetic; such a program could never be simulated.
var errOverflow = errors.New("trace: address or trace length overflows int64")

// mul and add are int64 arithmetic that reports overflow instead of
// wrapping.
func mul(a, b int64) (int64, bool) {
	if a == 0 || b == 0 {
		return 0, true
	}
	c := a * b
	return c, c/b == a && c/a == b
}

func add(a, b int64) (int64, bool) {
	c := a + b
	return c, (c > a) == (b > 0)
}

// Compile prepares the nest for execution under env. It validates the
// environment, lays out arrays (sorted by name for determinism), and
// pre-resolves every subscript into a flat base+strides form. Every
// reference's lowest and highest address must fall inside the address space
// [0, Size): each index of a reference runs from 0 to its trip−1
// independently and appears at most once in it, so those bounds are exact,
// and a nest that addresses past its declared arrays is rejected here
// rather than by an out-of-range access in a simulator.
func Compile(nest *loopir.Nest, env expr.Env) (*Program, error) {
	if err := nest.ValidateEnv(env); err != nil {
		return nil, err
	}
	p := &Program{Nest: nest, Env: env, Sites: nest.Sites(), Bases: map[string]int64{}}

	names := make([]string, 0, len(nest.Arrays))
	for name := range nest.Arrays {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		a := nest.Arrays[name]
		p.Bases[name] = p.Size
		n, err := a.Elements().Eval(env)
		if err != nil {
			return nil, err
		}
		var ok bool
		if p.Size, ok = add(p.Size, n); !ok {
			return nil, errOverflow
		}
	}

	siteIdx := map[string]int{}
	for i, s := range p.Sites {
		siteIdx[s.Key()] = i
	}

	// Loop index names may repeat across sibling subtrees, so slots are
	// allocated per loop node and name→slot bindings are lexically scoped.
	var trips []int64 // by slot
	var compile func(nodes []loopir.Node, scope map[string]int) ([]cnode, error)
	compile = func(nodes []loopir.Node, scope map[string]int) ([]cnode, error) {
		var out []cnode
		for _, nd := range nodes {
			switch v := nd.(type) {
			case *loopir.Loop:
				trip, err := v.Trip.Eval(env)
				if err != nil {
					return nil, err
				}
				slot := len(trips)
				trips = append(trips, trip)
				inner := make(map[string]int, len(scope)+1)
				for k, s := range scope {
					inner[k] = s
				}
				inner[v.Index] = slot
				body, err := compile(v.Body, inner)
				if err != nil {
					return nil, err
				}
				out = append(out, &cloop{trip: trip, slot: slot, body: body})
			case *loopir.Stmt:
				cs := &cstmt{}
				for ri := range v.Refs {
					r := &v.Refs[ri]
					arr := nest.Arrays[r.Array]
					// Row-major dimension strides.
					dimStride := make([]int64, len(arr.Dims))
					acc := int64(1)
					for d := len(arr.Dims) - 1; d >= 0; d-- {
						dimStride[d] = acc
						ext, err := arr.Dims[d].Eval(env)
						if err != nil {
							return nil, err
						}
						var ok bool
						if acc, ok = mul(acc, ext); !ok {
							return nil, errOverflow
						}
					}
					c := cref{
						site: siteIdx[loopir.RefSite{Stmt: v, RefIdx: ri}.Key()],
						base: p.Bases[r.Array],
					}
					for d, sub := range r.Subs {
						for _, term := range sub.Terms {
							stride := int64(1)
							if term.Stride != nil {
								sv, err := term.Stride.Eval(env)
								if err != nil {
									return nil, err
								}
								stride = sv
							}
							stride, ok := mul(stride, dimStride[d])
							if !ok {
								return nil, errOverflow
							}
							c.terms = append(c.terms, cterm{slot: scope[term.Index], stride: stride})
						}
					}
					lo, hi := c.base, c.base
					for _, t := range c.terms {
						span, ok := mul(t.stride, trips[t.slot]-1)
						if ok && span < 0 {
							lo, ok = add(lo, span)
						} else if ok {
							hi, ok = add(hi, span)
						}
						if !ok {
							return nil, errOverflow
						}
					}
					if lo < 0 || hi >= p.Size {
						return nil, fmt.Errorf("trace: %s addresses [%d, %d] fall outside the address space [0, %d)",
							loopir.RefSite{Stmt: v, RefIdx: ri}, lo, hi, p.Size)
					}
					cs.refs = append(cs.refs, c)
				}
				out = append(out, cs)
			}
		}
		return out, nil
	}
	root, err := compile(nest.Root, map[string]int{})
	if err != nil {
		return nil, err
	}
	p.root = root
	p.nSlots = len(trips)
	p.annotate(root)
	var ok bool
	if p.total, ok = countAccesses(root); !ok {
		return nil, errOverflow
	}
	return p, nil
}

// annotate walks the compiled tree, marking innermost loops (bodies made
// only of statements) with their flattened stride-form reference lists and
// recording the largest indivisible emission unit for RunBlocks.
func (p *Program) annotate(nodes []cnode) {
	for _, nd := range nodes {
		switch v := nd.(type) {
		case *cloop:
			v.leafID = -1
			if refs, unit, ok := leafRefsOf(v); ok {
				v.leaf = refs
				v.leafID = p.nLeaves
				p.nLeaves++
				if unit > p.minBlock {
					p.minBlock = unit
				}
				continue
			}
			p.annotate(v.body)
		case *cstmt:
			if len(v.refs) > p.minBlock {
				p.minBlock = len(v.refs)
			}
		}
	}
}

// leafRefsOf flattens a loop body into stride form when every child is a
// statement. The returned unit is the number of accesses one iteration
// emits, which RunBlocks must be able to buffer contiguously.
func leafRefsOf(l *cloop) ([]leafRef, int, bool) {
	var refs []leafRef
	for _, nd := range l.body {
		s, ok := nd.(*cstmt)
		if !ok {
			return nil, 0, false
		}
		for i := range s.refs {
			r := &s.refs[i]
			lr := leafRef{site: int32(r.site), base: r.base}
			for _, t := range r.terms {
				if t.slot == l.slot {
					lr.step += t.stride
				} else {
					lr.rest = append(lr.rest, t)
				}
			}
			refs = append(refs, lr)
		}
	}
	return refs, len(refs), true
}

// countAccesses computes the trace length of a compiled subtree, reporting
// false if it overflows int64.
func countAccesses(nodes []cnode) (int64, bool) {
	var total int64
	for _, nd := range nodes {
		n := int64(0)
		ok := true
		switch v := nd.(type) {
		case *cloop:
			if n, ok = countAccesses(v.body); ok {
				n, ok = mul(v.trip, n)
			}
		case *cstmt:
			n = int64(len(v.refs))
		}
		if ok {
			total, ok = add(total, n)
		}
		if !ok {
			return 0, false
		}
	}
	return total, true
}

// CheckBounds runs the trace once, verifying that every address falls within
// the address range of its array. It returns the first violation found.
// Intended for tests and for validating user-supplied nests once before long
// simulations. The valid range of each site's array is resolved once up
// front, so the per-access check is two comparisons regardless of how many
// arrays the nest declares.
func (p *Program) CheckBounds() error {
	base := make([]int64, len(p.Sites))
	limit := make([]int64, len(p.Sites))
	for i, s := range p.Sites {
		name := s.Ref().Array
		b, ok := p.Bases[name]
		if !ok {
			return fmt.Errorf("trace: site %d references unknown array %s", i, name)
		}
		n, err := p.Nest.Arrays[name].Elements().Eval(p.Env)
		if err != nil {
			return err
		}
		base[i], limit[i] = b, b+n
	}
	var violation error
	p.RunBlocks(DefaultBlockSize, func(sites []int32, addrs []int64) {
		if violation != nil {
			return
		}
		for i, addr := range addrs {
			s := sites[i]
			if addr < base[s] || addr >= limit[s] {
				violation = fmt.Errorf("trace: %s address %d outside [%d,%d) of %s",
					p.Sites[s].Key(), addr, base[s], limit[s], p.Sites[s].Ref().Array)
				return
			}
		}
	})
	return violation
}

// Length returns the total number of accesses the trace will produce,
// computed at compile time (without running the trace). Compile has
// already rejected a program whose length overflows int64.
func (p *Program) Length() (int64, error) {
	return p.total, nil
}
