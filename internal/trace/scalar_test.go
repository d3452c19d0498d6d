package trace

// RunScalar streams the trace through the original per-access tree walker,
// re-evaluating every subscript sum per reference. It is the test oracle
// that RunBlocks' leaf stride walker and block flushing are pinned to.
func (p *Program) RunScalar(emit func(site int, addr int64)) {
	vals := make([]int64, p.nSlots)
	for _, n := range p.root {
		runScalar(n, vals, emit)
	}
}

func runScalar(n cnode, vals []int64, emit func(site int, addr int64)) {
	switch v := n.(type) {
	case *cloop:
		for i := int64(0); i < v.trip; i++ {
			vals[v.slot] = i
			for _, b := range v.body {
				runScalar(b, vals, emit)
			}
		}
	case *cstmt:
		for i := range v.refs {
			r := &v.refs[i]
			addr := r.base
			for _, t := range r.terms {
				addr += t.stride * vals[t.slot]
			}
			emit(r.site, addr)
		}
	}
}
