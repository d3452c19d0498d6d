package trace

// RunScalar streams the trace through the original per-access tree walker,
// re-evaluating every subscript sum per reference. It is the test oracle
// that RunBlocks' leaf stride walker and block flushing are pinned to.
func (p *Program) RunScalar(emit Emit) {
	vals := make([]int64, p.nSlots)
	for _, n := range p.root {
		runScalar(n, vals, emit)
	}
}

func runScalar(n cnode, vals []int64, emit Emit) {
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

// Collect materializes the whole trace as (site, addr) pairs.
func (p *Program) Collect() (sites []int, addrs []int64) {
	p.Run(func(site int, addr int64) {
		sites = append(sites, site)
		addrs = append(addrs, addr)
	})
	return sites, addrs
}
