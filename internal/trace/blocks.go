package trace

// Batched traces. A trace reaches its consumers only in blocks, whether
// RunBlocks generates it or a Reader decodes it from a file: one call per
// ~64K accesses instead of one per reference, and the innermost-loop walker
// advances addresses by precomputed strides. The buffers handed to an
// EmitBlock are reused between calls — consumers must fully process (or
// copy) them before returning.

// EmitBlock receives one batch of accesses: sites[i] is the static
// reference-site index of the access at addrs[i]. Both slices have the same
// length and are valid only for the duration of the call.
type EmitBlock func(sites []int32, addrs []int64)

// DefaultBlockSize is the batch granularity of the simulators' callers:
// 64K accesses ≈ 768 KB of buffer, large enough to amortize the per-block
// call to nothing and small enough to stay cache- and allocation-friendly.
const DefaultBlockSize = 1 << 16

// DefaultBudget is the default bound, in elements, on a simulated trace's
// length and address space: analysisd's MaxTraceLen and tracesim's
// address-space check. The trace-walking simulators size their state per
// address, so the bound is also what keeps their memory in reach.
const DefaultBudget = 1 << 28

// blockRun carries the per-invocation state of one RunBlocks traversal: the
// fill buffers and, per leaf loop, the scratch slice of current reference
// addresses. Keeping all mutable state here (and in the vals slice) makes a
// compiled Program safe to run from several goroutines at once, which the
// sharded simulators rely on.
type blockRun struct {
	sites   []int32
	addrs   []int64
	n       int
	emit    EmitBlock
	scratch [][]int64 // per leafID: current address of each reference
}

func (b *blockRun) flush() {
	if b.n > 0 {
		b.emit(b.sites[:b.n], b.addrs[:b.n])
		b.n = 0
	}
}

// RunBlocks streams the full reference trace to emit in program order,
// batching accesses into blocks of at most blockSize. blockSize <= 0 selects
// DefaultBlockSize; it is clamped below to the largest single-iteration
// emission unit (so one innermost iteration never straddles a flush check)
// and above to the trace length (so short traces do not allocate full-size
// buffers).
func (p *Program) RunBlocks(blockSize int, emit EmitBlock) {
	if blockSize <= 0 {
		blockSize = DefaultBlockSize
	}
	if blockSize < p.minBlock {
		blockSize = p.minBlock
	}
	if int64(blockSize) > p.total {
		blockSize = int(p.total)
		if blockSize < p.minBlock {
			blockSize = p.minBlock
		}
		if blockSize < 1 {
			blockSize = 1
		}
	}
	b := &blockRun{
		sites: make([]int32, blockSize),
		addrs: make([]int64, blockSize),
		emit:  emit,
	}
	if p.nLeaves > 0 {
		b.scratch = make([][]int64, p.nLeaves)
		allocLeafScratch(p.root, b)
	}
	vals := make([]int64, p.nSlots)
	for _, n := range p.root {
		n.runBlocks(vals, b)
	}
	b.flush()
}

// allocLeafScratch sizes each leaf loop's current-address scratch slice.
func allocLeafScratch(nodes []cnode, b *blockRun) {
	for _, nd := range nodes {
		if l, ok := nd.(*cloop); ok {
			if l.leafID >= 0 {
				b.scratch[l.leafID] = make([]int64, len(l.leaf))
				continue
			}
			allocLeafScratch(l.body, b)
		}
	}
}

func (l *cloop) runBlocks(vals []int64, b *blockRun) {
	if l.leafID >= 0 {
		// Innermost fast path: evaluate each reference's loop-invariant
		// terms once, then advance by the precomputed stride per iteration.
		cur := b.scratch[l.leafID]
		for r := range l.leaf {
			lr := &l.leaf[r]
			a := lr.base
			for _, t := range lr.rest {
				a += t.stride * vals[t.slot]
			}
			cur[r] = a
		}
		nr := len(l.leaf)
		sites, addrs := b.sites, b.addrs
		for v := int64(0); v < l.trip; v++ {
			if b.n+nr > len(addrs) {
				b.flush()
			}
			n := b.n
			for r := range l.leaf {
				lr := &l.leaf[r]
				sites[n] = lr.site
				addrs[n] = cur[r]
				cur[r] += lr.step
				n++
			}
			b.n = n
		}
		return
	}
	for v := int64(0); v < l.trip; v++ {
		vals[l.slot] = v
		for _, c := range l.body {
			c.runBlocks(vals, b)
		}
	}
}

func (s *cstmt) runBlocks(vals []int64, b *blockRun) {
	if b.n+len(s.refs) > len(b.addrs) {
		b.flush()
	}
	n := b.n
	for i := range s.refs {
		r := &s.refs[i]
		addr := r.base
		for _, t := range r.terms {
			addr += t.stride * vals[t.slot]
		}
		b.sites[n] = int32(r.site)
		b.addrs[n] = addr
		n++
	}
	b.n = n
}
