package loopir

// FuseLegal merges adjacent sibling loops that share an index name and a
// trip count into one loop with the concatenated bodies, recursively — the
// mechanical half of the TCE's loop fusion (Fig. 1 of the paper: the
// producer's and consumer's common loops become one; storage contraction of
// the intermediate is a separate step, see tce.GenFusedTransformChain). A
// pair of fusable siblings is merged only when FusionHazards proves the
// merge safe, so the result is a legal nest even outside the TCE-generated
// class. The returned count is the number of loop pairs actually merged —
// zero means fusion is a structural no-op on this nest (nothing fusable, or
// every fusable pair is hazardous), which plan enumeration uses to discard
// the step.
//
// The input nest is not modified; a new nest is returned.
func FuseLegal(n *Nest) (*Nest, int, error) {
	nodes, merges := fuseNodes(n, n.Root)
	var arrays []*Array
	for _, a := range n.Arrays {
		arrays = append(arrays, a)
	}
	fused, err := NewNest(n.Name+"-fused", arrays, nodes)
	if err != nil {
		return nil, 0, err
	}
	return fused, merges, nil
}

// fuseNodes is FuseLegal's walk: clone the tree, merging adjacent
// same-index/same-trip sibling loops bottom-up when FusionHazards is empty
// on the pair.
func fuseNodes(n *Nest, nodes []Node) ([]Node, int) {
	merges := 0
	tryMerge := func(prev, next *Loop) bool {
		if prev.Index != next.Index || !prev.Trip.Equal(next.Trip) {
			return false
		}
		if len(FusionHazards(n, prev, next)) > 0 {
			return false
		}
		return true
	}
	// refuse merges fusable adjacent loops in an already-fused node list
	// (used after concatenating two bodies exposes a new boundary).
	var refuse func(nodes []Node) []Node
	refuse = func(nodes []Node) []Node {
		var out []Node
		for _, nd := range nodes {
			if l, ok := nd.(*Loop); ok && len(out) > 0 {
				if prev, pok := out[len(out)-1].(*Loop); pok && tryMerge(prev, l) {
					merges++
					prev.Body = refuse(append(prev.Body, l.Body...))
					continue
				}
			}
			out = append(out, nd)
		}
		return out
	}
	var fuse func(nodes []Node) []Node
	fuse = func(nodes []Node) []Node {
		var out []Node
		for _, nd := range nodes {
			switch v := nd.(type) {
			case *Stmt:
				out = append(out, cloneStmt(v))
			case *Loop:
				body := fuse(v.Body)
				if len(out) > 0 {
					if prev, ok := out[len(out)-1].(*Loop); ok && tryMerge(prev, &Loop{Index: v.Index, Trip: v.Trip, Body: body}) {
						merges++
						prev.Body = append(prev.Body, body...)
						// Re-fuse inside the merged body: the two bodies'
						// boundary may now have adjacent fusable loops.
						prev.Body = refuse(prev.Body)
						continue
					}
				}
				out = append(out, &Loop{Index: v.Index, Trip: v.Trip, Body: body})
			}
		}
		return out
	}
	return fuse(nodes), merges
}
