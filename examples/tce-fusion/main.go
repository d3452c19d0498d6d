// TCE pipeline demo: take a tensor contraction expression the way the
// Tensor Contraction Engine does (§2 of the paper), minimize its operation
// count by binarization, lower it to an imperfectly nested loop program,
// fuse the producer and consumer of the intermediate (Fig. 1), and compare
// the memory footprint and the cache behaviour of the unfused and fused
// forms with the paper's stack-distance model.
package main

import (
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/expr"
	"repro/internal/tce"
)

func main() {
	// B(m,n) = Σ_{i,j} C1(m,i) · C2(n,j) · A(i,j)  — the two-index
	// transform of a two-electron integral block.
	contraction, ranges := tce.TwoIndexTransform()
	fmt.Printf("contraction: %s = Σ Π %v\n\n", contraction.Result, contraction.Inputs)

	// Operation minimization: DP over input subsets.
	rank := expr.Env{"N": 100, "V": 100}
	plan, err := tce.OpMin(contraction, ranges, rank)
	if err != nil {
		log.Fatal(err)
	}
	naive, _ := contraction.NaiveFlops(ranges).Eval(rank)
	opt, _ := plan.TotalFlops().Eval(rank)
	fmt.Printf("plan: %s\n", plan)
	fmt.Printf("flops at N=V=100: naive %d -> optimized %d (%.0fx)\n\n",
		naive, opt, float64(naive)/float64(opt))

	// The same reduction for the four-index transform of §2.
	four, fourRanges := tce.FourIndexTransform()
	fourPlan, err := tce.OpMin(four, fourRanges, expr.Env{"N": 100, "V": 50})
	if err != nil {
		log.Fatal(err)
	}
	n4, _ := four.NaiveFlops(fourRanges).Eval(expr.Env{"N": 100, "V": 50})
	o4, _ := fourPlan.TotalFlops().Eval(expr.Env{"N": 100, "V": 50})
	fmt.Printf("four-index transform: O(N^8) %d -> O(VN^4) chain %d (%.0fx)\n\n", n4, o4, float64(n4)/float64(o4))

	// Lower the two-index plan to loops, unfused (Fig. 1a).
	steps := plan.Sequence()
	unfused, err := tce.GenLoopNest("two-index-unfused", steps, ranges)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("unfused program (intermediate materialized in full):")
	fmt.Println(unfused)

	// Fuse the common loops (Fig. 1c): the intermediate becomes a scalar.
	fusable := tce.FusableIndices(steps[0], steps[1])
	fusedSet := map[string]bool{}
	for _, ix := range fusable {
		fusedSet[ix] = true
	}
	env := expr.Env{"N": 128, "V": 96}
	before, _ := tce.IntermediateSize(steps[0].Out, nil, ranges).Eval(env)
	after, _ := tce.IntermediateSize(steps[0].Out, fusedSet, ranges).Eval(env)
	fmt.Printf("intermediate %s: %d elements unfused -> %d after fusing %v\n\n",
		steps[0].Out, before, after, fusable)

	fused, err := tce.FusedTwoIndex(ranges)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("fused program (Fig. 1c):")
	fmt.Println(fused)

	// Cache behaviour of both forms under the paper's model.
	const cacheElems = 1024 // 8 KB of doubles
	uA, err := core.Analyze(unfused)
	if err != nil {
		log.Fatal(err)
	}
	fA, err := core.Analyze(fused)
	if err != nil {
		log.Fatal(err)
	}
	uM, err := uA.PredictMissesFrame(uA.SymTab().FrameOf(env), cacheElems)
	if err != nil {
		log.Fatal(err)
	}
	fM, err := fA.PredictMissesFrame(fA.SymTab().FrameOf(env), cacheElems)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("predicted misses at N=128, V=96, 8 KB cache: unfused %d, fused %d\n", uM.Total, fM.Total)
}
