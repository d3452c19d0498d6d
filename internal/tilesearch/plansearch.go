// Plan search: the joint (permutation × fusion × tile size) optimization
// space. The §6 tile search picks tile sizes for a fixed loop structure;
// the structure itself — loop order and fusion — decides which reuse is
// exploitable before tiling ever runs (the paper's Fig. 1, SNIPPETS 2–3).
// SearchPlans enumerates the legal structural variants of a nest as
// loopir.Plans, compiles a core.Analysis per variant, and runs the
// knee-pruned tile search (tilesearch.go) inside each variant with its own
// evaluator — per-variant candidate cache and frames — on the existing
// deterministic worker pool. Variants are scored sequentially and each
// inner search is byte-deterministic at any parallelism, so the joint
// result is byte-identical at any -j.
package tilesearch

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/loopir"
)

// permuteDepthCap bounds permutation enumeration to nests of at most this
// depth (4! = 24 orders). Deeper perfect nests skip the permutation axis —
// the same pragmatic cap MLIR's affine interchange applies (SNIPPET 3).
const permuteDepthCap = 4

// PlanOptions configures a joint structural × tile search. The embedded
// Options are the tile-search template applied inside every variant:
// cache geometry, base environment, MinTile/DivisorOf, parallelism,
// context and instrumentation. Options.Dims names pre-existing tile
// symbols of the input nest (searched in every variant, since structural
// transforms preserve symbols); leave it empty for untiled nests and set
// AutoTile to have the search strip-mine perfect variants itself.
type PlanOptions struct {
	Options

	// Permute enumerates the loop orders of perfect variants (legalized by
	// loopir.PermutationHazards, capped at depth 4 per SNIPPET 3).
	Permute bool
	// Fuse adds the variant produced by merging adjacent fusable sibling
	// loops wherever loopir.FusionHazards proves it safe.
	Fuse bool
	// AutoTile appends, after each perfect structural variant, the variant
	// that strip-mines all of its loops (loopir.TileAll) and searches the
	// generated tile symbols. Max tile sizes come from the loop bounds
	// evaluated under BaseEnv.
	AutoTile bool
	// MaxVariants caps the structural variants scored; 0 means 24. Excess
	// variants are dropped deterministically from the end of the
	// enumeration order and counted in PlanResult.Skipped.
	MaxVariants int
	// PlanProgress, when non-nil, is invoked synchronously after each
	// variant's tile search completes, in enumeration order — the plan-level
	// analogue of Options.Progress, and what the serving layer streams as
	// per-variant NDJSON records.
	PlanProgress func(PlanEvent)
}

// PlanEvent reports one scored structural variant to PlanProgress.
type PlanEvent struct {
	Index     int         // variant index in enumeration order
	Count     int         // total variants being scored
	Plan      loopir.Plan // the variant's transformation plan
	NestName  string      // transformed nest name
	Best      Candidate   // variant's best tile assignment
	Evaluated int         // tile candidates evaluated for this variant
}

// PlanVariant is one enumerated point of the structural space: a legal
// plan and the nest it produces. Tiles is non-nil exactly when the plan
// ends in an AutoTile step and carries the generated tile specs.
type PlanVariant struct {
	Plan  loopir.Plan
	Nest  *loopir.Nest
	Tiles []loopir.TileSpec
}

// PlanVariantResult pairs a variant with its tile-search outcome.
type PlanVariantResult struct {
	Plan   loopir.Plan
	Nest   *loopir.Nest
	Result *Result
}

// PlanResult is the outcome of a joint search.
type PlanResult struct {
	// Variants holds every scored variant in enumeration order. The first
	// is always the identity plan — the tile-only search on the original
	// structure, which is both the differential baseline and the tie
	// winner (a structural variant must be strictly better to displace it).
	Variants  []PlanVariantResult
	BestIndex int
	Evaluated int // total tile candidates evaluated across variants
	Skipped   int // structural variants dropped by MaxVariants
}

// Best returns the winning variant.
func (pr *PlanResult) Best() *PlanVariantResult { return &pr.Variants[pr.BestIndex] }

// Baseline returns the identity variant: the tile-only search result.
func (pr *PlanResult) Baseline() *PlanVariantResult { return &pr.Variants[0] }

// SearchPlans runs the joint search: enumerate legal structural variants
// of nest, then run the §6 tile search inside each against its own
// compiled analysis. Variants appear in a deterministic enumeration order
// (identity first), are scored sequentially, and ties keep the earliest
// variant — so when no structural transform is legal, or none helps, the
// result is exactly the tile-only search's.
func SearchPlans(nest *loopir.Nest, opt PlanOptions) (*PlanResult, error) {
	if err := opt.prepare(4); err != nil {
		return nil, err
	}
	variants, skipped, err := EnumerateVariants(nest, opt)
	if err != nil {
		return nil, err
	}
	m := opt.Obs
	m.Counter("plansearch.variants").Add(int64(len(variants)))
	m.Counter("plansearch.skipped").Add(int64(skipped))
	pr := &PlanResult{Skipped: skipped}
	for i, v := range variants {
		if err := opt.Context.Err(); err != nil {
			return nil, err
		}
		span := opt.Trace.Start("plansearch.variant." + v.Plan.String())
		span.SetAttr("variant", int64(i))
		res, err := searchVariant(v, opt)
		span.End()
		if err != nil {
			return nil, fmt.Errorf("tilesearch: plan %q: %w", v.Plan, err)
		}
		pr.Variants = append(pr.Variants, PlanVariantResult{Plan: v.Plan, Nest: v.Nest, Result: res})
		pr.Evaluated += res.Evaluated
		if res.Best.Misses < pr.Variants[pr.BestIndex].Result.Best.Misses {
			pr.BestIndex = i
		}
		if opt.PlanProgress != nil {
			opt.PlanProgress(PlanEvent{
				Index:     i,
				Count:     len(variants),
				Plan:      v.Plan,
				NestName:  v.Nest.Name,
				Best:      res.Best,
				Evaluated: res.Evaluated,
			})
		}
	}
	return pr, nil
}

// searchVariant compiles one variant's analysis and scores it: the §6
// search over its tile dimensions, or — for a variant with no tunable
// tiles — a single model evaluation (the structure is the candidate).
// Each variant gets a fresh evaluator, so its candidate cache and frames
// belong to its own analysis.
func searchVariant(v PlanVariant, opt PlanOptions) (*Result, error) {
	a, err := core.Analyze(v.Nest)
	if err != nil {
		return nil, err
	}
	vopt := opt.Options
	if v.Tiles != nil {
		vopt.Dims = make([]Dim, len(v.Tiles))
		for i, t := range v.Tiles {
			max, err := t.Bound.Eval(vopt.BaseEnv)
			if err != nil {
				return nil, fmt.Errorf("autotile bound %s: %w", t.Bound, err)
			}
			vopt.Dims[i] = Dim{Symbol: t.TileVar, Max: max}
		}
		sort.Slice(vopt.Dims, func(i, j int) bool { return vopt.Dims[i].Symbol < vopt.Dims[j].Symbol })
	}
	if len(vopt.Dims) == 0 {
		return scoreUntiled(a, vopt)
	}
	return newEvaluator(a, vopt).run()
}

// scoreUntiled scores a variant with no tile dimensions: one evaluation of
// the model under the base environment. The result shape matches a search
// so untiled and tiled variants compare uniformly.
func scoreUntiled(a *core.Analysis, opt Options) (*Result, error) {
	ev := newEvaluator(a, opt)
	m, err := ev.eval(nil)
	if err != nil {
		return nil, err
	}
	c := point{misses: m}
	return ev.result(c, []point{c}), nil
}

// EnumerateVariants builds the structural half of the joint space: every
// legal plan over {fuse, permute, tile} reachable under opt, in a
// deterministic order with the identity plan first. Variants whose loop
// structure duplicates an earlier one are dropped (a permutation equal to
// the original order, a fusion that re-derives an enumerated shape), as
// are variants beyond MaxVariants — the dropped-by-cap count is returned.
func EnumerateVariants(nest *loopir.Nest, opt PlanOptions) ([]PlanVariant, int, error) {
	max := opt.MaxVariants
	if max <= 0 {
		max = 24
	}
	var out []PlanVariant
	skipped := 0
	seen := map[string]bool{}
	add := func(v PlanVariant) {
		key := structureKey(v.Nest)
		if v.Tiles != nil {
			// A tiled variant searches different dimensions than its parent
			// even when a dedupe collision is impossible; key on the plan too.
			key = "tile\x00" + key
		}
		if seen[key] {
			return
		}
		seen[key] = true
		if len(out) >= max {
			skipped++
			return
		}
		out = append(out, v)
	}
	// addWithTile appends a structural variant and, under AutoTile, its
	// strip-mined child right after it.
	addWithTile := func(p loopir.Plan, n *loopir.Nest) {
		add(PlanVariant{Plan: p, Nest: n})
		if !opt.AutoTile {
			return
		}
		tiled, tiles, err := loopir.TileAll(n)
		if err != nil {
			return // imperfect or untileable structure: no tile child
		}
		tp := append(append(loopir.Plan{}, p...), loopir.PlanStep{Op: "tile"})
		add(PlanVariant{Plan: tp, Nest: tiled, Tiles: tiles})
	}

	addWithTile(nil, nest)

	// The structural bases permutations grow from: the original nest and,
	// when legal and structure-changing, its fused form.
	bases := []PlanVariant{{Plan: nil, Nest: nest}}
	if opt.Fuse {
		if fused, err := loopir.ApplyPlan(nest, loopir.Plan{{Op: "fuse"}}); err == nil {
			addWithTile(loopir.Plan{{Op: "fuse"}}, fused)
			bases = append(bases, PlanVariant{Plan: loopir.Plan{{Op: "fuse"}}, Nest: fused})
		}
	}
	if opt.Permute {
		for _, base := range bases {
			chain, _, ok := base.Nest.IsPerfect()
			if !ok || len(chain) < 2 || len(chain) > permuteDepthCap {
				continue
			}
			if len(loopir.PermutationHazards(base.Nest)) > 0 {
				continue
			}
			indices := make([]string, len(chain))
			for i, l := range chain {
				indices[i] = l.Index
			}
			for _, order := range permutations(indices) {
				if strings.Join(order, ",") == strings.Join(indices, ",") {
					continue // the base itself
				}
				step := loopir.PlanStep{Op: "permute", Order: order}
				p := append(append(loopir.Plan{}, base.Plan...), step)
				permuted, err := loopir.ApplyPlan(nest, p)
				if err != nil {
					continue
				}
				addWithTile(p, permuted)
			}
		}
	}
	return out, skipped, nil
}

// structureKey is the dedupe key of a variant: the nest body rendered by
// Unparse with the (suffix-accumulating) nest name stripped, so two plans
// reaching the same loop structure collapse.
func structureKey(n *loopir.Nest) string {
	text := loopir.Unparse(n)
	if i := strings.IndexByte(text, '\n'); i >= 0 {
		return text[i+1:]
	}
	return text
}

// permutations enumerates all orderings of indices in lexicographic order
// of the resulting sequences, starting from the sorted sequence —
// deterministic regardless of the input order.
func permutations(indices []string) [][]string {
	sorted := append([]string(nil), indices...)
	sort.Strings(sorted)
	var out [][]string
	var build func(prefix []string, rest []string)
	build = func(prefix, rest []string) {
		if len(rest) == 0 {
			out = append(out, append([]string(nil), prefix...))
			return
		}
		for i := range rest {
			next := append(append([]string(nil), rest[:i]...), rest[i+1:]...)
			build(append(prefix, rest[i]), next)
		}
	}
	build(nil, sorted)
	return out
}
