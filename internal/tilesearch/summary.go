package tilesearch

import (
	"sort"

	"repro/internal/loopir"
)

// SortedDims returns the search dimensions sorted by symbol — the
// deterministic order request handlers use when accepting dims as a map.
func SortedDims(maxBySymbol map[string]int64) []Dim {
	syms := make([]string, 0, len(maxBySymbol))
	for s := range maxBySymbol {
		syms = append(syms, s)
	}
	sort.Strings(syms)
	dims := make([]Dim, len(syms))
	for i, s := range syms {
		dims[i] = Dim{Symbol: s, Max: maxBySymbol[s]}
	}
	return dims
}

// PlanVariantJSON is the serializable form of one scored structural
// variant: the plan (as replayable steps and as text), the transformed
// nest's source in the textual format — a client can feed it back to any
// endpoint — and the variant's tile-search result.
type PlanVariantJSON struct {
	Plan     loopir.Plan `json:"plan"`
	PlanText string      `json:"planText"`
	Source   string      `json:"source"`
	Result   *Result     `json:"result"`
}

// PlanResultJSON is the serializable outcome of a joint search. Variants
// appear in enumeration order; the first is always the identity (tile-only
// baseline) and BestIndex selects the winner. Deterministic at every
// parallelism level, like Result.
type PlanResultJSON struct {
	Variants  []PlanVariantJSON `json:"variants"`
	BestIndex int               `json:"bestIndex"`
	Evaluated int               `json:"evaluated"`
	Skipped   int               `json:"skipped"`
}

// JSON converts a joint-search result into its serializable form.
func (pr *PlanResult) JSON() PlanResultJSON {
	out := PlanResultJSON{
		Variants:  make([]PlanVariantJSON, len(pr.Variants)),
		BestIndex: pr.BestIndex,
		Evaluated: pr.Evaluated,
		Skipped:   pr.Skipped,
	}
	for i, v := range pr.Variants {
		plan := v.Plan
		if plan == nil {
			plan = loopir.Plan{} // identity marshals as [], not null
		}
		out.Variants[i] = PlanVariantJSON{
			Plan:     plan,
			PlanText: v.Plan.String(),
			Source:   loopir.Unparse(v.Nest),
			Result:   v.Result,
		}
	}
	return out
}
