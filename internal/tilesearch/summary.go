package tilesearch

import (
	"sort"

	"repro/internal/loopir"
)

// CandidateJSON is the serializable form of one evaluated tile assignment:
// tiles are rendered as a map (encoding/json sorts the keys), so equal
// candidates marshal to equal bytes.
type CandidateJSON struct {
	Tiles  map[string]int64 `json:"tiles"`
	Misses int64            `json:"misses"`
}

// ResultJSON is the serializable outcome of a search, including the phase
// summary the serving layer returns from /v1/tilesearch. All fields are
// deterministic for a given search, at every parallelism level.
type ResultJSON struct {
	Best     CandidateJSON   `json:"best"`
	Frontier []CandidateJSON `json:"frontier"`
	// Evaluated counts distinct tile assignments scored. CacheLookups counts
	// the component evaluations they ran, CacheComputed the distinct
	// (component, bindings) pairs among them (CacheStats; hit rate = 1 -
	// computed/lookups).
	Evaluated     int   `json:"evaluated"`
	CacheLookups  int64 `json:"cacheLookups"`
	CacheComputed int64 `json:"cacheComputed"`
}

// JSON converts a search result into its serializable form. Frontier
// candidates are ordered as the search returned them (by miss count, the
// topK order).
func (r *Result) JSON() ResultJSON {
	out := ResultJSON{
		Best:          candidateJSON(r.Best),
		Evaluated:     r.Evaluated,
		CacheLookups:  r.Cache.Lookups,
		CacheComputed: r.Cache.Computed,
	}
	out.Frontier = make([]CandidateJSON, len(r.Frontier))
	for i, c := range r.Frontier {
		out.Frontier[i] = candidateJSON(c)
	}
	return out
}

func candidateJSON(c Candidate) CandidateJSON {
	return CandidateJSON{Tiles: cloneTiles(c.Tiles), Misses: c.Misses}
}

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
	Result   ResultJSON  `json:"result"`
}

// PlanResultJSON is the serializable outcome of a joint search. Variants
// appear in enumeration order; the first is always the identity (tile-only
// baseline) and BestIndex selects the winner. Deterministic at every
// parallelism level, like ResultJSON.
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
			Result:   v.Result.JSON(),
		}
	}
	return out
}
