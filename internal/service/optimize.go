package service

import (
	"context"
	"fmt"

	"repro/internal/loopir"
	"repro/internal/tilesearch"
)

// OptimizeRequest runs the joint transformation-plan search: structural
// variants (loop permutation, fusion, auto-tiling) of the nest are
// enumerated under the dependence legality checks, each scored by the §6
// tile search against its own compiled analysis. The axes default on;
// permute/fuse/autoTile accept explicit false to disable one. Dims names
// pre-existing tile symbols of the input nest (searched in every variant);
// leave it empty for untiled nests and let autoTile strip-mine the perfect
// variants.
type OptimizeRequest struct {
	TileSearchRequest
	Permute     *bool `json:"permute,omitempty"`
	Fuse        *bool `json:"fuse,omitempty"`
	AutoTile    *bool `json:"autoTile,omitempty"`
	MaxVariants int   `json:"maxVariants,omitempty"`
}

// axis resolves a tri-state axis flag: omitted means enabled.
func axis(p *bool) bool { return p == nil || *p }

// OptimizeResponse is the joint-search outcome. Result.Variants[0] is the
// tile-only baseline, Result.BestIndex the winner; BestPlan echoes the
// winning plan's text for quick reading.
type OptimizeResponse struct {
	Nest string `json:"nest"`
	CacheEcho
	BestPlan string                    `json:"bestPlan"`
	Result   tilesearch.PlanResultJSON `json:"result"`
}

// streamVariantRecord is one /v1/optimize?stream=1 progress line: a scored
// structural variant with its best candidate. Variants are scored
// sequentially in enumeration order, so the records are deterministic for
// a given request like the tilesearch phase records.
type streamVariantRecord struct {
	Variant   int                  `json:"variant"` // index in enumeration order
	Count     int                  `json:"count"`   // total variants being scored
	Plan      string               `json:"plan"`
	Best      tilesearch.Candidate `json:"best"`
	Evaluated int                  `json:"evaluated"`
}

// planOptimize plans a /v1/optimize body. Its key mirrors the tile
// search's, with the axes and the variant cap before the geometry, so
// equal computations share cached bytes.
func planOptimize(body []byte) (string, computeFn, error) {
	var req OptimizeRequest
	if err := decodeInto(body, &req); err != nil {
		return "", nil, err
	}
	spec, _, cfg, err := req.resolveModel()
	if err != nil {
		return "", nil, err
	}
	if !axis(req.Permute) && !axis(req.Fuse) && !axis(req.AutoTile) && len(req.Dims) == 0 {
		return "", nil, fmt.Errorf("%w: every search axis is disabled and no dims are given; nothing to optimize", errBadRequest)
	}
	key := req.searchKey("optimize\x00", spec, cfg, fmt.Sprintf("\x00permute=%t,fuse=%t,autotile=%t,maxvariants=%d",
		axis(req.Permute), axis(req.Fuse), axis(req.AutoTile), req.MaxVariants))
	return key, func(s *Service, ctx context.Context, progress func(any)) ([]byte, error) {
		nest, err := loopir.Parse(spec.Nest)
		if err != nil {
			return nil, err
		}
		opts := tilesearch.PlanOptions{
			Options:     req.options(ctx, spec, cfg),
			Permute:     axis(req.Permute),
			Fuse:        axis(req.Fuse),
			AutoTile:    axis(req.AutoTile),
			MaxVariants: req.MaxVariants,
		}
		if progress != nil {
			opts.PlanProgress = func(ev tilesearch.PlanEvent) {
				progress(streamVariantRecord{
					Variant:   ev.Index,
					Count:     ev.Count,
					Plan:      ev.Plan.String(),
					Best:      ev.Best,
					Evaluated: ev.Evaluated,
				})
			}
		}
		pr, err := tilesearch.SearchPlans(nest, opts)
		if err != nil {
			return nil, err
		}
		return marshal(OptimizeResponse{
			Nest:      nest.Name,
			CacheEcho: echoOf(cfg),
			BestPlan:  pr.Best().Plan.String(),
			Result:    pr.JSON(),
		})
	}, nil
}
