package repro_test

import (
	"fmt"
	"log"

	"repro"
)

// Example demonstrates the core loop of the paper: analyze a tiled kernel
// symbolically once, then predict its cache misses for concrete parameters
// and check the prediction against exact simulation.
func Example() {
	nest, err := repro.TiledMatmul()
	if err != nil {
		log.Fatal(err)
	}
	analysis, err := repro.Analyze(nest)
	if err != nil {
		log.Fatal(err)
	}
	env := repro.Env{"N": 128, "TI": 16, "TJ": 16, "TK": 16}
	const cacheElems = 2048 // 16 KB of doubles

	report, err := repro.PredictMisses(analysis, env, cacheElems)
	if err != nil {
		log.Fatal(err)
	}
	sim, err := repro.SimulateMisses(nest, env, []int64{cacheElems})
	if err != nil {
		log.Fatal(err)
	}
	actual, err := sim.MissesFor(cacheElems)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("predicted %d misses, simulated %d\n", report.Total, actual)
	// Output:
	// predicted 278528 misses, simulated 278528
}

// ExampleSearchTiles runs the §6 tile-size search for the tiled matmul.
func ExampleSearchTiles() {
	nest, err := repro.TiledMatmul()
	if err != nil {
		log.Fatal(err)
	}
	analysis, err := repro.Analyze(nest)
	if err != nil {
		log.Fatal(err)
	}
	res, err := repro.SearchTiles(analysis, repro.TileSearchOptions{
		Dims: []repro.TileDim{
			{Symbol: "TI", Max: 128}, {Symbol: "TJ", Max: 128}, {Symbol: "TK", Max: 128},
		},
		CacheElems: 2048,
		BaseEnv:    repro.Env{"N": 128},
		DivisorOf:  128,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("best tiles found:", res.Best.String())
	// Output:
	// best tiles found: (TI=32, TJ=32, TK=8) misses=147456
}

// ExampleAnalyze prints the symbolic component inventory of a reference —
// the paper's Table 1 content for A in the tiled matmul.
func ExampleAnalyze() {
	nest, err := repro.TiledMatmul()
	if err != nil {
		log.Fatal(err)
	}
	analysis, err := repro.Analyze(nest)
	if err != nil {
		log.Fatal(err)
	}
	for _, c := range analysis.Components {
		if c.Site.Key() != "S1#0" {
			continue
		}
		sd := c.SD.Base.String()
		if c.SD.Base.IsInf() {
			sd = "inf"
		}
		fmt.Printf("%s: SD = %s\n", c.Kind, sd)
	}
	// Output:
	// self: SD = 3
	// self: SD = TI*TJ + TI*TK + 2*TJ*TK + TK
	// first-touch: SD = inf
}
