package main

import (
	"encoding/json"
	"fmt"
	mrand "math/rand"
	"math/rand/v2"
	"strings"
	"sync"

	"repro/internal/loopir"
	"repro/internal/nestgen"
)

// clients is the width of the closed loop: two callers, each waiting for
// its answer before it asks for the next candidate, as a compiler or an
// autotuner does.
const clients = 2

// request is one generated call: an endpoint path and the exact body bytes
// the program receives.
type request struct {
	path  string
	body  []byte
	items int    // work items a 200 answers: the rows of a batch, else 1
	want  []byte // hot scripts: the oracle's bytes, compared inline
}

// workload is one seeded traffic mix. A hot workload cycles a fixed script
// whose keys fit every cache of the service; a cold one gives each client
// its own unbounded slice, disjoint from the other client's, in which no
// body and no response key repeats.
type workload struct {
	name   string
	routed bool      // served through the router over two replicas
	script []request // hot: the cache-hot script
	// gen returns request k of a client's slice (cold workloads). It is a
	// pure function of the seed, the client and k, so the verification pass
	// regenerates exactly the bytes that were sent.
	gen func(client, k int) request
	// limit bounds k on a cold slice: past it a carrier would repeat or
	// leave its range.
	limit int
	// reserve is the room for outcomes each client gets before a window
	// opens: at least twice what it recorded in a 14-second window on the
	// reference host.
	reserve int
}

// request returns request k of client's walk: the script entry for a hot
// workload (client 1 starts half a script ahead, so the two clients do not
// march in lockstep), the slice entry for a cold one.
func (w *workload) request(client, k int) request {
	if w.script != nil {
		return w.script[(client*len(w.script)/clients+k)%len(w.script)]
	}
	return w.gen(client, k)
}

// workloadNames lists the workloads in BENCHMARK.json order.
var workloadNames = []string{"serve-hot", "point-cold", "search-cold", "simulate-cold"}

// newWorkload builds the named workload from the seed.
func newWorkload(name string, seed int64) (*workload, error) {
	pool, err := newPool(seed)
	if err != nil {
		return nil, err
	}
	var w *workload
	switch name {
	case "serve-hot":
		w = &workload{name: name, routed: true, script: pool.hotScript(), reserve: 1 << 17}
	case "point-cold":
		w = pool.cold(name, pointShapes, 1<<pointBits, pool.pointRequest)
		w.reserve = 1 << 17
	case "search-cold":
		w = pool.cold(name, len(searchDeck), len(searchDeck)*maxRounds, pool.searchRequest)
		w.reserve = 1 << 12
	case "simulate-cold":
		w = pool.cold(name, len(simulateDeck), len(simulateDeck)*maxRounds, pool.simulateRequest)
		w.reserve = 1 << 12
	default:
		return nil, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(workloadNames, ", "))
	}
	return w, nil
}

// uniq maps a request's run-wide index u bijectively onto [0, 2^bits) in a
// scrambled order. point-cold folds the value into a capacity, so no two of
// its requests share a response key, even where two shapes name one
// problem, while the values still spread over the whole range.
func uniq(u int, bits uint) int64 {
	mask := uint64(1)<<bits - 1
	x := uint64(u) & mask
	x = (x*0x9E3779B1 + 0x7F4A7C15) & mask
	x ^= x >> (bits / 2)
	x = (x * 0x2545F491) & mask
	return int64(x)
}

// pool holds what every request of a workload draws from: the seed, and
// sixteen generated inline nests which, with the six paper kernels, stay
// below the service's 64-entry analysis cache.
type pool struct {
	seed   int64
	tiled  []inlineNest
	imperf []inlineNest
}

// nestSeed generates the inline nests. They are a fixed corpus, like the
// paper kernels, and not drawn from the run's seed: nests differ in cost,
// and a run whose seed drew heavier ones would read as a slower program.
const nestSeed = 1

// inlineNest is a generated nest sent as source text with fresh bindings.
type inlineNest struct {
	src    string   // canonical nest text
	bounds []string // loop-bound symbols
	tiles  []string // tile symbols, parallel to bounds (tiled nests only)
}

func newPool(seed int64) (*pool, error) {
	p := &pool{seed: seed}
	r := mrand.New(mrand.NewSource(nestSeed))
	for i := 0; i < 16; i++ {
		tiled := i%2 == 0
		nest, env, err := nestgen.Generate(r, int(r.Int31n(1<<20)), nestgen.Config{Tiled: tiled, Imperfect: !tiled})
		if err != nil {
			return nil, fmt.Errorf("generate nest: %w", err)
		}
		in := inlineNest{src: loopir.Unparse(nest)}
		for _, sym := range nest.SymbolNames() {
			if _, ok := env[sym]; !ok {
				return nil, fmt.Errorf("generated nest %s leaves %s unbound", nest.Name, sym)
			}
			if tiled && strings.HasPrefix(sym, "T") {
				continue
			}
			in.bounds = append(in.bounds, sym)
			if tiled {
				in.tiles = append(in.tiles, "T"+strings.TrimPrefix(sym, "N"))
			}
		}
		if tiled {
			p.tiled = append(p.tiled, in)
		} else {
			p.imperf = append(p.imperf, in)
		}
	}
	return p, nil
}

// rng returns the deterministic generator of run-wide request u.
func (p *pool) rng(u int) *rand.Rand {
	return rand.New(rand.NewPCG(uint64(p.seed), uint64(u)))
}

// slot places one request of a cold workload: its run-wide index u, the
// round of the workload's deck it falls in, and the shape it sends.
type slot struct{ u, round, shape int }

// maxRounds bounds the rounds of a walk whose carrier is the round number.
const maxRounds = 1 << 12

// cold wraps a per-request generator into a cold workload. Its requests
// come in rounds of shapes: a shape is what sets a request's cost (the
// endpoint, the problem, the engine or the cache geometry), and each round
// sends every shape once, in an order the seed draws. Every run therefore
// sends the same mix, and the seed decides the order and the details that
// cost about the same either way. The walk stops at run-wide index maxU.
func (p *pool) cold(name string, shapes, maxU int, gen func(r *rand.Rand, s slot) request) *workload {
	d := &deck{seed: p.seed, size: shapes}
	return &workload{
		name:  name,
		limit: maxU / clients,
		gen: func(client, k int) request {
			u := k*clients + client
			round := u / shapes
			return gen(p.rng(u), slot{u: u, round: round, shape: d.shape(round, u%shapes)})
		},
	}
}

// deck orders a cold workload's shapes: round r sends shape
// perm_r[i] at position i, where perm_r is a permutation drawn from the
// seed and r. Permutations are drawn on first use and kept, so a walk does
// not allocate one per request; the lock lets both clients and the
// checkers share them.
type deck struct {
	seed  int64
	size  int
	mu    sync.Mutex
	perms [][]int
}

func (d *deck) shape(round, pos int) int {
	d.mu.Lock()
	defer d.mu.Unlock()
	for len(d.perms) <= round {
		r := rand.New(rand.NewPCG(uint64(d.seed), 1<<63|uint64(len(d.perms))))
		d.perms = append(d.perms, r.Perm(d.size))
	}
	return d.perms[round][pos]
}

func pick[T any](r *rand.Rand, xs []T) T { return xs[r.IntN(len(xs))] }

// divisors lists the divisors of n in [lo, hi].
func divisors(n, lo, hi int64) []int64 {
	var out []int64
	for d := lo; d <= hi && d <= n; d++ {
		if n%d == 0 {
			out = append(out, d)
		}
	}
	return out
}

// nestFields is the problem selection every body starts with: a paper
// kernel with its size and tiles, or an inline nest with its bindings.
type nestFields struct {
	Kernel string           `json:"kernel,omitempty"`
	N      int64            `json:"n,omitempty"`
	Tiles  []int64          `json:"tiles,omitempty"`
	Nest   string           `json:"nest,omitempty"`
	Env    map[string]int64 `json:"env,omitempty"`
}

// geometry is a cache shape; Ways zero is fully associative.
type geometry struct {
	CacheElems int64 `json:"cacheElems"`
	Ways       int64 `json:"ways,omitempty"`
	Line       int64 `json:"line,omitempty"`
}

// problem is a generated problem selection plus the tile symbols a batch
// sweep or a tile search varies, with the loop bound of each.
type problem struct {
	nestFields
	dims []string
	max  []int64
}

// kernelProblem selects a paper kernel at size n with random dividing
// tiles.
func kernelProblem(r *rand.Rand, kernel string, n int64) problem {
	p := problem{nestFields: nestFields{Kernel: kernel, N: n}}
	switch kernel {
	case "matmul":
		p.dims, p.max = []string{"TI", "TJ", "TK"}, []int64{n, n, n}
	case "twoindex":
		p.dims, p.max = []string{"TI", "TJ", "TM", "TN"}, []int64{n, n, n, n}
	case "ccsd":
		// BuildKernel's tile order: TA, TB, TI, TJ, TC, TD; the occupied
		// range (TI, TJ) is n/2.
		p.dims, p.max = []string{"TA", "TB", "TI", "TJ", "TC", "TD"}, []int64{n, n, n / 2, n / 2, n, n}
	}
	for _, m := range p.max {
		p.Tiles = append(p.Tiles, pick(r, divisors(m, 2, 64)))
	}
	return p
}

// inlineProblem binds an inline nest afresh: tiled nests get bounds that
// are multiples of 64 (so every power-of-two tile up to 64 divides them),
// imperfect ones small trip counts.
func inlineProblem(r *rand.Rand, in inlineNest) problem {
	p := problem{nestFields: nestFields{Nest: in.src, Env: map[string]int64{}}}
	for i, b := range in.bounds {
		if in.tiles == nil {
			p.Env[b] = 2 + r.Int64N(39)
			continue
		}
		n := 64 * (1 + r.Int64N(4))
		p.Env[b] = n
		p.Env[in.tiles[i]] = pick(r, []int64{2, 4, 8, 16, 32})
		p.dims = append(p.dims, in.tiles[i])
		p.max = append(p.max, n)
	}
	return p
}

// A point-cold shape is a pair of twentieths: one picks the problem's
// family (pointProblem), the other the endpoint (pointRequest). The unique
// carrier, from the run-wide index, is pointBits wide.
const (
	pointShapes = 20 * 20
	pointBits   = 20
)

// pointProblem draws the problem of one point-cold request from its
// family x (a twentieth): a paper kernel at a fresh size and tiling, or a
// generated nest with fresh bindings.
func (p *pool) pointProblem(r *rand.Rand, x int) problem {
	switch {
	case x < 4:
		return kernelProblem(r, "matmul", pick(r, []int64{64, 128, 256, 512, 1024}))
	case x < 7:
		return kernelProblem(r, "twoindex", pick(r, []int64{64, 128, 256, 512}))
	case x < 9:
		return kernelProblem(r, "ccsd", pick(r, []int64{16, 32, 64, 128}))
	case x < 10:
		return kernelProblem(r, "fourindex", pick(r, []int64{32, 64, 128}))
	case x < 15:
		return inlineProblem(r, pick(r, p.tiled))
	}
	return inlineProblem(r, pick(r, p.imperf))
}

// pointGeometry is fully associative half the time, else a set-associative
// shape of 1/2/4/8 ways and lines of 1/2/4/8 elements; the unique carrier
// sets the capacity (or the set count).
func pointGeometry(r *rand.Rand, carrier int64) geometry {
	if r.IntN(2) == 0 {
		return geometry{CacheElems: 256 + carrier}
	}
	ways, line := pick(r, []int64{1, 2, 4, 8}), pick(r, []int64{1, 2, 4, 8})
	return geometry{CacheElems: ways * line * (16 + carrier), Ways: ways, Line: line}
}

type predictBody struct {
	nestFields
	geometry
	Detail bool `json:"detail,omitempty"`
}

type candidatesBody struct {
	nestFields
	geometry
	Detail bool      `json:"detail,omitempty"`
	Dims   []string  `json:"dims"`
	Sets   [][]int64 `json:"sets"`
}

type simulateBody struct {
	nestFields
	Watches []int64 `json:"watches"`
	PerSite bool    `json:"perSite,omitempty"`
	Engine  string  `json:"engine"`
}

type searchBody struct {
	nestFields
	geometry
	Dims map[string]int64 `json:"dims,omitempty"`
}

// mustJSON encodes a request body; the bodies are plain structs of
// strings and integers, which always encode.
func mustJSON(v any) []byte {
	data, err := json.Marshal(v)
	if err != nil {
		panic(fmt.Sprintf("perfbench: encode request: %v", err))
	}
	return data
}

// batchRequest is a /v1/batch candidate sweep over up to rows distinct tile
// vectors of the problem's tile symbols, each value a divisor (at most 64)
// of its loop bound.
func batchRequest(r *rand.Rand, pr problem, g geometry, rows int, detail bool) request {
	choices := make([][]int64, len(pr.dims))
	total := 1
	for i, m := range pr.max {
		choices[i] = divisors(m, 1, 64)
		total *= len(choices[i])
	}
	if rows > total {
		rows = total
	}
	seen := map[string]bool{}
	var sets [][]int64
	for len(sets) < rows {
		set := make([]int64, len(choices))
		for i, c := range choices {
			set[i] = pick(r, c)
		}
		if key := fmt.Sprint(set); !seen[key] {
			seen[key] = true
			sets = append(sets, set)
		}
	}
	body := mustJSON(struct {
		Candidates candidatesBody `json:"candidates"`
	}{candidatesBody{nestFields: pr.nestFields, geometry: g, Detail: detail, Dims: pr.dims, Sets: sets}})
	return request{path: "/v1/batch", body: body, items: rows}
}

// watches returns 2–4 watched capacities: one odd value carrying the
// request's unique carrier, the rest distinct powers of two in [lo, hi].
func watches(r *rand.Rand, carrier, lo, hi int64) []int64 {
	out := []int64{64 + 2*carrier + 1}
	var pows []int64
	for c := lo; c <= hi; c *= 2 {
		pows = append(pows, c)
	}
	r.Shuffle(len(pows), func(i, j int) { pows[i], pows[j] = pows[j], pows[i] })
	return append(out, pows[:1+r.IntN(3)]...)
}

// pointRequest is one step of an autotuner's candidate sweep: a single
// prediction, a batch of 8–64 candidates, or an analytic simulation, each
// against fresh tiles, bounds or capacities.
func (p *pool) pointRequest(r *rand.Rand, s slot) request {
	carrier := uniq(s.u, pointBits)
	pr := p.pointProblem(r, s.shape/20)
	switch x := s.shape % 20; {
	case x < 11:
		body := mustJSON(predictBody{nestFields: pr.nestFields, geometry: pointGeometry(r, carrier), Detail: r.IntN(4) == 0})
		return request{path: "/v1/predict", body: body, items: 1}
	case x < 14 && len(pr.dims) > 0:
		return batchRequest(r, pr, pointGeometry(r, carrier), 8+r.IntN(57), r.IntN(10) == 0)
	}
	body := mustJSON(simulateBody{
		nestFields: pr.nestFields,
		Watches:    watches(r, carrier, 1<<8, 1<<16),
		PerSite:    r.IntN(4) == 0,
		Engine:     "analytic",
	})
	return request{path: "/v1/simulate", body: body, items: 1}
}

// kernelSize is a paper kernel at one problem size.
type kernelSize struct {
	kernel string
	n      int64
}

// searchShape is a search-cold shape: a kernel size and the ways of the
// cache, zero for fully associative.
type searchShape struct {
	kernelSize
	ways int64
}

// searchDeck lists search-cold's shapes: each tiled kernel size (tile
// searches) and untiled one (joint plan searches), fully associative,
// 2-way and 8-way.
var searchDeck = func() []searchShape {
	problems := []kernelSize{
		{"matmul", 64}, {"matmul", 128}, {"matmul", 256}, {"matmul", 512},
		{"twoindex", 32}, {"twoindex", 64},
		{"ccsd", 8}, {"ccsd", 16},
		{"matmul-naive", 32}, {"matmul-naive", 64}, {"matmul-naive", 128},
		{"twoindexchain", 32}, {"twoindexchain", 64}, {"twoindexchain", 128}, {"twoindexchain", 256},
	}
	var deck []searchShape
	for _, ks := range problems {
		for _, ways := range []int64{0, 2, 8} {
			deck = append(deck, searchShape{ks, ways})
		}
	}
	return deck
}()

// searchGeometry is fully associative or the given ways, with lines of
// 1/4/8 elements. The carrier, the round, sets the capacity (or the set
// count): one shape's requests differ in it, yet it grows by one a round,
// so a shape costs about the same in every round.
func searchGeometry(r *rand.Rand, ways, carrier int64) geometry {
	if ways == 0 {
		return geometry{CacheElems: 1024 + carrier}
	}
	line := pick(r, []int64{1, 4, 8})
	return geometry{CacheElems: ways * line * (32 + carrier), Ways: ways, Line: line}
}

// searchRequest asks for a recommendation: a tile search over every tile
// symbol of a tiled paper kernel, or a joint plan search on an untiled one.
func (p *pool) searchRequest(r *rand.Rand, s slot) request {
	sh := searchDeck[s.shape]
	g := searchGeometry(r, sh.ways, int64(s.round))
	pr := kernelProblem(r, sh.kernel, sh.n)
	if len(pr.dims) == 0 {
		return request{path: "/v1/optimize", body: mustJSON(searchBody{nestFields: pr.nestFields, geometry: g}), items: 1}
	}
	dims := map[string]int64{}
	for i, d := range pr.dims {
		dims[d] = pr.max[i]
	}
	return request{path: "/v1/tilesearch", body: mustJSON(searchBody{nestFields: pr.nestFields, geometry: g, Dims: dims}), items: 1}
}

// simulateShape is a simulate-cold shape: a kernel size and an engine.
type simulateShape struct {
	kernelSize
	engine string
}

// simulateDeck lists simulate-cold's shapes: up to four sizes of each
// paper kernel whose reference traces hold about 1e5–4e5 accesses, each
// simulated exactly and sampled. Larger traces would leave fewer requests
// in a run, and p99 then rests on the few slowest of them.
var simulateDeck = func() []simulateShape {
	sizes := []struct {
		kernel string
		ns     []int64
	}{
		{"matmul", []int64{32, 38, 44, 50}},
		{"matmul-naive", []int64{32, 38, 44, 50}},
		{"twoindex", []int64{26, 30, 34, 40}},
		{"twoindexchain", []int64{36, 42, 48, 56}},
		{"ccsd", []int64{8}},
		{"fourindex", []int64{8, 10}},
	}
	var deck []simulateShape
	for _, k := range sizes {
		for _, n := range k.ns {
			for _, engine := range []string{"exact", "sampled"} {
				deck = append(deck, simulateShape{kernelSize{k.kernel, n}, engine})
			}
		}
	}
	return deck
}()

// simulateRequest is an exact or sampled trace simulation of a paper
// kernel with 2–4 watched capacities; the carrier, the round, sets one of
// them.
func (p *pool) simulateRequest(r *rand.Rand, s slot) request {
	sh := simulateDeck[s.shape]
	pr := kernelProblem(r, sh.kernel, sh.n)
	body := mustJSON(simulateBody{
		nestFields: pr.nestFields,
		Watches:    watches(r, int64(s.round), 1<<6, 1<<14),
		PerSite:    r.IntN(5) == 0,
		Engine:     sh.engine,
	})
	return request{path: "/v1/simulate", body: body, items: 1}
}

// hotScript is serve-hot's script: 16 fully-associative and 16
// set-associative predictions, one analysis per nest and four 64-row
// candidate sweeps, over five nests. Its 293 response keys, split over two
// replicas, fit each one's 256-entry response cache with room to spare.
func (p *pool) hotScript() []request {
	r := p.rng(-1)
	problems := []func() problem{
		func() problem { return kernelProblem(r, "matmul", pick(r, []int64{128, 256, 512})) },
		func() problem { return kernelProblem(r, "twoindex", pick(r, []int64{64, 128, 256})) },
		func() problem { return kernelProblem(r, "ccsd", pick(r, []int64{32, 64})) },
		func() problem { return inlineProblem(r, p.tiled[0]) },
		func() problem { return inlineProblem(r, p.tiled[1]) },
	}
	var script []request
	for i := 0; i < 32; i++ {
		g := geometry{CacheElems: 256 + int64(i)}
		if i >= 16 {
			g = geometry{CacheElems: 4 * 8 * (16 + int64(i)), Ways: 4, Line: 8}
		}
		body := mustJSON(predictBody{nestFields: pick(r, problems)().nestFields, geometry: g, Detail: i%4 == 0})
		script = append(script, request{path: "/v1/predict", body: body, items: 1})
	}
	for _, mk := range problems {
		script = append(script, request{path: "/v1/analyze", body: mustJSON(mk().nestFields), items: 1})
	}
	for i := 0; i < 4; i++ {
		g := geometry{CacheElems: 4096 + int64(i)}
		script = append(script, batchRequest(r, problems[i%3](), g, 64, false))
	}
	r.Shuffle(len(script), func(i, j int) { script[i], script[j] = script[j], script[i] })
	return script
}
