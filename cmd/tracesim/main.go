// Command tracesim is the generic trace/cache-simulation tool: it generates
// the exact reference trace of a kernel (or replays a stored one) and plays
// it through the exact fully-associative LRU stack simulator (one pass
// yields miss counts for every requested cache size plus the stack-distance
// histogram), optionally through set-associative and direct-mapped caches
// for sensitivity analysis beyond the paper's fully-associative model, and
// optionally through a two-level cache hierarchy. Generated and replayed
// traces reach every simulator the same way, in blocks of -block accesses.
//
// Usage:
//
//	tracesim -kernel twoindex -n 256 -tiles 64,16,16,64 -cache-kb 16,64,256
//	tracesim -kernel matmul -n 256 -tiles 32,32,32 -cache-kb 16 -assoc 4 -line 8
//	tracesim -kernel matmul -n 64 -tiles 8,8,8 -l1-kb 4 -l2-kb 64
//	tracesim -kernel matmul -n 64 -tiles 8,8,8 -dump trace.bin
//	tracesim -replay trace.bin -cache-kb 16,64
//	tracesim -kernel matmul -n 512 -tiles 64,64,64 -cache-kb 64 -engine analytic
//	tracesim -replay trace.bin -cache-kb 16 -engine sampled -sample-log2 4
//
// -engine selects how miss counts are produced: exact (the default) walks
// the trace through the full stack simulator, sampled walks it through the
// SHARDS-style spatial sampler and reports estimates with a confidence
// half-width, and analytic skips the trace entirely and evaluates the
// compiled closed-form model — so it needs a generated kernel, not a
// -replay file.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"repro/internal/cachesim"
	"repro/internal/cachesim/analytic"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/expr"
	"repro/internal/trace"
)

// options collects one invocation's flag values; run takes it by value so
// tests can drive the tool without touching the flag package.
type options struct {
	kernel     string
	n          int64
	tiles      string
	cacheKB    string
	assoc      int
	line       int64
	l1KB, l2KB int64
	dump       string
	replay     string
	block      int
	engine     string
	sampleLog2 int
}

// bindFlags registers the command's flags on fs, writing into o.
func bindFlags(fs *flag.FlagSet, o *options) {
	fs.StringVar(&o.kernel, "kernel", "matmul", "kernel: matmul | twoindex | fourindex")
	fs.Int64Var(&o.n, "n", 128, "loop bound")
	fs.StringVar(&o.tiles, "tiles", "", "comma-separated tile sizes")
	fs.StringVar(&o.cacheKB, "cache-kb", "64", "comma-separated cache sizes in KB")
	fs.IntVar(&o.assoc, "assoc", 0, "additionally simulate a set-associative cache with this many ways")
	fs.Int64Var(&o.line, "line", 1, "line size in elements for the set-associative cache")
	fs.Int64Var(&o.l1KB, "l1-kb", 0, "two-level mode: L1 size in KB (requires -l2-kb)")
	fs.Int64Var(&o.l2KB, "l2-kb", 0, "two-level mode: L2 size in KB")
	fs.StringVar(&o.dump, "dump", "", "write the trace to this file and exit")
	fs.StringVar(&o.replay, "replay", "", "replay a stored trace instead of generating one")
	fs.IntVar(&o.block, "block", 0, "trace block size in accesses (0 = default)")
	fs.StringVar(&o.engine, "engine", "exact", "simulation engine: exact | analytic | sampled")
	fs.IntVar(&o.sampleLog2, "sample-log2", -1, "sampled engine: log2 of the sampling rate (-1 = auto from the address space)")
}

func main() {
	var o options
	bindFlags(flag.CommandLine, &o)
	flag.Parse()
	if err := run(os.Stdout, o); err != nil {
		fmt.Fprintln(os.Stderr, "tracesim:", err)
		os.Exit(1)
	}
}

// traceSource is a generated or a replayed trace. blocks streams it once,
// in blocks of at most blockSize accesses (<= 0 selects the default).
type traceSource struct {
	nSites    int
	addrSpace int64
	siteNames []string
	blocks    func(blockSize int, emit trace.EmitBlock) error
	file      *os.File // the replayed trace; nil for a generated kernel
	// analysis and env are set only for generated kernels; the analytic
	// engine needs the compiled model, which a stored trace does not carry.
	analysis *core.Analysis
	env      expr.Env
}

func openSource(w io.Writer, o options) (*traceSource, error) {
	if o.replay != "" {
		f, err := os.Open(o.replay)
		if err != nil {
			return nil, err
		}
		rd, h, err := trace.NewReader(f)
		if err != nil {
			f.Close()
			return nil, err
		}
		if err := checkSize(o, h.NSites, h.AddrSpace); err != nil {
			f.Close()
			return nil, err
		}
		names := make([]string, h.NSites)
		for i := range names {
			names[i] = fmt.Sprintf("site#%d", i)
		}
		return &traceSource{
			nSites:    h.NSites,
			addrSpace: h.AddrSpace,
			siteNames: names,
			blocks: func(blockSize int, emit trace.EmitBlock) error {
				_, err := rd.Blocks(blockSize, emit)
				return err
			},
			file: f,
		}, nil
	}
	ts, err := experiments.ParseTiles(o.tiles)
	if err != nil {
		return nil, err
	}
	nest, env, err := experiments.BuildKernel(o.kernel, o.n, ts)
	if err != nil {
		return nil, err
	}
	a, err := core.Analyze(nest)
	if err != nil {
		return nil, err
	}
	p, err := trace.Compile(nest, env)
	if err != nil {
		return nil, err
	}
	if err := checkSize(o, len(p.Sites), p.Size); err != nil {
		return nil, err
	}
	names := make([]string, len(p.Sites))
	for i, s := range p.Sites {
		names[i] = s.String()
	}
	fmt.Fprintf(w, "kernel %s env %v\n", o.kernel, env)
	return &traceSource{
		nSites:    len(p.Sites),
		addrSpace: p.Size,
		siteNames: names,
		blocks: func(blockSize int, emit trace.EmitBlock) error {
			p.RunBlocks(blockSize, emit)
			return nil
		},
		analysis: a,
		env:      env,
	}, nil
}

// maxSites bounds a trace's site count; a nest has one site per reference.
const maxSites = 1 << 16

// checkSize refuses a trace before anything is sized from it: more than
// maxSites sites, or an address space above trace.DefaultBudget elements,
// analysisd's default budget, so both tools refuse the same problems. The
// analytic engine is exempt from the second bound, as in analysisd: it
// walks no trace, and only trace walks size state per address. -dump and
// the two-level mode walk the trace whatever the engine.
func checkSize(o options, nSites int, addrSpace int64) error {
	if nSites > maxSites {
		return fmt.Errorf("site count %d exceeds limit %d", nSites, maxSites)
	}
	walks := o.engine != string(cachesim.EngineAnalytic) || o.dump != "" || o.l1KB > 0 || o.l2KB > 0
	if addrSpace > trace.DefaultBudget && walks {
		return fmt.Errorf("address space of %d elements exceeds limit %d", addrSpace, int64(trace.DefaultBudget))
	}
	return nil
}

func run(w io.Writer, o options) error {
	eng, err := cachesim.ParseEngine(o.engine)
	if err != nil {
		return err
	}
	src, err := openSource(w, o)
	if err != nil {
		return err
	}
	if src.file != nil {
		defer src.file.Close()
	}
	if o.dump != "" {
		f, err := os.Create(o.dump)
		if err != nil {
			return err
		}
		defer f.Close()
		tw, err := trace.NewWriter(f, src.nSites, src.addrSpace)
		if err != nil {
			return err
		}
		if err := src.blocks(o.block, tw.WriteBlock); err != nil {
			return err
		}
		if err := tw.Close(); err != nil {
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(w, "wrote %d records to %s\n", tw.Records(), o.dump)
		return nil
	}
	if o.l1KB > 0 || o.l2KB > 0 {
		if o.l1KB <= 0 || o.l2KB <= 0 {
			return fmt.Errorf("two-level mode needs both -l1-kb and -l2-kb")
		}
		if o.l2KB < o.l1KB {
			return fmt.Errorf("two-level mode needs -l2-kb of at least -l1-kb")
		}
		// Both levels are fully-associative LRU and L2 is at least as large
		// as L1, so L2 includes L1 and one stack-distance pass watching both
		// capacities classifies every access: L1 serves the accesses that
		// fit L1, L2 the L1 misses that fit L2, memory the L2 misses.
		sim := cachesim.NewStackSim(src.addrSpace, src.nSites,
			[]int64{experiments.KB(o.l1KB), experiments.KB(o.l2KB)})
		if err := src.blocks(o.block, sim.AccessBlock); err != nil {
			return err
		}
		res := sim.Results()
		n := res.Accesses
		l1, l2, mem := n-res.Misses[0], res.Misses[0]-res.Misses[1], res.Misses[1]
		amat := 0.0
		if n > 0 {
			amat = (float64(l1) + float64(l2)*10 + float64(mem)*150) / float64(n)
		}
		fmt.Fprintf(w, "two-level hierarchy L1=%dKB L2=%dKB over %d accesses:\n", o.l1KB, o.l2KB, n)
		fmt.Fprintf(w, "  L1 hits %d (%.3f%%)  L2 hits %d (%.3f%%)  memory %d (%.3f%%)\n",
			l1, pct(l1, n), l2, pct(l2, n), mem, pct(mem, n))
		fmt.Fprintf(w, "  AMAT (1/10/150 cycles): %.3f cycles\n", amat)
		return nil
	}

	var watches []int64
	for _, p := range strings.Split(o.cacheKB, ",") {
		kb, err := strconv.ParseInt(strings.TrimSpace(p), 10, 64)
		if err != nil {
			return fmt.Errorf("bad cache size %q", p)
		}
		watches = append(watches, experiments.KB(kb))
	}

	switch eng {
	case cachesim.EngineAnalytic:
		if o.assoc > 0 {
			return fmt.Errorf("-assoc needs a trace walk; use -engine exact or sampled")
		}
		if src.analysis == nil {
			return fmt.Errorf("engine analytic requires a generated kernel: a stored trace carries no model to evaluate")
		}
		res, info, err := analytic.Simulate(src.analysis, src.env, watches)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "analytic model: %d accesses, address space %d elements (no trace walked)\n",
			res.Accesses, src.addrSpace)
		fmt.Fprintf(w, "accesses %d, distinct addresses (compulsory misses) %d\n", res.Accesses, res.Distinct)
		for i, c := range res.Watches {
			fmt.Fprintf(w, "fully-assoc LRU %6d KB: %12d predicted misses (%.3f%%)\n",
				c*experiments.ElemBytes/1024, res.Misses[i], 100*res.MissRatio(i))
		}
		printPerSite(w, res, src.siteNames)
		fmt.Fprintf(w, "model closed-form throughout: %v (%d stack-distance components)\n", info.Exact, info.Components)
		return nil

	case cachesim.EngineSampled:
		if o.assoc > 0 {
			return fmt.Errorf("-assoc needs the exact trace walk; use -engine exact")
		}
		k := o.sampleLog2
		if k < 0 {
			k = cachesim.DefaultLog2Rate(src.addrSpace)
		}
		ssim := cachesim.NewSampledSim(src.addrSpace, src.nSites, watches, k, 0)
		if err := src.blocks(o.block, ssim.AccessBlock); err != nil {
			return err
		}
		res, st := ssim.Results(), ssim.Stats()
		bound := ssim.MissBound(0.05)
		fmt.Fprintf(w, "trace length %d, address space %d elements\n", res.Accesses, src.addrSpace)
		fmt.Fprintf(w, "sampling rate 2^-%d: kept %d of %d accesses (%d sampled addresses)\n",
			st.Log2Rate, st.SampledAccesses, st.TotalAccesses, st.SampledDistinct)
		fmt.Fprintf(w, "accesses %d, distinct addresses (compulsory misses, estimated) %d\n", res.Accesses, res.Distinct)
		for i, c := range res.Watches {
			fmt.Fprintf(w, "fully-assoc LRU %6d KB: %12d ± %d estimated misses (%.3f%%, 95%% envelope)\n",
				c*experiments.ElemBytes/1024, res.Misses[i], bound, 100*res.MissRatio(i))
		}
		printPerSite(w, res, src.siteNames)
		return nil
	}

	sim := cachesim.NewStackSim(src.addrSpace, src.nSites, watches)
	var extra *cachesim.AssocCache
	if o.assoc > 0 {
		extra, err = cachesim.NewAssocCache(watches[0], o.assoc, o.line)
		if err != nil {
			return err
		}
	}
	if err := src.blocks(o.block, func(sites []int32, addrs []int64) {
		sim.AccessBlock(sites, addrs)
		if extra != nil {
			extra.AccessBlock(addrs)
		}
	}); err != nil {
		return err
	}
	res := sim.Results()
	fmt.Fprintf(w, "trace length %d, address space %d elements\n", res.Accesses, src.addrSpace)
	fmt.Fprintf(w, "accesses %d, distinct addresses (compulsory misses) %d\n", res.Accesses, res.Distinct)
	for i, c := range res.Watches {
		fmt.Fprintf(w, "fully-assoc LRU %6d KB: %12d misses (%.3f%%)\n",
			c*experiments.ElemBytes/1024, res.Misses[i], 100*res.MissRatio(i))
	}
	if extra != nil {
		fmt.Fprintf(w, "%d-way LRU (line %d elems) %d KB: %d misses (%.3f%%)\n",
			o.assoc, o.line, watches[0]*experiments.ElemBytes/1024, extra.Misses(), 100*extra.MissRatio())
	}
	printPerSite(w, res, src.siteNames)
	fmt.Fprintln(w, "stack-distance histogram:")
	fmt.Fprint(w, res.SDHistogramString())
	return nil
}

func printPerSite(w io.Writer, res cachesim.Results, names []string) {
	fmt.Fprintln(w, "per-site misses (first watched size):")
	for i, name := range names {
		ps := res.PerSite[i]
		if ps.Accesses == 0 {
			continue
		}
		fmt.Fprintf(w, "  %-40s %12d / %12d\n", name, ps.Misses[0], ps.Accesses)
	}
}

func pct(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return 100 * float64(a) / float64(b)
}
