// Command deadcode lists the functions, methods and types in the non-test
// Go files of this module that no production code reaches. Run it from the
// repository root:
//
//	go run ./scripts/deadcode
//
// It prints one "file:line name" line per unreached declaration and exits
// with status 1 if it printed anything. Production code is every main
// package of the module, the exported API of the root package, the
// benchmark module under perfbench/, package-level variable initializers
// and any method whose name is a method of an interface type declared in
// the module or in a package it imports (such methods may be called
// through the interface). Test files are never read, so a declaration that
// only tests use is reported: move it into a _test.go file or delete it.
//
// The hold list below names the few declarations that stay although
// nothing reaches them yet. A hold entry that no longer exists, or that
// production code now reaches, is reported too, so the list cannot go
// stale.
package main

import (
	"fmt"
	"os"
)

// hold maps each held name to the reason it stays in production files. A
// name is "pkg.Name" for a function or type, "pkg.Type.Method" for a
// method (pkg being the package name), or a package's import path relative
// to the module root, which holds every declaration in that package.
// Holding a type holds its methods, and whatever only held declarations
// reach is held with them.
var hold = map[string]string{
	// Held for ROADMAP item 6 (?explain=1), which gives the knee analysis
	// its production caller.
	"tilesearch.KneeAnalysis":       "ROADMAP item 6: explain's knees around the winning tile",
	"tilesearch.KneeAnalysisConfig": "ROADMAP item 6: explain's knees around the winning tile",
	"tilesearch.FormatKnees":        "ROADMAP item 6: explain's knees around the winning tile",
	"tilesearch.Knee":               "ROADMAP item 6: explain's knees around the winning tile",
	"tilesearch.maxSDFrame":         "ROADMAP item 6: explain's knees around the winning tile",

	// Held for ROADMAP item 7 (timing the advice on the machine), which
	// gives the native kernels their production caller.
	"kernels.MatmulNaive":   "ROADMAP item 7: native kernels timed against the model",
	"kernels.MatmulTiled":   "ROADMAP item 7: native kernels timed against the model",
	"kernels.TwoIndexNaive": "ROADMAP item 7: native kernels timed against the model",
	"kernels.TwoIndexFused": "ROADMAP item 7: native kernels timed against the model",

	"internal/testutil": "nest fixtures shared by the tests of many packages",

	// Shared test helpers: another package's tests call them, and Go does
	// not let one package's tests import another package's _test.go files.
	"trace.Executor":               "execution oracle for loopir's, tce's and kernels' tests",
	"trace.NewExecutor":            "execution oracle for loopir's, tce's and kernels' tests",
	"trace.Program.CheckBounds":    "bounds oracle for kernels', nestgen's and tce's tests",
	"validate.SimulatedMisses":     "exact-simulation oracle for service's and tilesearch's tests",
	"validate.SimulatedMissesGeom": "set-associative simulation oracle for tilesearch's tests",
	"obs.ReadReportFile":           "reads RunReport artifacts in cmd/cachechar's and cmd/tilesearch's golden tests",
	"obs.RunReport.Normalize":      "strips timings from RunReports in cmd/cachechar's and cmd/tilesearch's golden tests",
}

func main() {
	lines, err := scan(".", []string{"perfbench"}, hold)
	if err != nil {
		fmt.Fprintln(os.Stderr, "deadcode:", err)
		os.Exit(2)
	}
	for _, l := range lines {
		fmt.Println(l)
	}
	if len(lines) > 0 {
		os.Exit(1)
	}
}
