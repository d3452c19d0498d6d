package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/obs"
)

var update = flag.Bool("update", false, "rewrite golden files with current output")

// golden compares got against testdata/<name>, rewriting the file under
// -update.
func golden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run go test -update): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("output differs from %s\n--- got ---\n%s\n--- want ---\n%s", path, got, want)
	}
}

// TestGoldenTable1 pins the symbolic component inventory — pure analysis,
// no wall-clock content at all.
func TestGoldenTable1(t *testing.T) {
	var buf bytes.Buffer
	if err := run(&buf, options{table: 1}); err != nil {
		t.Fatal(err)
	}
	golden(t, "table1.txt", buf.Bytes())
}

// TestGoldenAdhocText pins the ad-hoc prediction output, including the
// per-site breakdown (sorted) and the exact simulation cross-check.
func TestGoldenAdhocText(t *testing.T) {
	var buf bytes.Buffer
	o := options{
		kernel:   "matmul",
		n:        64,
		tiles:    "8,8,8",
		cacheKB:  "4",
		simulate: true,
	}
	if err := run(&buf, o); err != nil {
		t.Fatal(err)
	}
	golden(t, "adhoc_matmul_n64.txt", buf.Bytes())
}

// TestGoldenAdhocDirectMappedText pins the -ways output: the ad-hoc
// prediction plus the conflict-aware line for a direct-mapped geometry with
// 4-element lines.
func TestGoldenAdhocDirectMappedText(t *testing.T) {
	var buf bytes.Buffer
	o := options{
		kernel:    "matmul",
		n:         64,
		tiles:     "8,8,8",
		cacheKB:   "4",
		ways:      1,
		lineElems: 4,
	}
	if err := run(&buf, o); err != nil {
		t.Fatal(err)
	}
	golden(t, "adhoc_matmul_n64_dm.txt", buf.Bytes())
}

// TestGoldenSweepText pins the multi-capacity sweep table.
func TestGoldenSweepText(t *testing.T) {
	var buf bytes.Buffer
	o := options{
		kernel:  "matmul",
		n:       64,
		tiles:   "8,8,8",
		cacheKB: "2,4,8",
	}
	if err := run(&buf, o); err != nil {
		t.Fatal(err)
	}
	golden(t, "sweep_matmul_n64.txt", buf.Bytes())
}

// TestGoldenRunReport pins the normalized RunReport of an ad-hoc prediction
// with simulation: analyze stage timer counts, simulator operation counters
// and the tool extras must all reproduce exactly.
func TestGoldenRunReport(t *testing.T) {
	reportPath := filepath.Join(t.TempDir(), "report.json")
	var buf bytes.Buffer
	o := options{
		kernel:     "matmul",
		n:          64,
		tiles:      "8,8,8",
		cacheKB:    "4",
		simulate:   true,
		reportPath: reportPath,
		args: []string{"-kernel", "matmul", "-n", "64", "-tiles", "8,8,8",
			"-cache-kb", "4", "-simulate", "-report", "report.json"},
	}
	if err := run(&buf, o); err != nil {
		t.Fatal(err)
	}
	rep, err := obs.ReadReportFile(reportPath)
	if err != nil {
		t.Fatal(err)
	}
	if rep.WallNanos <= 0 {
		t.Errorf("report wall time %d, want positive", rep.WallNanos)
	}
	rep.Normalize()
	b, err := rep.MarshalIndent()
	if err != nil {
		t.Fatal(err)
	}
	golden(t, "report_adhoc_matmul_n64.json", b)
}
