package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/trace"
)

var update = flag.Bool("update", false, "rewrite golden files with current output")

// fixture is a stored trace of the tiled matmul at N=8 with 4×4×4 tiles,
// as -dump writes it.
const fixture = "../../internal/trace/testdata/matmul_n8.trace"

// tracesim runs the command on args and returns what it printed.
func tracesim(t *testing.T, args ...string) (string, error) {
	t.Helper()
	var o options
	fs := flag.NewFlagSet("tracesim", flag.ContinueOnError)
	bindFlags(fs, &o)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	err := run(&buf, o)
	return buf.String(), err
}

// TestGoldenRuns pins the output of each engine and mode on the tiled
// matmul at N=32.
func TestGoldenRuns(t *testing.T) {
	kernel := []string{"-kernel", "matmul", "-n", "32", "-tiles", "8,8,8"}
	for _, tc := range []struct {
		name string
		args []string
	}{
		{"exact_matmul_n32.txt", []string{"-cache-kb", "4,8", "-assoc", "4", "-line", "8"}},
		{"hierarchy_matmul_n32.txt", []string{"-l1-kb", "2", "-l2-kb", "8"}},
		{"sampled_matmul_n32.txt", []string{"-cache-kb", "4,8", "-engine", "sampled", "-sample-log2", "2"}},
		{"analytic_matmul_n32.txt", []string{"-cache-kb", "4,8", "-engine", "analytic"}},
	} {
		out, err := tracesim(t, append(kernel, tc.args...)...)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		path := filepath.Join("testdata", tc.name)
		if *update {
			if err := os.WriteFile(path, []byte(out), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("missing golden file (run go test -update): %v", err)
		}
		if out != string(want) {
			t.Errorf("output differs from %s\n--- got ---\n%s\n--- want ---\n%s", path, out, want)
		}
	}
}

// TestGoldenReplay checks the stored format both ways: -dump reproduces the
// fixture byte for byte, and replaying the fixture prints what the
// generated run prints, less the kernel line and the site names a stored
// trace does not carry.
func TestGoldenReplay(t *testing.T) {
	kernel := []string{"-kernel", "matmul", "-n", "8", "-tiles", "4,4,4"}
	want, err := os.ReadFile(fixture)
	if err != nil {
		t.Fatal(err)
	}
	dump := filepath.Join(t.TempDir(), "trace")
	if _, err := tracesim(t, append(kernel, "-dump", dump)...); err != nil {
		t.Fatal(err)
	}
	if got, err := os.ReadFile(dump); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("-dump wrote %d bytes differing from the %d-byte fixture (%v)", len(got), len(want), err)
	}
	// unnamed drops the kernel line and each per-site line's name column.
	unnamed := func(out string) string {
		var b strings.Builder
		for _, l := range strings.SplitAfter(out, "\n") {
			if strings.HasPrefix(l, "kernel ") {
				continue
			}
			if strings.Contains(l, " / ") {
				l = l[2+40:]
			}
			b.WriteString(l)
		}
		return b.String()
	}
	for _, mode := range [][]string{
		{"-cache-kb", "1,2", "-assoc", "2", "-line", "4"},
		{"-l1-kb", "1", "-l2-kb", "2"},
		{"-cache-kb", "1,2", "-engine", "sampled", "-sample-log2", "1"},
	} {
		gen, err := tracesim(t, append(kernel, mode...)...)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := tracesim(t, append([]string{"-replay", fixture}, mode...)...)
		if err != nil {
			t.Fatal(err)
		}
		if unnamed(rep) != unnamed(gen) {
			t.Errorf("%v: replay differs from the generated run\n--- replay ---\n%s\n--- generated ---\n%s", mode, rep, gen)
		}
	}
}

// TestGoldenBlockSize checks that output does not depend on the block size,
// for generated and replayed traces in every trace-walking mode.
func TestGoldenBlockSize(t *testing.T) {
	for _, src := range [][]string{
		{"-kernel", "matmul", "-n", "16", "-tiles", "4,8,4"},
		{"-replay", fixture},
	} {
		for _, mode := range [][]string{
			{"-cache-kb", "1,2", "-assoc", "2", "-line", "4"},
			{"-l1-kb", "1", "-l2-kb", "2"},
			{"-cache-kb", "1,2", "-engine", "sampled", "-sample-log2", "1"},
		} {
			args := append(append([]string(nil), src...), mode...)
			want, err := tracesim(t, args...)
			if err != nil {
				t.Fatal(err)
			}
			for _, bs := range []string{"1", "333"} {
				if got, _ := tracesim(t, append(args, "-block", bs)...); got != want {
					t.Errorf("%v -block %s: output differs from -block 0\n--- got ---\n%s\n--- want ---\n%s", args, bs, got, want)
				}
			}
		}
	}
}

// TestHierarchyAMAT checks the two-level mode's arithmetic on hand-written
// traces, and that it rejects an L2 smaller than L1 or a missing level.
func TestHierarchyAMAT(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, addrs ...int64) string {
		path := filepath.Join(dir, name)
		f, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		w, err := trace.NewWriter(f, 1, 8)
		if err != nil {
			t.Fatal(err)
		}
		w.WriteBlock(make([]int32, len(addrs)), addrs)
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		return path
	}
	// One compulsory memory access and one L1 hit; an empty trace has no
	// accesses to average.
	for path, want := range map[string]string{
		write("twice", 0, 0): "  L1 hits 1 (50.000%)  L2 hits 0 (0.000%)  memory 1 (50.000%)\n" +
			"  AMAT (1/10/150 cycles): 75.500 cycles\n",
		write("empty"): "  L1 hits 0 (0.000%)  L2 hits 0 (0.000%)  memory 0 (0.000%)\n" +
			"  AMAT (1/10/150 cycles): 0.000 cycles\n",
	} {
		out, err := tracesim(t, "-replay", path, "-l1-kb", "1", "-l2-kb", "2")
		if err != nil || !strings.HasSuffix(out, want) {
			t.Errorf("%s: got %q, %v; want suffix %q", path, out, err, want)
		}
	}
	for _, levels := range [][]string{{"-l1-kb", "4", "-l2-kb", "2"}, {"-l2-kb", "2"}} {
		if _, err := tracesim(t, append([]string{"-replay", write("x", 1)}, levels...)...); err == nil {
			t.Errorf("%v accepted", levels)
		}
	}
}
