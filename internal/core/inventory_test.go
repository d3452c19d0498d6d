package core_test

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/loopir"
)

var update = flag.Bool("update", false, "rewrite golden files with current output")

// inventoryNests are the nests whose component inventories the golden
// pins: four paper kernels and small imperfect nests in the text format.
// Together they reach both span shapes, the cross-statement span (the
// tail of the source branch, the branches between, the head of the target
// branch) and the tail-to-head span of a self-reuse whose source sits in
// an earlier branch of the carrier's body, each with constant and with
// variable stack distance.
var inventoryNests = []struct{ kernel, src string }{
	{kernel: "matmul"},
	{kernel: "twoindex"},
	{kernel: "ccsd"},
	{kernel: "fourindex"},
	{src: `nest wrap
array A[N]
array B[N]
array C[N]
for k = K {
  for i = N { S1: A[i] += B[i] * C[i] }
  for j = N { S2: B[j] += A[j] * C[j] }
}`},
	{src: `nest wrap2d
array A[N, M]
array B[N, M]
array C[N]
array D[N]
array E[N]
for k = K {
  for i = N { for j = M { S1: A[i, j] += B[i, j] * C[i] } }
  for i2 = N { S2: C[i2] += D[i2] * E[i2] }
  for i3 = N { for j3 = M { S3: B[i3, j3] += A[i3, j3] * C[i3] } }
}`},
	{src: `nest cross
array A[N, N]
array B[N, N]
array D[N]
array E[N]
array F[N]
for i = N {
  for j = N { S1: A[i, j] += B[i, j] * D[j] }
  for j2 = N { S2: D[j2] += E[j2] * F[j2] }
  for j3 = N { S3: B[i, j3] += A[i, j3] * D[j3] }
}`},
}

// inventoryOptions are the model's default options and each of its three
// refinements switched off.
var inventoryOptions = []struct {
	name string
	opts func() core.Options
}{
	{"default", core.DefaultOptions},
	{"no-carrier", func() core.Options { o := core.DefaultOptions(); o.CarrierCorrection = false; return o }},
	{"no-complement", func() core.Options { o := core.DefaultOptions(); o.ComplementRule = false; return o }},
	{"no-wrap", func() core.Options { o := core.DefaultOptions(); o.TailToHeadWrap = false; return o }},
}

// TestGoldenComponentInventory pins ComponentsJSON, one line per nest and
// option set, in testdata/inventory.golden (rewritten under -update). It
// also checks that the lines reach both span shapes with both kinds of
// stack distance, so the golden keeps covering what it is meant to.
func TestGoldenComponentInventory(t *testing.T) {
	var buf bytes.Buffer
	shapes := map[string]bool{}
	for _, in := range inventoryNests {
		var nest *loopir.Nest
		var err error
		if in.kernel != "" {
			nest, _, err = experiments.BuildKernel(in.kernel, 128, nil)
		} else {
			nest, err = loopir.Parse(in.src)
		}
		if err != nil {
			t.Fatal(err)
		}
		for _, o := range inventoryOptions {
			a, err := core.AnalyzeWithOptions(nest, o.opts())
			if err != nil {
				t.Fatalf("%s %s: %v", nest.Name, o.name, err)
			}
			comps := a.ComponentsJSON()
			line, err := json.Marshal(comps)
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(&buf, "%s %s %s\n", nest.Name, o.name, line)
			for _, c := range comps {
				shapes[spanShape(c)] = true
			}
		}
	}
	for _, want := range []string{"cross const", "cross variable", "tail-to-head const", "tail-to-head variable"} {
		if !shapes[want] {
			t.Errorf("no %s span among the inventories", want)
		}
	}
	path := filepath.Join("testdata", "inventory.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run go test -update): %v", err)
	}
	got := strings.Split(buf.String(), "\n")
	wantLines := strings.Split(string(want), "\n")
	if len(got) != len(wantLines) {
		t.Fatalf("%s has %d lines, the inventories %d", path, len(wantLines), len(got))
	}
	for i := range got {
		if got[i] != wantLines[i] {
			t.Errorf("%s:%d differs\n--- got ---\n%s\n--- want ---\n%s", path, i+1, got[i], wantLines[i])
		}
	}
}

// spanShape names the span a component's stack distance costs: "cross" or
// "tail-to-head" (a self-reuse with a source), then "const" or "variable".
func spanShape(c core.ComponentJSON) string {
	var shape string
	switch {
	case c.Kind == "cross":
		shape = "cross"
	case c.Kind == "self" && c.Source != "":
		shape = "tail-to-head"
	default:
		return c.Kind
	}
	if c.SDSlope != "" {
		return shape + " variable"
	}
	return shape + " const"
}
