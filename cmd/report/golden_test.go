package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files with current output")

// TestGoldenPredictions pins the predictions-only document (no -simulate):
// every table, figure and extension the report prints without a trace
// simulation. Regenerate with go test ./cmd/report -update.
func TestGoldenPredictions(t *testing.T) {
	var buf bytes.Buffer
	if err := run(&buf, false); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "report.md")
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
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("output differs from %s\n--- got ---\n%s\n--- want ---\n%s", path, buf.Bytes(), want)
	}
}
