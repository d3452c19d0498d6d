package main

import (
	"reflect"
	"strings"
	"testing"
)

// TestScanFixture runs the scan over testdata/mod: what only a test uses
// and what nothing uses is reported; what main reaches, an interface
// method and a held name are not.
func TestScanFixture(t *testing.T) {
	got, err := scan("testdata/mod", nil, map[string]string{"lib.Held": "fixture"})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"lib/lib.go:11 lib.OnlyTested",
		"lib/lib.go:13 lib.unused",
		"lib/lib.go:16 lib.TestOnly",
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("scan reported\n%s\nwant\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

// TestScanStaleHold: a hold entry that production reaches, or that names
// nothing, fails the scan.
func TestScanStaleHold(t *testing.T) {
	got, err := scan("testdata/mod", nil, map[string]string{
		"lib.Held": "fixture", "lib.OnlyTested": "fixture", "lib.TestOnly": "fixture", "lib.unused": "fixture",
		"lib.Used": "reached", "lib.Gone": "deleted",
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"hold lib.Gone: no declaration by that name",
		"hold lib.Used: reached by production code",
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("scan reported\n%s\nwant\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

// TestScanRepository is the gate itself: every function, method and type
// in this repository's non-test files is reached from production code or
// held.
func TestScanRepository(t *testing.T) {
	got, err := scan("../..", []string{"perfbench"}, hold)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) > 0 {
		t.Errorf("declarations only tests reach (move them into _test.go files or delete them):\n%s", strings.Join(got, "\n"))
	}
}
