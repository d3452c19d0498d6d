package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestSizeBounds: a trace that asks for more than tracesim sizes ends in an
// error naming the bound, before anything is allocated from it. A stored
// header with an address space of 2^62 used to panic in NewStackSim, and
// one with a site count of 2^31−1 asked for 2^31 site names; a generated
// kernel over more than the budget's elements is refused the same way,
// except by the analytic engine, which walks no trace — unless -dump or
// the two-level mode walks it anyway.
func TestSizeBounds(t *testing.T) {
	dir := t.TempDir()
	header := func(name, data string) string {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	addr62 := header("addr62", "RTRC\x01\x01"+strings.Repeat("\x80", 8)+"\x40\x01")
	sites31 := header("sites31", "RTRC\x01\xff\xff\xff\xff\x07\x08")
	big := []string{"-kernel", "matmul", "-n", "10000", "-tiles", "100,100,100"}
	for _, c := range []struct {
		args  []string
		bound string
	}{
		{[]string{"-replay", addr62}, "limit 268435456"},
		{[]string{"-replay", addr62, "-engine", "sampled"}, "limit 268435456"},
		{[]string{"-replay", addr62, "-l1-kb", "1", "-l2-kb", "2"}, "limit 268435456"},
		{[]string{"-replay", addr62, "-engine", "analytic", "-l1-kb", "1", "-l2-kb", "2"}, "limit 268435456"},
		{[]string{"-replay", sites31}, "limit 65536"},
		{big, "limit 268435456"},
		{append(big, "-dump", filepath.Join(dir, "big.trace")), "limit 268435456"},
		{append(big, "-engine", "analytic", "-dump", filepath.Join(dir, "big.trace")), "limit 268435456"},
	} {
		out, err := tracesim(t, c.args...)
		if err == nil || !strings.Contains(err.Error(), c.bound) {
			t.Errorf("%v: got %v (output %q), want an error naming %q", c.args, err, out, c.bound)
		}
	}
	if out, err := tracesim(t, append(big, "-engine", "analytic")...); err != nil || !strings.Contains(out, "address space 300000000 elements") {
		t.Errorf("analytic engine over the budget: %v, %q", err, out)
	}
}

// TestCacheKBList: -cache-kb follows cachechar's rules. Parts are trimmed
// and empty ones skipped; a value of 0 or below, or a list left empty, is
// an error. 0 and -1 used to print a miss line for a 0 or -1 KB cache.
func TestCacheKBList(t *testing.T) {
	kernel := []string{"-kernel", "matmul", "-n", "8", "-tiles", "4,4,4"}
	for _, c := range []struct{ list, want string }{
		{"0", `bad -cache-kb value "0"`},
		{"-1", `bad -cache-kb value "-1"`},
		{"0,-1", `bad -cache-kb value "0"`},
		{"", "empty -cache-kb list"},
		{" , ", "empty -cache-kb list"},
		{"4,x", `bad -cache-kb value "x"`},
	} {
		for _, engine := range []string{"exact", "sampled", "analytic"} {
			_, err := tracesim(t, append(kernel, "-cache-kb", c.list, "-engine", engine)...)
			if err == nil || err.Error() != c.want {
				t.Errorf("-cache-kb %q -engine %s: got %v, want %q", c.list, engine, err, c.want)
			}
		}
	}
	want, err := tracesim(t, append(kernel, "-cache-kb", "1,2")...)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := tracesim(t, append(kernel, "-cache-kb", " 1, ,2,")...); err != nil || got != want {
		t.Errorf("-cache-kb \" 1, ,2,\": %v\n%s\nwant\n%s", err, got, want)
	}
}
