package experiments

import (
	"os"
	"path/filepath"
	"testing"
)

func TestBuildKernelVariants(t *testing.T) {
	cases := []struct {
		kind  string
		n     int64
		tiles []int64
	}{
		{"matmul", 64, nil},
		{"matmul", 64, []int64{8, 16, 32}},
		{"twoindex", 64, nil},
		{"twoindex", 64, []int64{16, 16, 16, 16}},
		{"fourindex", 16, nil},
		{"ccsd", 8, nil},
		{"ccsd", 8, []int64{2, 2, 2, 2, 2, 2}},
	}
	for _, c := range cases {
		nest, env, err := BuildKernel(c.kind, c.n, c.tiles)
		if err != nil {
			t.Errorf("%s: %v", c.kind, err)
			continue
		}
		if err := nest.ValidateEnv(env); err != nil {
			t.Errorf("%s env: %v", c.kind, err)
		}
	}
}

// TestBuildKernelDefaultTiles: every kernel builds without tiles for every
// n from 8 to 512, since each default tile divides the bound it tiles; where
// the preferred sizes divide n they are the defaults unchanged.
func TestBuildKernelDefaultTiles(t *testing.T) {
	for _, kind := range []string{"matmul", "matmul-naive", "twoindex", "twoindexchain", "fourindex", "ccsd"} {
		for n := int64(8); n <= 512; n++ {
			nest, env, err := BuildKernel(kind, n, nil)
			if err != nil {
				t.Fatalf("%s n=%d: %v", kind, n, err)
			}
			if err := nest.ValidateEnv(env); err != nil {
				t.Fatalf("%s n=%d env: %v", kind, n, err)
			}
		}
	}
	for _, c := range []struct {
		kind string
		n    int64
		want map[string]int64
	}{
		{"matmul", 64, map[string]int64{"TI": 32, "TJ": 32, "TK": 32}},
		{"matmul", 16, map[string]int64{"TI": 16, "TJ": 16, "TK": 16}},
		{"matmul", 100, map[string]int64{"TI": 4, "TJ": 4, "TK": 4}},
		{"twoindex", 128, map[string]int64{"TI": 64, "TJ": 16, "TM": 16, "TN": 64}},
		{"twoindex", 96, map[string]int64{"TI": 32, "TJ": 16, "TM": 16, "TN": 32}},
		{"ccsd", 8, map[string]int64{"TA": 2, "TB": 2, "TI": 2, "TJ": 2, "TC": 2, "TD": 2}},
		{"ccsd", 10, map[string]int64{"TA": 2, "TB": 2, "TI": 1, "TJ": 1, "TC": 2, "TD": 2}},
	} {
		_, env, err := BuildKernel(c.kind, c.n, nil)
		if err != nil {
			t.Fatalf("%s n=%d: %v", c.kind, c.n, err)
		}
		for sym, v := range c.want {
			if env[sym] != v {
				t.Errorf("%s n=%d: default %s = %d, want %d", c.kind, c.n, sym, env[sym], v)
			}
		}
	}
}

func TestBuildKernelErrors(t *testing.T) {
	if _, _, err := BuildKernel("nope", 64, nil); err == nil {
		t.Error("unknown kernel accepted")
	}
	if _, _, err := BuildKernel("matmul", 64, []int64{1, 2}); err == nil {
		t.Error("wrong tile count accepted")
	}
	if _, _, err := BuildKernel("fourindex", 16, []int64{4}); err == nil {
		t.Error("fourindex with tiles accepted")
	}
	if _, _, err := BuildKernel("ccsd", 8, []int64{3, 2, 2, 2, 2, 2}); err == nil {
		t.Error("non-dividing ccsd tile accepted")
	}
}

func TestParseHelpers(t *testing.T) {
	ts, err := ParseTiles("4, 8,16")
	if err != nil || len(ts) != 3 || ts[2] != 16 {
		t.Fatalf("tiles %v %v", ts, err)
	}
	if _, err := ParseTiles("4,x"); err == nil {
		t.Error("bad tile accepted")
	}
	if ts, err := ParseTiles(""); err != nil || ts != nil {
		t.Error("empty tiles should be nil")
	}
	defs, err := ParseDefines([]string{"N=64", " TI = 8 "})
	if err != nil || defs["N"] != 64 || defs["TI"] != 8 {
		t.Fatalf("defines %v %v", defs, err)
	}
	if _, err := ParseDefines([]string{"N"}); err == nil {
		t.Error("missing value accepted")
	}
	if _, err := ParseDefines([]string{"N=x"}); err == nil {
		t.Error("bad value accepted")
	}
}

func TestLoadNestFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "n.loop")
	src := `
nest filetest
array A[N]
for i = N {
  S1: A[i] = 0
}
`
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	nest, env, err := LoadNestFile(path, map[string]int64{"N": 8})
	if err != nil {
		t.Fatal(err)
	}
	if nest.Name != "filetest" || env["N"] != 8 {
		t.Fatalf("nest %s env %v", nest.Name, env)
	}
	// Missing symbol binding is reported.
	if _, _, err := LoadNestFile(path, nil); err == nil {
		t.Error("unbound symbols accepted")
	}
	// Missing file.
	if _, _, err := LoadNestFile(filepath.Join(dir, "absent"), nil); err == nil {
		t.Error("missing file accepted")
	}
	// Unparsable file.
	bad := filepath.Join(dir, "bad.loop")
	if err := os.WriteFile(bad, []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := LoadNestFile(bad, nil); err == nil {
		t.Error("garbage accepted")
	}
}
