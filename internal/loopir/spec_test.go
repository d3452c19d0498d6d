package loopir

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"testing"
)

const specMatmulSrc = `nest matmul
array A[N, N]
array B[N, N]
array C[N, N]
for iT = ceil(N/TI) {
  for jT = ceil(N/TJ) {
    for kT = ceil(N/TK) {
      for iI = TI { for jI = TJ { for kI = TK {
        S0: C[iT*TI + iI, jT*TJ + jI] += A[iT*TI + iI, kT*TK + kI] * B[kT*TK + kI, jT*TJ + jI]
      } } }
    }
  }
}
`

// decodeSpec parses the JSON encoding of a Spec and its nest text. The
// returned nest is the parsed (but not canonicalized) form.
func decodeSpec(data []byte) (*Spec, *Nest, error) {
	var s Spec
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return nil, nil, fmt.Errorf("loopir: decode spec: %w", err)
	}
	if strings.TrimSpace(s.Nest) == "" {
		return nil, nil, fmt.Errorf("loopir: spec has empty nest source")
	}
	nest, err := Parse(s.Nest)
	if err != nil {
		return nil, nil, err
	}
	return &s, nest, nil
}

// canonicalKey is Canonicalize followed by Key: the key of any spec.
func canonicalKey(s *Spec) (string, error) {
	c, _, err := s.Canonicalize()
	if err != nil {
		return "", err
	}
	return c.Key(), nil
}

// mustSpecJSON builds a spec JSON body for tests.
func mustSpecJSON(t testing.TB, nest string, env map[string]int64) []byte {
	t.Helper()
	b, err := json.Marshal(Spec{Nest: nest, Env: env})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestSpecDecodeCanonicalizeEncodeFixedPoint(t *testing.T) {
	data := mustSpecJSON(t, specMatmulSrc, map[string]int64{"N": 64, "TI": 8, "TJ": 8, "TK": 8})
	s, _, err := decodeSpec(data)
	if err != nil {
		t.Fatal(err)
	}
	c1, _, err := s.Canonicalize()
	if err != nil {
		t.Fatal(err)
	}
	enc1, err := json.Marshal(c1)
	if err != nil {
		t.Fatal(err)
	}
	s2, _, err := decodeSpec(enc1)
	if err != nil {
		t.Fatalf("canonical encoding does not decode: %v", err)
	}
	c2, _, err := s2.Canonicalize()
	if err != nil {
		t.Fatalf("canonical encoding does not re-canonicalize: %v", err)
	}
	enc2, err := json.Marshal(c2)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(enc1, enc2) {
		t.Errorf("canonicalize is not a fixed point:\nfirst:  %s\nsecond: %s", enc1, enc2)
	}
}

// TestSpecCanonicalKeyOrderInsensitive: equivalent specs — same parsed nest
// and same relevant bindings, spelled with different array declaration
// order, whitespace, comments and irrelevant env entries — must share one
// canonical key.
func TestSpecCanonicalKeyOrderInsensitive(t *testing.T) {
	a := Spec{
		Nest: "nest small\narray A[N]\narray B[N]\nfor i = N {\n  S0: B[i] += A[i]\n}\n",
		Env:  map[string]int64{"N": 32},
	}
	b := Spec{
		// Arrays declared in the opposite order, extra whitespace, a
		// comment, and an env binding for a symbol the nest never mentions.
		Nest: "# comment\nnest small\narray B[N]\narray A[N]\n\nfor i = N {\n    S0:   B[i] += A[i]\n}\n",
		Env:  map[string]int64{"N": 32, "JUNK": 7},
	}
	ka, err := canonicalKey(&a)
	if err != nil {
		t.Fatal(err)
	}
	kb, err := canonicalKey(&b)
	if err != nil {
		t.Fatal(err)
	}
	if ka != kb {
		t.Errorf("equivalent specs have different canonical keys:\n%q\n%q", ka, kb)
	}

	// A genuinely different binding must change the key.
	c := Spec{Nest: a.Nest, Env: map[string]int64{"N": 64}}
	kc, err := canonicalKey(&c)
	if err != nil {
		t.Fatal(err)
	}
	if kc == ka {
		t.Error("different env produced the same canonical key")
	}
}

func TestSpecDecodeRejectsBadInput(t *testing.T) {
	cases := []string{
		``,
		`{`,
		`{"env":{"N":1}}`,                     // no nest source
		`{"nest":"not a nest"}`,               // parse failure
		`{"nest":"nest x\nfor i = N { }"}`,    // no statements
		`{"nest":"nest x","unknown":"field"}`, // unknown JSON field
	}
	for _, src := range cases {
		if _, _, err := decodeSpec([]byte(src)); err == nil {
			t.Errorf("decodeSpec(%q) succeeded, want error", src)
		}
	}
}

func TestSpecOfMatchesCanonicalize(t *testing.T) {
	s, _, err := decodeSpec(mustSpecJSON(t, specMatmulSrc, map[string]int64{"N": 64, "TI": 8, "TJ": 8, "TK": 8, "X": 1}))
	if err != nil {
		t.Fatal(err)
	}
	c, nest, err := s.Canonicalize()
	if err != nil {
		t.Fatal(err)
	}
	viaNest := SpecOf(nest, s.ExprEnv())
	if viaNest.packKey() != c.packKey() {
		t.Errorf("SpecOf key %q != Canonicalize key %q", viaNest.packKey(), c.packKey())
	}
}

// FuzzNestSpecJSONRoundTrip: for any decodable spec, decode → canonicalize
// → encode must be a fixed point (the canonical encoding decodes, its
// canonicalization is itself, and its encoding reproduces the same bytes),
// and the canonical key must be stable across the round trip.
func FuzzNestSpecJSONRoundTrip(f *testing.F) {
	f.Add(mustSpecJSON(f, specMatmulSrc, map[string]int64{"N": 64, "TI": 8, "TJ": 8, "TK": 8}))
	f.Add(mustSpecJSON(f, "nest small\narray A[N]\narray B[N]\nfor i = N {\n  S0: B[i] += A[i]\n}\n", map[string]int64{"N": 32}))
	f.Add(mustSpecJSON(f, "nest init\narray T[TI, TN]\nfor iI = TI { for nI = TN {\n  S5: T[iI, nI] = 0\n} }\n", nil))
	f.Add(mustSpecJSON(f, "nest scalar\narray T[M]\nfor i = ceil(M/2) {\n  S0: T[] += T[i*2]\n}\n", map[string]int64{"M": 16}))
	f.Add([]byte(`{"nest":"# junk"}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		s, _, err := decodeSpec(data)
		if err != nil {
			t.Skip() // undecodable inputs are out of scope
		}
		c1, _, err := s.Canonicalize()
		if err != nil {
			// DecodeSpec already parsed this source; Canonicalize re-parses
			// the same text, so failure here is a real bug.
			t.Fatalf("Canonicalize failed on decoded spec: %v", err)
		}
		enc1, err := json.Marshal(c1)
		if err != nil {
			t.Fatalf("Encode: %v", err)
		}
		s2, _, err := decodeSpec(enc1)
		if err != nil {
			t.Fatalf("canonical encoding does not decode: %v\nencoding: %s", err, enc1)
		}
		c2, _, err := s2.Canonicalize()
		if err != nil {
			t.Fatalf("canonical encoding does not canonicalize: %v\nencoding: %s", err, enc1)
		}
		enc2, err := json.Marshal(c2)
		if err != nil {
			t.Fatalf("Encode: %v", err)
		}
		if !bytes.Equal(enc1, enc2) {
			t.Fatalf("canonicalize not a fixed point:\nfirst:  %s\nsecond: %s", enc1, enc2)
		}
		k1, err := canonicalKey(s)
		if err != nil {
			t.Fatalf("CanonicalKey on original: %v", err)
		}
		if k2 := c2.Key(); k1 != k2 {
			t.Fatalf("canonical key unstable across round trip:\n%q\n%q", k1, k2)
		}
	})
}
