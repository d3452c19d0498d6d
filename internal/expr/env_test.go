package expr

import (
	"sort"
	"strconv"
	"strings"
	"testing"
)

// Key renders the bindings of the given symbols as a canonical, hashable
// string, e.g. "TI=32 TJ=8". Symbols are rendered in the order given (pass a
// sorted slice for a canonical key); a symbol with no binding renders as
// "name=?" so that partial environments never collide with complete ones.
//
// Key is the substrate of the model's evaluation caches: a component whose
// expressions mention only a subset of the symbols can be memoized on the
// key of that subset, so that re-evaluations under environments that differ
// only in irrelevant symbols hit the cache.
func (env Env) Key(names []string) string {
	var b strings.Builder
	for i, n := range names {
		if i > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(n)
		b.WriteByte('=')
		if v, ok := env[n]; ok {
			b.WriteString(strconv.FormatInt(v, 10))
		} else {
			b.WriteByte('?')
		}
	}
	return b.String()
}

// FullKey is Key over every bound symbol, in sorted order.
func (env Env) FullKey() string {
	names := make([]string, 0, len(env))
	for n := range env {
		names = append(names, n)
	}
	sort.Strings(names)
	return env.Key(names)
}

// Clone returns an independent copy of the environment.
func (env Env) Clone() Env {
	out := make(Env, len(env))
	for k, v := range env {
		out[k] = v
	}
	return out
}

// Merged returns a copy of env with the bindings of over applied on top.
// Neither input is modified.
func (env Env) Merged(over Env) Env {
	out := make(Env, len(env)+len(over))
	for k, v := range env {
		out[k] = v
	}
	for k, v := range over {
		out[k] = v
	}
	return out
}

func TestEnvKey(t *testing.T) {
	env := Env{"TI": 32, "TJ": 8, "N": 256}
	if got := env.Key([]string{"TI", "TJ"}); got != "TI=32 TJ=8" {
		t.Errorf("Key = %q", got)
	}
	if got := env.Key(nil); got != "" {
		t.Errorf("empty Key = %q", got)
	}
	// Missing bindings must not collide with bound ones.
	bound := Env{"TI": 32, "TK": 1}
	if env.Key([]string{"TI", "TK"}) == bound.Key([]string{"TI", "TK"}) {
		t.Error("missing binding collides with a bound value")
	}
	if got := env.Key([]string{"TK"}); got != "TK=?" {
		t.Errorf("missing Key = %q", got)
	}
}

func TestEnvFullKeySorted(t *testing.T) {
	a := Env{"B": 2, "A": 1}
	b := Env{"A": 1, "B": 2}
	if a.FullKey() != b.FullKey() {
		t.Errorf("FullKey not canonical: %q vs %q", a.FullKey(), b.FullKey())
	}
	if got := a.FullKey(); got != "A=1 B=2" {
		t.Errorf("FullKey = %q", got)
	}
}

func TestEnvCloneAndMerged(t *testing.T) {
	base := Env{"N": 8, "T": 2}
	c := base.Clone()
	c["N"] = 99
	if base["N"] != 8 {
		t.Error("Clone aliases the original")
	}
	m := base.Merged(Env{"T": 4, "X": 1})
	if m["N"] != 8 || m["T"] != 4 || m["X"] != 1 {
		t.Errorf("Merged = %v", m)
	}
	if base["T"] != 2 {
		t.Error("Merged modified the receiver")
	}
}
