package loopir

import (
	"sort"
	"strconv"
	"strings"

	"repro/internal/expr"
)

// Spec is the wire form of an analyzable problem: a loop nest in the
// textual format of parse.go plus concrete symbol bindings. It is the
// request vocabulary of the serving layer (internal/service): clients POST
// a Spec, the service canonicalizes it, and the canonical form keys the
// response cache so that syntactically different but equivalent requests
// coalesce onto one computation.
type Spec struct {
	// Nest is the nest source in the textual format accepted by Parse.
	Nest string `json:"nest"`
	// Env binds the nest's symbols (loop bounds, tile sizes) to values.
	Env map[string]int64 `json:"env,omitempty"`
}

// Canonicalize returns the canonical form of the spec together with the
// parsed nest:
//
//   - the nest source is re-rendered by Unparse, which sorts array
//     declarations by name, prints every expression in its canonical form,
//     normalizes layout and drops comments;
//   - the environment is restricted to the symbols the nest actually
//     mentions (extra bindings cannot change any result, so they must not
//     differentiate cache keys).
//
// Canonicalization is a fixed point: canonicalizing a canonical spec
// reproduces it byte-for-byte (FuzzNestSpecJSONRoundTrip pins this), and
// two specs describing the same nest and relevant bindings — regardless of
// array declaration order, whitespace, comments, or env key order —
// canonicalize identically.
func (s *Spec) Canonicalize() (*Spec, *Nest, error) {
	nest, err := Parse(s.Nest)
	if err != nil {
		return nil, nil, err
	}
	return SpecOf(nest, s.Env), nest, nil
}

// Key renders the spec's key without re-canonicalizing. It is only
// meaningful on a spec that is already canonical (the result of
// Canonicalize or SpecOf); the serving layer calls it on resolved requests
// so the per-request hot path parses the nest once, not twice. For an
// arbitrary spec canonicalize it first.
func (c *Spec) Key() string { return c.packKey() }

// packKey renders an already-canonical spec's key.
func (c *Spec) packKey() string {
	names := make([]string, 0, len(c.Env))
	for name := range c.Env {
		names = append(names, name)
	}
	sort.Strings(names)
	var b strings.Builder
	b.WriteString(c.Nest)
	b.WriteByte(0)
	for i, name := range names {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(name)
		b.WriteByte('=')
		b.WriteString(strconv.FormatInt(c.Env[name], 10))
	}
	return b.String()
}

// ExprEnv converts the spec's bindings into an expr.Env.
func (s *Spec) ExprEnv() expr.Env {
	env := expr.Env{}
	for k, v := range s.Env {
		env[k] = v
	}
	return env
}

// SpecOf renders a nest and environment as a canonical Spec: the inverse
// boundary of Canonicalize for callers that already hold a parsed nest (the
// service resolves built-in kernels this way). The nest's source and
// symbols are rendered once per nest, so a shared nest costs only the
// bindings.
func SpecOf(nest *Nest, env expr.Env) *Spec {
	s := &Spec{Nest: Unparse(nest)}
	symbols := nest.symbolList()
	for _, name := range symbols {
		if v, ok := env[name]; ok {
			if s.Env == nil {
				s.Env = make(map[string]int64, len(symbols))
			}
			s.Env[name] = v
		}
	}
	return s
}
