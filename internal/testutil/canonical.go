package testutil

import (
	"fmt"
	"sort"
	"strings"
	"unicode"

	"repro/internal/loopir"
)

// FormerUnparse is loopir.Unparse as it was before a nest rendered its text
// once into one builder, kept as the oracle of that renderer and of the
// text it caches: it walks the nest's fields on every call, with Fprintf
// into a builder and a string per reference, subscript and statement.
func FormerUnparse(n *loopir.Nest) string {
	var b strings.Builder
	name := strings.Map(func(r rune) rune {
		if unicode.IsLetter(r) || unicode.IsDigit(r) || r == '_' {
			return r
		}
		return '_'
	}, n.Name)
	fmt.Fprintf(&b, "nest %s\n", name)
	names := make([]string, 0, len(n.Arrays))
	for name := range n.Arrays {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		a := n.Arrays[name]
		dims := make([]string, len(a.Dims))
		for i, d := range a.Dims {
			dims[i] = d.String()
		}
		fmt.Fprintf(&b, "array %s[%s]\n", name, strings.Join(dims, ", "))
	}
	var walk func(nodes []loopir.Node, indent string)
	walk = func(nodes []loopir.Node, indent string) {
		for _, nd := range nodes {
			switch v := nd.(type) {
			case *loopir.Loop:
				fmt.Fprintf(&b, "%sfor %s = %s {\n", indent, v.Index, v.Trip.String())
				walk(v.Body, indent+"  ")
				fmt.Fprintf(&b, "%s}\n", indent)
			case *loopir.Stmt:
				fmt.Fprintf(&b, "%s%s: %s\n", indent, v.Label, formerStmt(v))
			}
		}
	}
	walk(n.Root, "")
	return b.String()
}

func formerStmt(s *loopir.Stmt) string {
	var target *loopir.Ref
	var reads []string
	for i := range s.Refs {
		r := &s.Refs[i]
		if r.Mode == loopir.Read {
			reads = append(reads, formerRef(r))
		} else {
			target = r
		}
	}
	if target == nil {
		return strings.Join(reads, " * ")
	}
	if len(reads) == 0 {
		return formerRef(target) + " = 0"
	}
	return formerRef(target) + " += " + strings.Join(reads, " * ")
}

func formerRef(r *loopir.Ref) string {
	subs := make([]string, len(r.Subs))
	for i, sub := range r.Subs {
		var terms []string
		for _, t := range sub.Terms {
			if t.Stride == nil {
				terms = append(terms, t.Index)
			} else {
				terms = append(terms, t.Index+"*"+t.Stride.String())
			}
		}
		subs[i] = strings.Join(terms, " + ")
	}
	return r.Array + "[" + strings.Join(subs, ", ") + "]"
}

// FormerSymbolNames is Nest.SymbolNames as it was before a nest listed its
// symbols once: every symbol of the trip counts, array extents and
// strides, sorted, walked from the nest's fields on every call.
func FormerSymbolNames(n *loopir.Nest) []string {
	vars := map[string]bool{}
	for _, l := range n.Loops() {
		l.Trip.Vars(vars)
	}
	for _, a := range n.Arrays {
		for _, d := range a.Dims {
			d.Vars(vars)
		}
	}
	for _, s := range n.Stmts() {
		for _, r := range s.Refs {
			for _, sub := range r.Subs {
				for _, t := range sub.Terms {
					if t.Stride != nil {
						t.Stride.Vars(vars)
					}
				}
			}
		}
	}
	out := make([]string, 0, len(vars))
	for v := range vars {
		out = append(out, v)
	}
	sort.Strings(out)
	return out
}
