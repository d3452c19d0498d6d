// Package loopir defines the loop-nest intermediate representation analyzed
// by the cache-miss model. A nest is a tree whose internal nodes are loops
// and whose leaves are statements containing array references. The class of
// programs representable here is exactly the class the paper targets: loop
// bounds may be symbolic, nests may be imperfect (a loop body may contain
// several statements and sub-loops), and every array subscript is a linear
// combination of enclosing loop indices — in practice either one loop index
// (`A[i,j]`) or a tile pair (`A[iT*TI + iI, ...]`).
//
// Loops iterate from 0 to Trip-1; subscripts are 0-based. All symbolic
// quantities are expressions from internal/expr.
package loopir

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"

	"repro/internal/expr"
)

// Node is a loop-tree node: either *Loop or *Stmt.
type Node interface {
	isNode()
}

// Loop is a counted loop running its body Trip times with a named index.
type Loop struct {
	Index string     // loop index name, unique within a nest
	Trip  *expr.Expr // symbolic trip count; index ranges over [0, Trip)
	Body  []Node
}

func (*Loop) isNode() {}

// AccessMode describes how a reference touches memory. The cache model does
// not distinguish reads and writes (a += both reads and writes the same
// element and counts as a single touch), but trace consumers may.
type AccessMode int

const (
	// Read is a load.
	Read AccessMode = iota
	// Write is a store.
	Write
	// Update is a read-modify-write of a single element (+=).
	Update
)

func (m AccessMode) String() string {
	switch m {
	case Read:
		return "read"
	case Write:
		return "write"
	case Update:
		return "update"
	}
	return "invalid"
}

// Stmt is a leaf statement; executing it touches each Ref once, in order.
type Stmt struct {
	ID    int    // sequence number in program order, assigned by NewNest
	Label string // human-readable label, e.g. "S7"
	Refs  []Ref
	Flops int // floating-point operations per execution, for time models
}

func (*Stmt) isNode() {}

// Ref is a static array reference inside a statement.
type Ref struct {
	Array string
	Mode  AccessMode
	Subs  []Subscript
}

// Subscript is one array dimension's index expression: the sum over Terms of
// Stride * value(Index).
type Subscript struct {
	Terms []Term
}

// Term is one linear term of a subscript.
type Term struct {
	Index  string
	Stride *expr.Expr // nil means stride 1
}

// Idx builds the common single-index subscript with stride 1.
func Idx(index string) Subscript {
	return Subscript{Terms: []Term{{Index: index}}}
}

// ConstIdx builds the constant-zero subscript, used for scalars produced by
// loop fusion (an intermediate contracted to a single element).
func ConstIdx() Subscript {
	return Subscript{}
}

// TilePair builds the subscript tileIdx*stride + intraIdx used by tiled
// code: the tile loop contributes its index scaled by the tile size and the
// intra-tile loop contributes stride 1.
func TilePair(tileIdx string, tileSize *expr.Expr, intraIdx string) Subscript {
	return Subscript{Terms: []Term{
		{Index: tileIdx, Stride: tileSize},
		{Index: intraIdx},
	}}
}

// Array declares the extent of an array; extents are symbolic and row-major
// layout is assumed for address mapping.
type Array struct {
	Name string
	Dims []*expr.Expr
}

// Elements returns the symbolic element count of the array.
func (a *Array) Elements() *expr.Expr {
	n := expr.One()
	for _, d := range a.Dims {
		n = expr.Mul(n, d)
	}
	return n
}

// Nest is a complete analyzable program: array declarations plus a loop
// tree. Construct with NewNest, which assigns statement IDs, builds parent
// links, and validates the class constraints.
type Nest struct {
	Name   string
	Arrays map[string]*Array
	Root   []Node

	stmts   []*Stmt
	loops   []*Loop
	parent  map[Node]*Loop // nil parent = top level
	encl    map[*Stmt][]*Loop
	loopByI map[string]*Loop
	refStmt map[string][]*Stmt // array name -> statements touching it, program order

	sourceOnce  sync.Once
	source      string // Unparse's text, rendered on its first call
	symbolsOnce sync.Once
	symbols     []string // the sorted symbol names, listed by symbolList
}

// NewNest builds and validates a nest. The arrays slice declares every array
// referenced anywhere in the tree, and every statement label must be
// unique, since the per-site answers key a site by its label.
//
// A built nest is immutable: NewNest takes ownership of the arrays and
// nodes it is given, and nothing may change them, or the nest's fields,
// afterwards. The transformations (PermutePerfect, FuseLegal, TileAll) clone
// the statements they reuse, so one nest can be shared by any number of
// concurrent readers, transformations and analyses.
func NewNest(name string, arrays []*Array, root []Node) (*Nest, error) {
	n := &Nest{
		Name:    name,
		Arrays:  map[string]*Array{},
		Root:    root,
		parent:  map[Node]*Loop{},
		encl:    map[*Stmt][]*Loop{},
		loopByI: map[string]*Loop{},
		refStmt: map[string][]*Stmt{},
	}
	for _, a := range arrays {
		if a == nil || a.Name == "" {
			return nil, fmt.Errorf("loopir: nil or unnamed array declaration")
		}
		if len(a.Dims) == 0 {
			return nil, fmt.Errorf("loopir: array %s has no dimensions", a.Name)
		}
		if _, dup := n.Arrays[a.Name]; dup {
			return nil, fmt.Errorf("loopir: duplicate array %s", a.Name)
		}
		n.Arrays[a.Name] = a
	}
	id := 0
	var walk func(nodes []Node, p *Loop, stack []*Loop) error
	walk = func(nodes []Node, p *Loop, stack []*Loop) error {
		for _, nd := range nodes {
			switch v := nd.(type) {
			case *Loop:
				if v.Index == "" {
					return fmt.Errorf("loopir: loop with empty index")
				}
				if v.Trip == nil {
					return fmt.Errorf("loopir: loop %s has nil trip count", v.Index)
				}
				// Sibling subtrees may reuse an index name (the paper's
				// Fig. 6 reuses iI and nI across sub-nests), but shadowing
				// within one path is forbidden and same-named loops must
				// have identical trip counts so that symbolic treatment by
				// name is coherent.
				for _, anc := range stack {
					if anc.Index == v.Index {
						return fmt.Errorf("loopir: duplicate loop index %s nested within itself", v.Index)
					}
				}
				if prev, dup := n.loopByI[v.Index]; dup {
					if !prev.Trip.Equal(v.Trip) {
						return fmt.Errorf("loopir: loops named %s have different trip counts (%s vs %s)",
							v.Index, prev.Trip, v.Trip)
					}
				} else {
					n.loopByI[v.Index] = v
				}
				n.loops = append(n.loops, v)
				n.parent[v] = p
				if err := walk(v.Body, v, append(stack, v)); err != nil {
					return err
				}
			case *Stmt:
				v.ID = id
				id++
				if v.Label == "" {
					v.Label = fmt.Sprintf("S%d", v.ID)
				}
				n.stmts = append(n.stmts, v)
				n.parent[v] = p
				n.encl[v] = append([]*Loop(nil), stack...)
				for ri := range v.Refs {
					if err := n.checkRef(&v.Refs[ri], v, stack); err != nil {
						return err
					}
				}
				touched := map[string]bool{}
				for _, r := range v.Refs {
					if !touched[r.Array] {
						touched[r.Array] = true
						n.refStmt[r.Array] = append(n.refStmt[r.Array], v)
					}
				}
			default:
				return fmt.Errorf("loopir: unknown node type %T", nd)
			}
		}
		return nil
	}
	if err := walk(root, nil, nil); err != nil {
		return nil, err
	}
	if len(n.stmts) == 0 {
		return nil, fmt.Errorf("loopir: nest %s has no statements", name)
	}
	labels := make(map[string]bool, len(n.stmts))
	for _, st := range n.stmts {
		if labels[st.Label] {
			return nil, fmt.Errorf("loopir: duplicate statement label %s", st.Label)
		}
		labels[st.Label] = true
	}
	return n, nil
}

func (n *Nest) checkRef(r *Ref, s *Stmt, stack []*Loop) error {
	arr, ok := n.Arrays[r.Array]
	if !ok {
		return fmt.Errorf("loopir: %s references undeclared array %s", s.Label, r.Array)
	}
	if len(r.Subs) != len(arr.Dims) {
		return fmt.Errorf("loopir: %s reference to %s has %d subscripts, array has %d dims",
			s.Label, r.Array, len(r.Subs), len(arr.Dims))
	}
	inScope := map[string]bool{}
	for _, l := range stack {
		inScope[l.Index] = true
	}
	seen := map[string]bool{}
	for _, sub := range r.Subs {
		// An empty term list is the constant-zero subscript (fused scalar).
		for _, t := range sub.Terms {
			if !inScope[t.Index] {
				return fmt.Errorf("loopir: %s ref %s uses index %s not in scope", s.Label, r.Array, t.Index)
			}
			if seen[t.Index] {
				return fmt.Errorf("loopir: %s ref %s uses index %s in two subscripts", s.Label, r.Array, t.Index)
			}
			seen[t.Index] = true
		}
	}
	return nil
}

// Stmts returns the statements in program order.
func (n *Nest) Stmts() []*Stmt { return n.stmts }

// Loops returns all loops in depth-first order.
func (n *Nest) Loops() []*Loop { return n.loops }

// Loop returns the loop with the given index name, or nil.
func (n *Nest) Loop(index string) *Loop { return n.loopByI[index] }

// Enclosing returns the loops enclosing s, outermost first.
func (n *Nest) Enclosing(s *Stmt) []*Loop { return n.encl[s] }

// Parent returns the innermost loop containing nd (nil at top level).
func (n *Nest) Parent(nd Node) *Loop { return n.parent[nd] }

// SymbolNames returns every symbol mentioned by trip counts, strides, or
// array extents, sorted. The list is computed once per nest; each call
// returns a copy the caller owns.
func (n *Nest) SymbolNames() []string { return slices.Clone(n.symbolList()) }

// symbolList returns the nest's sorted symbols, listed on first use. The
// nest is immutable, so the list stays valid for its lifetime; callers
// must not modify it.
func (n *Nest) symbolList() []string {
	n.symbolsOnce.Do(func() { n.symbols = n.listSymbols() })
	return n.symbols
}

func (n *Nest) listSymbols() []string {
	vars := map[string]bool{}
	for _, l := range n.loops {
		l.Trip.Vars(vars)
	}
	for _, a := range n.Arrays {
		for _, d := range a.Dims {
			d.Vars(vars)
		}
	}
	for _, s := range n.stmts {
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

// ValidateEnv checks that env binds every symbol of the nest to a positive
// value and that every trip count and array extent evaluates positive.
func (n *Nest) ValidateEnv(env expr.Env) error {
	for _, name := range n.symbolList() {
		v, ok := env[name]
		if !ok {
			return fmt.Errorf("loopir: env missing symbol %s", name)
		}
		if v <= 0 {
			return fmt.Errorf("loopir: symbol %s must be positive, got %d", name, v)
		}
	}
	for _, l := range n.loops {
		v, err := l.Trip.Eval(env)
		if err != nil {
			return err
		}
		if v <= 0 {
			return fmt.Errorf("loopir: loop %s trip %s evaluates to %d", l.Index, l.Trip, v)
		}
	}
	for _, a := range n.Arrays {
		for di, d := range a.Dims {
			v, err := d.Eval(env)
			if err != nil {
				return err
			}
			if v <= 0 {
				return fmt.Errorf("loopir: array %s dim %d extent %s evaluates to %d", a.Name, di, d, v)
			}
		}
	}
	return nil
}

// String renders the nest as indented pseudo-code, in the style of the
// paper's figures.
func (n *Nest) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "nest %s\n", n.Name)
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
		fmt.Fprintf(&b, "  double %s[%s]\n", name, strings.Join(dims, ", "))
	}
	var walk func(nodes []Node, indent string)
	walk = func(nodes []Node, indent string) {
		for _, nd := range nodes {
			switch v := nd.(type) {
			case *Loop:
				fmt.Fprintf(&b, "%sfor %s = 0, %s-1\n", indent, v.Index, v.Trip)
				walk(v.Body, indent+"  ")
			case *Stmt:
				refs := make([]string, len(v.Refs))
				for i := range v.Refs {
					refs[i] = v.Refs[i].String()
				}
				fmt.Fprintf(&b, "%s%s: %s\n", indent, v.Label, strings.Join(refs, ", "))
			}
		}
	}
	walk(n.Root, "  ")
	return b.String()
}

// String renders the reference, e.g. "A[iT*TI + iI, jT*TJ + jI] (read)".
func (r Ref) String() string {
	subs := make([]string, len(r.Subs))
	for i, s := range r.Subs {
		terms := make([]string, len(s.Terms))
		for j, t := range s.Terms {
			if t.Stride == nil {
				terms[j] = t.Index
			} else {
				terms[j] = t.Index + "*" + t.Stride.String()
			}
		}
		subs[i] = strings.Join(terms, " + ")
	}
	return fmt.Sprintf("%s[%s] (%s)", r.Array, strings.Join(subs, ", "), r.Mode)
}
