package loopir

import "fmt"

// RefSite identifies a static reference: statement plus position within the
// statement's reference list. It is the unit at which the model reports
// partitions and at which the trace generator labels accesses.
type RefSite struct {
	Stmt   *Stmt
	RefIdx int
}

// Ref returns the referenced Ref.
func (s RefSite) Ref() *Ref { return &s.Stmt.Refs[s.RefIdx] }

// Key returns a stable identifier "S7#2" usable as a map key across the
// model and the simulator.
func (s RefSite) Key() string {
	return fmt.Sprintf("%s#%d", s.Stmt.Label, s.RefIdx)
}

func (s RefSite) String() string {
	return fmt.Sprintf("%s %s", s.Key(), s.Ref())
}

// Sites returns every static reference site of the nest in program order.
func (n *Nest) Sites() []RefSite {
	var out []RefSite
	for _, st := range n.stmts {
		for i := range st.Refs {
			out = append(out, RefSite{Stmt: st, RefIdx: i})
		}
	}
	return out
}
