package loopir

import (
	"fmt"
	"sort"
	"strings"
)

// Dependence diagnostics for the supported class. The TCE guarantees that
// the loops it generates are fully permutable with no fusion-preventing
// dependences (§2 of the paper); for user-written nests these checks
// surface the places where that guarantee must be argued rather than
// assumed. They are conservative: an empty hazard list means the transform
// is provably safe under the class's semantics; a non-empty list means a
// human (or a cleverer analysis) must decide.

// FusionHazards inspects two sibling loops that FuseLegal would merge
// (same index name and trip) and reports the array/dimension pairs whose
// dependence structure fusion could violate:
//
//   - a write in one loop and any access in the other to the same array
//     where some dimension's use of the fused index differs (one side uses
//     it, the other does not, or with a different term structure): after
//     fusion the access at iteration i may see a different element state
//     than before;
//   - a read-modify-write (Update) in the producer paired with a read in
//     the consumer on a dimension not indexed by the fused loop: the
//     consumer would observe partial accumulations.
//
// Aligned dimensions — both sides using the fused index with identical
// term structure — are safe: iteration i touches the same elements on both
// sides before and after fusion.
func FusionHazards(n *Nest, a, b *Loop) []string {
	if a.Index != b.Index || !a.Trip.Equal(b.Trip) {
		return []string{fmt.Sprintf("loops %s and %s are not fusable siblings", a.Index, b.Index)}
	}
	type access struct {
		ref  *Ref
		site string
	}
	collect := func(l *Loop) map[string][]access {
		out := map[string][]access{}
		var walk func(nodes []Node)
		walk = func(nodes []Node) {
			for _, nd := range nodes {
				switch v := nd.(type) {
				case *Loop:
					walk(v.Body)
				case *Stmt:
					for i := range v.Refs {
						r := &v.Refs[i]
						out[r.Array] = append(out[r.Array], access{r, fmt.Sprintf("%s#%d", v.Label, i)})
					}
				}
			}
		}
		walk(l.Body)
		return out
	}
	accA := collect(a)
	accB := collect(b)

	var hazards []string
	arrays := map[string]bool{}
	for name := range accA {
		if _, ok := accB[name]; ok {
			arrays[name] = true
		}
	}
	names := make([]string, 0, len(arrays))
	for name := range arrays {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		for _, x := range accA[name] {
			for _, y := range accB[name] {
				if x.ref.Mode == Read && y.ref.Mode == Read {
					continue
				}
				if h := pairHazard(a.Index, x.ref, y.ref); h != "" {
					hazards = append(hazards,
						fmt.Sprintf("%s: %s vs %s: %s", name, x.site, y.site, h))
				}
			}
		}
	}
	return hazards
}

// PermutationHazards decides whether a perfect nest is fully permutable
// under the class's statement semantics (the executable form: the written
// reference W and read references R1..Rk mean W (+)= R1·…·Rk). The check
// is order-independent — an empty list legalizes every loop order at once:
//
//   - an Update target is a reduction; reordering only reassociates the
//     accumulation, which the class treats as order-insensitive (§2);
//   - a Write target with no reads stores a constant, so repeated or
//     reordered stores land the same value;
//   - a Write target whose value varies with a loop the target's subscripts
//     do not mention is last-iteration-wins: reordering changes which
//     iteration's value survives — a hazard naming that loop;
//   - a read of the written array through different subscripts is a true
//     read/write dependence whose direction reordering can flip — a hazard.
//
// Like FusionHazards, the check is conservative: an empty list is a proof,
// a non-empty list is a request for human judgment.
func PermutationHazards(n *Nest) []string {
	_, stmt, ok := n.IsPerfect()
	if !ok {
		return []string{fmt.Sprintf("nest %s is not perfect: %s", n.Name, PerfectDefect(n))}
	}
	var hazards []string
	var target *Ref
	for i := range stmt.Refs {
		r := &stmt.Refs[i]
		if r.Mode != Write && r.Mode != Update {
			continue
		}
		if target != nil {
			hazards = append(hazards,
				fmt.Sprintf("%s writes both %s and %s; multi-store statements are outside the class", stmt.Label, target.Array, r.Array))
			continue
		}
		target = r
	}
	if target == nil {
		// A statement with no store changes no state; any order reads the
		// same values.
		return hazards
	}
	targetSig := refSignature(target)
	tUses := map[string]bool{}
	for _, sub := range target.Subs {
		for _, t := range sub.Terms {
			tUses[t.Index] = true
		}
	}
	for i := range stmt.Refs {
		r := &stmt.Refs[i]
		if r.Mode != Read {
			continue
		}
		if r.Array == target.Array && refSignature(r) != targetSig {
			hazards = append(hazards,
				fmt.Sprintf("%s reads %s[%s] while storing %s[%s]; the dependence direction depends on loop order",
					stmt.Label, r.Array, refSignature(r), target.Array, targetSig))
		}
		if target.Mode != Write {
			continue
		}
		for _, sub := range r.Subs {
			for _, t := range sub.Terms {
				if !tUses[t.Index] {
					hazards = append(hazards,
						fmt.Sprintf("loop %s varies the value assigned to %s but not its location; the last iteration in %s wins",
							t.Index, target.Array, t.Index))
				}
			}
		}
	}
	return dedupeStrings(hazards)
}

// refSignature renders a reference's subscripts canonically (terms sorted
// within each dimension) so aliasing checks compare structure, not term
// order.
func refSignature(r *Ref) string {
	subs := make([]string, len(r.Subs))
	for i, sub := range r.Subs {
		terms := make([]string, len(sub.Terms))
		for j, t := range sub.Terms {
			terms[j] = t.Index
			if t.Stride != nil {
				terms[j] += "*" + t.Stride.String()
			}
		}
		sort.Strings(terms)
		subs[i] = strings.Join(terms, "+")
	}
	return strings.Join(subs, ",")
}

func dedupeStrings(in []string) []string {
	seen := map[string]bool{}
	var out []string
	for _, s := range in {
		if !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	return out
}

// pairHazard checks one writer/accessor pair dimension by dimension.
func pairHazard(fused string, w, r *Ref) string {
	usesFused := func(sub Subscript) (bool, string) {
		var terms []string
		uses := false
		for _, t := range sub.Terms {
			s := t.Index
			if t.Stride != nil {
				s += "*" + t.Stride.String()
			}
			terms = append(terms, s)
			if t.Index == fused {
				uses = true
			}
		}
		sort.Strings(terms)
		return uses, strings.Join(terms, "+")
	}
	anyAligned := false
	for d := range w.Subs {
		if d >= len(r.Subs) {
			break
		}
		wUses, wSig := usesFused(w.Subs[d])
		rUses, rSig := usesFused(r.Subs[d])
		switch {
		case wUses && rUses:
			if wSig != rSig {
				return fmt.Sprintf("dimension %d uses the fused index with different structure (%s vs %s)", d, wSig, rSig)
			}
			anyAligned = true
		case wUses != rUses:
			return fmt.Sprintf("dimension %d uses the fused index on one side only", d)
		}
	}
	if !anyAligned {
		// No dimension ties the two sides to the same fused iteration, so
		// fusion interleaves accesses that were fully ordered before: the
		// second loop's iteration k runs between the first loop's k and k+1,
		// and with a store on either side the interleaving is observable
		// (a read sees intermediate stores, an accumulation is consumed
		// half-done). This holds for plain writes too, not just updates —
		// the executor-based corpus cross-check catches the Write/Read case.
		return "no dimension is indexed by the fused loop; per-iteration interleaving would be observable"
	}
	return ""
}
