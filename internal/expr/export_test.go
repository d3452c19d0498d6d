package expr

// VarSlow is Var without its intern-table lookup: the one-term polynomial
// built, rendered and interned, as every call did before the lookup.
func VarSlow(name string) *Expr { return newPoly(poly{name: 1}) }
