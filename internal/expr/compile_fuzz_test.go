package expr

import (
	"errors"
	"math"
	"math/rand"
	"testing"
)

// Differential testing of compiled programs against the tree-walking Eval.
//
// The property: for any expression and any (possibly partial) environment,
// Program.Eval and Expr.Eval agree on the value when both succeed, and on
// the *class* of failure otherwise. Exact error equality holds for division
// by zero (deterministic rendering); for unbound symbols only the type is
// compared, because the tree walk discovers the missing symbol in Go map
// iteration order while the compiled form uses sorted monomial order — the
// same evaluations fail, but possibly blaming a different symbol of the
// same polynomial.

var fuzzSyms = []string{"N", "M", "TI", "TJ", "TK", "P"}

// genExpr derives a random expression from r, exercising every node kind
// including Inf (which the constructors may fold away) and divisions that
// can hit zero at evaluation time.
func genExpr(r *rand.Rand, depth int) *Expr {
	if depth == 0 || r.Intn(4) == 0 {
		switch r.Intn(6) {
		case 0:
			return Const(int64(r.Intn(9) - 3))
		case 1:
			return Const(int64(math.MaxInt64)) // drive the short-circuit paths
		case 2:
			return Inf()
		default:
			return Var(fuzzSyms[r.Intn(len(fuzzSyms))])
		}
	}
	a := genExpr(r, depth-1)
	b := genExpr(r, depth-1)
	switch r.Intn(5) {
	case 0:
		return Add(a, b)
	case 1:
		return Sub(a, b)
	case 2:
		return Mul(a, b)
	case 3:
		return Div(a, nonConstZero(b))
	default:
		return CeilDiv(a, nonConstZero(b))
	}
}

// nonConstZero swaps a constant-zero divisor for 1: Div panics on a constant
// zero denominator at construction, which is not the behavior under test.
// Symbolic divisors that *evaluate* to zero stay, deliberately.
func nonConstZero(e *Expr) *Expr {
	if v, ok := e.ConstVal(); ok && v == 0 {
		return One()
	}
	return e
}

func genEnv(r *rand.Rand) Env {
	env := Env{}
	for _, s := range fuzzSyms {
		switch r.Intn(6) {
		case 0: // leave unbound
		case 1:
			env[s] = 0 // provoke division by zero
		case 2:
			env[s] = math.MaxInt64
		default:
			env[s] = int64(r.Intn(13) - 4)
		}
	}
	return env
}

func checkCompiledVsTree(t *testing.T, e *Expr, env Env) {
	t.Helper()
	tab := NewSymTab()
	p := Compile(e, tab)
	f := tab.FrameOf(env)

	tv, tErr := e.Eval(env)
	cv, cErr := p.Eval(f)

	switch {
	case tErr == nil && cErr == nil:
		if tv != cv {
			t.Fatalf("value mismatch for %s under %v: tree=%d compiled=%d", e, env, tv, cv)
		}
	case tErr != nil && cErr != nil:
		var tu, cu *ErrUnbound
		tIsU, cIsU := errors.As(tErr, &tu), errors.As(cErr, &cu)
		if tIsU != cIsU {
			t.Fatalf("error class mismatch for %s under %v: tree=%v compiled=%v", e, env, tErr, cErr)
		}
		if !tIsU && tErr.Error() != cErr.Error() {
			t.Fatalf("error text mismatch for %s under %v:\ntree:     %v\ncompiled: %v", e, env, tErr, cErr)
		}
		if tIsU {
			if _, bound := env[cu.Name]; bound {
				t.Fatalf("compiled blamed bound symbol %q for %s under %v", cu.Name, e, env)
			}
		}
	default:
		t.Fatalf("error occurrence mismatch for %s under %v: tree=%v compiled=%v", e, env, tErr, cErr)
	}

	// Re-evaluating on the same frame must be stable (the scratch stack is
	// reused; stale state must not leak between runs).
	cv2, cErr2 := p.Eval(f)
	if (cErr2 == nil) != (cErr == nil) || cv2 != cv {
		t.Fatalf("compiled eval not idempotent for %s: first=(%d,%v) second=(%d,%v)", e, cv, cErr, cv2, cErr2)
	}
}

// TestCompiledVsTreeRandom is the always-on property test: a few thousand
// random (expression, environment) pairs per run of go test.
func TestCompiledVsTreeRandom(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 4000; i++ {
		e := genExpr(r, 4)
		checkCompiledVsTree(t, e, genEnv(r))
	}
}

// FuzzCompiledVsTree lets the fuzzer drive the generator seed and depth for
// longer explorations (make fuzz-smoke style).
func FuzzCompiledVsTree(f *testing.F) {
	f.Add(int64(1), uint8(3))
	f.Add(int64(42), uint8(5))
	f.Add(int64(-7), uint8(2))
	f.Fuzz(func(t *testing.T, seed int64, depth uint8) {
		r := rand.New(rand.NewSource(seed))
		e := genExpr(r, int(depth%6))
		checkCompiledVsTree(t, e, genEnv(r))
	})
}
