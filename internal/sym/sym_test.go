package sym

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestIntConst(t *testing.T) {
	s := Int(7)
	if v, ok := s.IsConst(); !ok || v != 7 {
		t.Fatalf("Int(7).IsConst() = %d, %v", v, ok)
	}
	if got := s.String(); got != "7" {
		t.Fatalf("Int(7).String() = %q", got)
	}
}

func TestAddSumFoldsConstants(t *testing.T) {
	s := AddSum(Int(3), Int(4))
	if v, ok := s.IsConst(); !ok || v != 7 {
		t.Fatalf("3+4 = %v (const=%v)", s, ok)
	}
}

func TestAddSumMergesAtoms(t *testing.T) {
	var p Pool
	x := p.NewVar("x")
	s := AddSum(VarTerm(x), VarTerm(x)) // x + x = 2x
	if len(s.Terms) != 1 || s.Terms[0].Coef != 2 {
		t.Fatalf("x+x = %v", s)
	}
	z := SubSum(s, ScaleSum(2, VarTerm(x))) // 2x - 2x = 0
	if v, ok := z.IsConst(); !ok || v != 0 {
		t.Fatalf("2x-2x = %v", z)
	}
}

func TestNormalizationIsCanonical(t *testing.T) {
	var p Pool
	x, y := p.NewVar("x"), p.NewVar("y")
	a := AddSum(VarTerm(x), VarTerm(y))
	b := AddSum(VarTerm(y), VarTerm(x))
	if a.Key() != b.Key() {
		t.Fatalf("x+y and y+x have different keys: %q vs %q", a.Key(), b.Key())
	}
}

func TestMulSumLinearOnly(t *testing.T) {
	var p Pool
	x, y := p.NewVar("x"), p.NewVar("y")
	if _, ok := MulSum(VarTerm(x), VarTerm(y)); ok {
		t.Fatal("x*y should be rejected as nonlinear")
	}
	s, ok := MulSum(Int(3), VarTerm(x))
	if !ok || s.Terms[0].Coef != 3 {
		t.Fatalf("3*x = %v, ok=%v", s, ok)
	}
	s, ok = MulSum(VarTerm(x), Int(-2))
	if !ok || s.Terms[0].Coef != -2 {
		t.Fatalf("x*-2 = %v, ok=%v", s, ok)
	}
}

func TestIsVarIsApply(t *testing.T) {
	var p Pool
	x := p.NewVar("x")
	h := p.FuncSym("h", 1)
	if v, ok := VarTerm(x).IsVar(); !ok || v != x {
		t.Fatal("VarTerm(x).IsVar failed")
	}
	app := ApplyTerm(h, VarTerm(x))
	if a, ok := app.IsApply(); !ok || a.Fn != h {
		t.Fatal("ApplyTerm(h,x).IsApply failed")
	}
	if _, ok := AddSum(app, Int(1)).IsApply(); ok {
		t.Fatal("h(x)+1 should not be IsApply")
	}
}

func TestFuncSymIdentity(t *testing.T) {
	var p Pool
	h1 := p.FuncSym("h", 1)
	h2 := p.FuncSym("h", 1)
	if h1 != h2 {
		t.Fatal("FuncSym should return identical symbols for the same name")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("arity mismatch should panic")
		}
	}()
	p.FuncSym("h", 2)
}

func TestCmpFolding(t *testing.T) {
	if Eq(Int(1), Int(1)) != True {
		t.Fatal("1=1 should fold to true")
	}
	if Ne(Int(1), Int(1)) != False {
		t.Fatal("1≠1 should fold to false")
	}
	if Lt(Int(1), Int(2)) != True {
		t.Fatal("1<2 should fold to true")
	}
	if Le(Int(3), Int(2)) != False {
		t.Fatal("3≤2 should fold to false")
	}
	if Gt(Int(3), Int(2)) != True {
		t.Fatal("3>2 should fold to true")
	}
	if Ge(Int(2), Int(2)) != True {
		t.Fatal("2≥2 should fold to true")
	}
}

func TestNotExprFolding(t *testing.T) {
	var p Pool
	x := p.NewVar("x")
	c := Eq(VarTerm(x), Int(5)).(*Cmp)
	n := NotExpr(c)
	nc, ok := n.(*Cmp)
	if !ok || nc.Op != OpNe {
		t.Fatalf("¬(x=5) = %v", n)
	}
	if NotExpr(True) != False || NotExpr(False) != True {
		t.Fatal("constant negation failed")
	}
	and := AndExpr(c, Le(VarTerm(x), Int(3)))
	if got := NotExpr(NotExpr(and)); got.Key() != and.Key() {
		t.Fatalf("double negation: %v", got)
	}
}

func TestAndOrFolding(t *testing.T) {
	var p Pool
	x := p.NewVar("x")
	c := Eq(VarTerm(x), Int(1))
	if AndExpr() != True {
		t.Fatal("empty And should be true")
	}
	if OrExpr() != False {
		t.Fatal("empty Or should be false")
	}
	if AndExpr(c, False) != False {
		t.Fatal("And with false should fold")
	}
	if OrExpr(c, True) != True {
		t.Fatal("Or with true should fold")
	}
	if AndExpr(True, c) != c {
		t.Fatal("And(true, c) should be c")
	}
	nested := AndExpr(AndExpr(c, c), c)
	if a, ok := nested.(*And); !ok || len(a.Xs) != 3 {
		t.Fatalf("nested And not flattened: %v", nested)
	}
}

func TestCmpNegateSemantics(t *testing.T) {
	var p Pool
	x := p.NewVar("x")
	cases := []Expr{
		Eq(VarTerm(x), Int(5)),
		Ne(VarTerm(x), Int(5)),
		Le(VarTerm(x), Int(5)),
		Lt(VarTerm(x), Int(5)),
		Ge(VarTerm(x), Int(5)),
		Gt(VarTerm(x), Int(5)),
	}
	for _, c := range cases {
		for v := int64(-10); v <= 10; v++ {
			env := Env{Vars: map[int]int64{x.ID: v}}
			a, err := EvalBool(c, env)
			if err != nil {
				t.Fatal(err)
			}
			b, err := EvalBool(NotExpr(c), env)
			if err != nil {
				t.Fatal(err)
			}
			if a == b {
				t.Fatalf("negation of %v agrees at x=%d", c, v)
			}
		}
	}
}

func TestEvalApply(t *testing.T) {
	var p Pool
	x := p.NewVar("x")
	h := p.FuncSym("h", 1)
	e := AddSum(ApplyTerm(h, VarTerm(x)), Int(1)) // h(x)+1
	env := Env{
		Vars: map[int]int64{x.ID: 4},
		Fn: func(f *Func, args []int64) (int64, bool) {
			return args[0] * 10, true
		},
	}
	v, err := EvalSum(e, env)
	if err != nil || v != 41 {
		t.Fatalf("h(4)+1 = %d, err=%v", v, err)
	}
}

func TestEvalMissing(t *testing.T) {
	var p Pool
	x := p.NewVar("x")
	if _, err := EvalSum(VarTerm(x), Env{}); err == nil {
		t.Fatal("missing variable should error")
	}
	h := p.FuncSym("h", 1)
	env := Env{Vars: map[int]int64{x.ID: 1}, Fn: func(*Func, []int64) (int64, bool) { return 0, false }}
	if _, err := EvalSum(ApplyTerm(h, VarTerm(x)), env); err == nil {
		t.Fatal("unsampled function should error")
	}
}

func TestVarsAndApplies(t *testing.T) {
	var p Pool
	x, y := p.NewVar("x"), p.NewVar("y")
	h := p.FuncSym("h", 1)
	g := p.FuncSym("g", 2)
	e := AndExpr(
		Eq(VarTerm(x), ApplyTerm(h, VarTerm(y))),
		Le(ApplyTerm(g, VarTerm(x), ApplyTerm(h, Int(3))), Int(0)),
	)
	vs := Vars(e)
	if len(vs) != 2 || vs[0] != x || vs[1] != y {
		t.Fatalf("Vars = %v", vs)
	}
	apps := Applies(e)
	if len(apps) != 3 {
		t.Fatalf("Applies = %v (want h(y), h(3), g(x,h(3)))", apps)
	}
	if !HasApply(e) {
		t.Fatal("HasApply should be true")
	}
	if HasApply(Eq(VarTerm(x), Int(1))) {
		t.Fatal("HasApply on pure formula should be false")
	}
}

func TestSubstVars(t *testing.T) {
	var p Pool
	x, y := p.NewVar("x"), p.NewVar("y")
	h := p.FuncSym("h", 1)
	// x + h(y)  with  x := 2y+1
	e := AddSum(VarTerm(x), ApplyTerm(h, VarTerm(y)))
	got := SubstVarsSum(e, map[int]*Sum{x.ID: AddSum(ScaleSum(2, VarTerm(y)), Int(1))})
	env := Env{
		Vars: map[int]int64{y.ID: 3},
		Fn:   func(f *Func, args []int64) (int64, bool) { return args[0] + 100, true },
	}
	v, err := EvalSum(got, env)
	if err != nil || v != 2*3+1+103 {
		t.Fatalf("subst eval = %d, err=%v", v, err)
	}
	// Substitution must reach inside application arguments.
	e2 := ApplyTerm(h, VarTerm(x))
	got2 := SubstVarsSum(e2, map[int]*Sum{x.ID: Int(9)})
	a, ok := got2.IsApply()
	if !ok {
		t.Fatalf("subst inside apply = %v", got2)
	}
	if v, ok := a.Args[0].IsConst(); !ok || v != 9 {
		t.Fatalf("apply arg after subst = %v", a.Args[0])
	}
}

func TestRewriteApplies(t *testing.T) {
	var p Pool
	x := p.NewVar("x")
	h := p.FuncSym("h", 1)
	// h(h(x)): rewrite inner h(x)→5 first, then outer h(5)→7.
	e := ApplyTerm(h, ApplyTerm(h, VarTerm(x)))
	e = SubstVarsSum(e, map[int]*Sum{x.ID: Int(1)}) // h(h(1))
	got := RewriteAppliesSum(e, func(a *Apply) (*Sum, bool) {
		if v, ok := a.Args[0].IsConst(); ok {
			switch v {
			case 1:
				return Int(5), true
			case 5:
				return Int(7), true
			}
		}
		return nil, false
	})
	if v, ok := got.IsConst(); !ok || v != 7 {
		t.Fatalf("h(h(1)) rewrote to %v", got)
	}
}

func TestConjuncts(t *testing.T) {
	var p Pool
	x := p.NewVar("x")
	a := Eq(VarTerm(x), Int(1))
	b := Ne(VarTerm(x), Int(2))
	c := Le(VarTerm(x), Int(3))
	e := AndExpr(a, AndExpr(b, c))
	cs := Conjuncts(e)
	if len(cs) != 3 {
		t.Fatalf("Conjuncts = %v", cs)
	}
	if len(Conjuncts(True)) != 0 {
		t.Fatal("Conjuncts(true) should be empty")
	}
	if len(Conjuncts(a)) != 1 {
		t.Fatal("Conjuncts(atom) should be singleton")
	}
}

// randSum builds a random linear term over the given variables.
func randSum(r *rand.Rand, vars []*Var) *Sum {
	s := Int(int64(r.Intn(21) - 10))
	for _, v := range vars {
		if r.Intn(2) == 0 {
			s = AddSum(s, ScaleSum(int64(r.Intn(7)-3), VarTerm(v)))
		}
	}
	return s
}

// TestQuickSumAlgebra checks, by random evaluation, that the canonical-form
// constructors respect integer arithmetic: (a+b)-b = a, k*(a+b) = k*a + k*b.
func TestQuickSumAlgebra(t *testing.T) {
	var p Pool
	vars := []*Var{p.NewVar("a"), p.NewVar("b"), p.NewVar("c")}
	r := rand.New(rand.NewSource(1))
	f := func(va, vb, vc int8, k int8) bool {
		env := Env{Vars: map[int]int64{
			vars[0].ID: int64(va), vars[1].ID: int64(vb), vars[2].ID: int64(vc),
		}}
		a, b := randSum(r, vars), randSum(r, vars)
		ev := func(s *Sum) int64 {
			v, err := EvalSum(s, env)
			if err != nil {
				t.Fatal(err)
			}
			return v
		}
		if ev(SubSum(AddSum(a, b), b)) != ev(a) {
			return false
		}
		lhs := ScaleSum(int64(k), AddSum(a, b))
		rhs := AddSum(ScaleSum(int64(k), a), ScaleSum(int64(k), b))
		if ev(lhs) != ev(rhs) {
			return false
		}
		if lhs.Key() != rhs.Key() {
			return false // canonical forms must coincide, not just values
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickNormalInvariant checks the Sum invariants on random combinations:
// atoms sorted strictly by key and no zero coefficients.
func TestQuickNormalInvariant(t *testing.T) {
	var p Pool
	vars := []*Var{p.NewVar("a"), p.NewVar("b"), p.NewVar("c"), p.NewVar("d")}
	r := rand.New(rand.NewSource(2))
	for i := 0; i < 500; i++ {
		s := randSum(r, vars)
		for j := 0; j < 3; j++ {
			s = AddSum(s, randSum(r, vars))
		}
		for j, tm := range s.Terms {
			if tm.Coef == 0 {
				t.Fatalf("zero coefficient in %v", s)
			}
			if j > 0 && s.Terms[j-1].Atom.Key() >= tm.Atom.Key() {
				t.Fatalf("atoms out of order in %v", s)
			}
		}
	}
}

// randCanonSum builds a random canonical sum mixing variables and
// applications, sometimes constant-only or zero, with occasional extreme
// constants so wrap-around arithmetic is exercised too.
func randCanonSum(r *rand.Rand, atoms []*Sum) *Sum {
	s := Int(0)
	switch r.Intn(6) {
	case 0:
	case 1:
		s = Int(math.MinInt64 + int64(r.Intn(3)))
	default:
		s = Int(int64(r.Intn(21) - 10))
	}
	if r.Intn(5) == 0 {
		return s
	}
	for _, a := range atoms {
		if r.Intn(2) == 0 {
			s = AddSum(s, ScaleSum(int64(r.Intn(7)-3), a))
		}
	}
	return s
}

// TestSubSumMatchesAddScale: the one-pass SubSum builds exactly the Sum of
// AddSum(a, ScaleSum(-1, b)) — same constant, same terms in the same order
// with the same atoms, and the same pointer when b contributes nothing.
func TestSubSumMatchesAddScale(t *testing.T) {
	var p Pool
	x, y, z := p.NewVar("x"), p.NewVar("y"), p.NewVar("z")
	f, g := p.FuncSym("f", 1), p.FuncSym("g", 2)
	atoms := []*Sum{
		VarTerm(x), VarTerm(y), VarTerm(z),
		ApplyTerm(f, VarTerm(x)), ApplyTerm(f, Int(3)),
		ApplyTerm(g, VarTerm(y), AddSum(VarTerm(z), Int(1))),
	}
	r := rand.New(rand.NewSource(8))
	for iter := 0; iter < 5000; iter++ {
		a := randCanonSum(r, atoms)
		var b *Sum
		switch r.Intn(4) {
		case 0:
			b = a // full cancellation
		case 1:
			b = AddSum(a, randCanonSum(r, atoms[:2])) // heavy overlap
		default:
			b = randCanonSum(r, atoms)
		}
		want, got := AddSum(a, ScaleSum(-1, b)), SubSum(a, b)
		if (want == a) != (got == a) {
			t.Fatalf("iter %d: pointer identity differs: want==a %v, got==a %v", iter, want == a, got == a)
		}
		if got.Const != want.Const || len(got.Terms) != len(want.Terms) || (got.Terms == nil) != (want.Terms == nil) {
			t.Fatalf("iter %d: %v - %v = %v (%#v), want %v (%#v)", iter, a, b, got, got.Terms, want, want.Terms)
		}
		for i := range want.Terms {
			if got.Terms[i] != want.Terms[i] {
				t.Fatalf("iter %d: term %d = %v, want %v", iter, i, got.Terms[i], want.Terms[i])
			}
		}
		if got.Key() != want.Key() {
			t.Fatalf("iter %d: key %s, want %s", iter, got.Key(), want.Key())
		}
	}
}

// TestVarsSortedUnique: Vars lists each free variable once, by ID, including
// variables inside application arguments.
func TestVarsSortedUnique(t *testing.T) {
	var p Pool
	x, y, z := p.NewVar("x"), p.NewVar("y"), p.NewVar("z")
	f := p.FuncSym("f", 1)
	e := AndExpr(
		Eq(AddSum(VarTerm(z), VarTerm(x)), Int(1)),
		NotExpr(Lt(ApplyTerm(f, VarTerm(y)), VarTerm(z))),
		OrExpr(Eq(VarTerm(x), Int(2)), Eq(ApplyTerm(f, VarTerm(x)), Int(3))),
	)
	got := Vars(e)
	want := []*Var{x, y, z}
	if len(got) != len(want) {
		t.Fatalf("Vars = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Vars = %v, want %v", got, want)
		}
	}
	if vs := Vars(Eq(Int(1), Int(2))); len(vs) != 0 {
		t.Fatalf("Vars of a ground formula = %v", vs)
	}
}
