package smt

import (
	"math/rand"
	"testing"
	"time"

	"hotg/internal/sym"
)

// TestSATResetContract pins down the exact post-Reset contract documented on
// SAT.Reset: clauses, activity, phases and level-0 facts survive; everything
// above level 0 is unwound; the conflict counter is not reset.
func TestSATResetContract(t *testing.T) {
	s := NewSAT(0)
	s.SavePhase(true)
	a, b, c := s.NewVar(), s.NewVar(), s.NewVar()
	// Unit fact: a is true at level 0.
	if !s.AddClause(MkLit(a, false)) {
		t.Fatal("unit clause rejected")
	}
	// Force a conflict so activity moves and a clause is learned:
	// (¬a ∨ b ∨ c) ∧ (¬b ∨ ¬c) ∧ (¬b ∨ c) ∧ (b ∨ ¬c)
	s.AddClause(MkLit(a, true), MkLit(b, false), MkLit(c, false))
	s.AddClause(MkLit(b, true), MkLit(c, true))
	s.AddClause(MkLit(b, true), MkLit(c, false))
	s.AddClause(MkLit(b, false), MkLit(c, true))
	if res := s.Solve(); res != SATUnsat {
		t.Fatalf("expected UNSAT, got %v", res)
	}

	s2 := NewSAT(0)
	s2.SavePhase(true)
	v := s2.NewVar()
	w := s2.NewVar()
	s2.AddClause(MkLit(v, false))                // level-0 fact
	s2.AddClause(MkLit(v, true), MkLit(w, true)) // forces ¬w
	if res := s2.Solve(); res != SATSat {
		t.Fatalf("expected SAT, got %v", res)
	}
	clausesBefore := s2.NumClauses()
	activityBefore := append([]float64(nil), s2.activity...)
	conflictsBefore := s2.nConflicts

	s2.Reset()

	if s2.NumClauses() != clausesBefore {
		t.Errorf("Reset dropped clauses: %d -> %d", clausesBefore, s2.NumClauses())
	}
	if s2.assign[v] != lTrue {
		t.Errorf("Reset lost the level-0 fact on v: %v", s2.assign[v])
	}
	for i, act := range s2.activity {
		if act != activityBefore[i] {
			t.Errorf("Reset changed activity[%d]: %v -> %v", i, activityBefore[i], act)
		}
	}
	if s2.nConflicts != conflictsBefore {
		t.Errorf("Reset cleared the conflict counter: %d -> %d", conflictsBefore, s2.nConflicts)
	}
	// Re-solving after Reset succeeds and w keeps its saved phase usable.
	if res := s2.Solve(); res != SATSat {
		t.Fatalf("re-solve after Reset: %v", res)
	}
	// ResetSearch additionally clears the conflict budget.
	s2.nConflicts = 17
	s2.ResetSearch()
	if s2.nConflicts != 0 {
		t.Errorf("ResetSearch kept nConflicts=%d", s2.nConflicts)
	}
}

// TestSATPopToRetainsTheoryLemmas exercises Mark/PopTo directly: originals
// past the mark disappear, theory lemmas over still-live variables survive,
// CDCL-learned clauses past the mark are dropped.
func TestSATPopToRetainsTheoryLemmas(t *testing.T) {
	s := NewSAT(0)
	a, b := s.NewVar(), s.NewVar()
	s.AddClause(MkLit(a, false), MkLit(b, false))
	m := s.Mark()

	c := s.NewVar()
	s.AddClause(MkLit(c, false), MkLit(a, true)) // frame-local original
	if !s.AddTheoryLemma(MkLit(a, true), MkLit(b, true)) {
		t.Fatal("lemma over live vars rejected")
	}
	if !s.AddTheoryLemma(MkLit(c, true), MkLit(b, true)) {
		t.Fatal("lemma over frame var rejected")
	}

	retained := s.PopTo(m)
	if retained != 1 {
		t.Fatalf("retained %d lemmas, want 1 (the a∨b lemma)", retained)
	}
	if s.NumVars() != 2 {
		t.Fatalf("NumVars=%d after pop, want 2", s.NumVars())
	}
	if s.NumClauses() != 2 { // original + retained lemma
		t.Fatalf("NumClauses=%d after pop, want 2", s.NumClauses())
	}
	// The surviving formula is (a∨b) ∧ (¬a∨¬b): still satisfiable.
	if res := s.Solve(); res != SATSat {
		t.Fatalf("post-pop solve: %v", res)
	}
	if s.Value(a) == s.Value(b) {
		t.Fatalf("model violates retained lemma: a=%v b=%v", s.Value(a), s.Value(b))
	}
}

// genStack builds a random assertion stack: a list of frames, each a list of
// conjuncts over vars, using only apply-free linear constraints.
func genStack(rng *rand.Rand, vars []*sym.Var) [][]sym.Expr {
	nFrames := 1 + rng.Intn(4)
	stack := make([][]sym.Expr, nFrames)
	for f := range stack {
		nConj := 1 + rng.Intn(3)
		conjs := make([]sym.Expr, nConj)
		for i := range conjs {
			conjs[i] = genConstraint(rng, vars)
		}
		stack[f] = conjs
	}
	return stack
}

func genConstraint(rng *rand.Rand, vars []*sym.Var) sym.Expr {
	atom := func() sym.Expr {
		s := sym.Int(int64(rng.Intn(11) - 5))
		for _, v := range vars {
			if rng.Intn(2) == 0 {
				s = sym.AddSum(s, sym.ScaleSum(int64(rng.Intn(7)-3), sym.VarTerm(v)))
			}
		}
		k := sym.Int(int64(rng.Intn(9) - 4))
		switch rng.Intn(3) {
		case 0:
			return sym.Eq(s, k)
		case 1:
			return sym.Ne(s, k)
		default:
			return sym.Le(s, k)
		}
	}
	if rng.Intn(4) == 0 {
		return sym.OrExpr(atom(), atom())
	}
	return atom()
}

// TestIncrementalEquivalence is the incremental-equivalence property from the
// issue: on 1k seeded random conjunction stacks, Context push/assert/check/pop
// in exact mode returns the same Status and Model as a fresh Solve of the
// accumulated conjunction; Retain (warm) mode returns the same Status and a
// model that satisfies the conjunction.
func TestIncrementalEquivalence(t *testing.T) {
	for seed := int64(0); seed < 1000; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var p sym.Pool
		vars := []*sym.Var{p.NewVar("x"), p.NewVar("y"), p.NewVar("z")}
		bounds := map[int]Bound{}
		for _, v := range vars {
			bounds[v.ID] = Bound{Lo: -10, Hi: 10, HasLo: true, HasHi: true}
		}
		opts := Options{Pool: &p, VarBounds: bounds}
		checkStack(t, seed, genStack(rng, vars), opts)
	}
}

func checkStack(t *testing.T, seed int64, stack [][]sym.Expr, opts Options) {
	t.Helper()
	exact := NewContext(ContextOptions{Options: opts})
	warm := NewContext(ContextOptions{Options: opts, Retain: true})
	var acc []sym.Expr
	for _, frame := range stack {
		exact.Push()
		warm.Push()
		for _, e := range frame {
			exact.Assert(e)
			warm.Assert(e)
			acc = append(acc, e)
		}
		f := sym.AndExpr(acc...)
		wantSt, wantM := Solve(f, opts)

		gotSt, gotM := exact.Check()
		if gotSt != wantSt {
			t.Fatalf("seed %d: exact Check=%v, fresh Solve=%v for %v", seed, gotSt, wantSt, f)
		}
		if !modelsEqual(gotM, wantM) {
			t.Fatalf("seed %d: exact model %v, fresh model %v for %v", seed, gotM, wantM, f)
		}

		warmSt, warmM := warm.Check()
		if warmSt != wantSt {
			t.Fatalf("seed %d: warm Check=%v, fresh Solve=%v for %v", seed, warmSt, wantSt, f)
		}
		if warmSt == StatusSat {
			if ok, err := CheckModel(f, warmM, nil); err != nil || !ok {
				t.Fatalf("seed %d: warm model %v invalid for %v (err %v)", seed, warmM, f, err)
			}
		}
	}
	// Unwind with intermediate checks: after each pop the session must agree
	// with a fresh solve of the shortened stack.
	for i := len(stack) - 1; i >= 0; i-- {
		exact.Pop()
		warm.Pop()
		acc = acc[:len(acc)-len(stack[i])]
		f := sym.AndExpr(acc...)
		wantSt, wantM := Solve(f, opts)
		gotSt, gotM := exact.Check()
		if gotSt != wantSt || !modelsEqual(gotM, wantM) {
			t.Fatalf("seed %d: post-pop exact (%v,%v) vs fresh (%v,%v)", seed, gotSt, gotM, wantSt, wantM)
		}
		warmSt, warmM := warm.Check()
		if warmSt != wantSt {
			t.Fatalf("seed %d: post-pop warm %v vs fresh %v", seed, warmSt, wantSt)
		}
		if warmSt == StatusSat {
			if ok, err := CheckModel(f, warmM, nil); err != nil || !ok {
				t.Fatalf("seed %d: post-pop warm model %v invalid (err %v)", seed, warmM, err)
			}
		}
	}
}

func modelsEqual(a, b *Model) bool {
	if (a == nil) != (b == nil) {
		return false
	}
	if a == nil {
		return true
	}
	if len(a.Vars) != len(b.Vars) || len(a.Funcs) != len(b.Funcs) {
		return false
	}
	for k, v := range a.Vars {
		if b.Vars[k] != v {
			return false
		}
	}
	for k, v := range a.Funcs {
		if b.Funcs[k] != v {
			return false
		}
	}
	return true
}

// TestContextApplyFormulas covers session checks on formulas with
// uninterpreted applications: statuses must match a fresh Solve, witnesses
// must cover the same applications, and the warm session must fall back to
// the exact path transparently.
func TestContextApplyFormulas(t *testing.T) {
	var p sym.Pool
	x, y := p.NewVar("x"), p.NewVar("y")
	h := p.FuncSym("h", 1)
	bounds := map[int]Bound{
		x.ID: {Lo: -16, Hi: 16, HasLo: true, HasHi: true},
		y.ID: {Lo: -16, Hi: 16, HasLo: true, HasHi: true},
	}
	opts := Options{Pool: &p, VarBounds: bounds}

	base := sym.Eq(sym.ApplyTerm(h, sym.VarTerm(x)), sym.Int(7))
	cases := []sym.Expr{
		sym.Eq(sym.ApplyTerm(h, sym.VarTerm(y)), sym.Int(7)),
		sym.AndExpr(sym.Eq(sym.VarTerm(x), sym.VarTerm(y)),
			sym.Ne(sym.ApplyTerm(h, sym.VarTerm(y)), sym.Int(7))), // violates congruence
		sym.Ne(sym.ApplyTerm(h, sym.Int(3)), sym.ApplyTerm(h, sym.Int(3))),
	}

	for _, mode := range []bool{false, true} {
		ctx := NewContext(ContextOptions{Options: opts, Retain: mode})
		ctx.Assert(base)
		for i, extra := range cases {
			f := sym.AndExpr(base, extra)
			wantSt, wantM := Solve(f, opts)
			gotSt, gotM := ctx.SolveUnder(extra, nil, time.Time{})
			if gotSt != wantSt {
				t.Fatalf("retain=%v case %d: session %v, fresh %v", mode, i, gotSt, wantSt)
			}
			if wantSt == StatusSat {
				if len(gotM.Funcs) != len(wantM.Funcs) {
					t.Fatalf("retain=%v case %d: witness keys %v vs %v", mode, i, gotM.Funcs, wantM.Funcs)
				}
				if ok, err := CheckModel(f, gotM, funcsEval(gotM)); err != nil || !ok {
					t.Fatalf("retain=%v case %d: model %v invalid (err %v)", mode, i, gotM, err)
				}
			}
		}
	}
}

// funcsEval builds a CheckModel evaluator from a model's witness map: it is
// only consulted for applications whose arguments are concrete, which all
// post-Ackermann checks satisfy here because the formulas pin the arguments.
func funcsEval(m *Model) func(string, []int64) (int64, bool) {
	return func(name string, args []int64) (int64, bool) {
		// The witness map is keyed by canonical application keys over the
		// *rewritten* arguments, which tests cannot reconstruct in general;
		// for the single-value interpretations used here, any recorded value
		// for the function works for validity checking.
		for _, v := range m.Funcs {
			return v, true
		}
		return 0, false
	}
}

// TestContextStats checks the session counters that feed the obs layer and
// benchtab: pushes, pops, retained lemmas and warm-start hits.
func TestContextStats(t *testing.T) {
	var p sym.Pool
	x := p.NewVar("x")
	bounds := map[int]Bound{x.ID: {Lo: -100, Hi: 100, HasLo: true, HasHi: true}}
	ctx := NewContext(ContextOptions{Options: Options{Pool: &p, VarBounds: bounds}, Retain: true})

	ctx.Assert(sym.Le(sym.VarTerm(x), sym.Int(50)))
	for i := 0; i < 3; i++ {
		ctx.Push()
		ctx.Assert(sym.Ge(sym.VarTerm(x), sym.Int(int64(i))))
		if st, _ := ctx.Check(); st != StatusSat {
			t.Fatalf("check %d: %v", i, st)
		}
		ctx.Pop()
	}
	st := ctx.Stats()
	if st.Pushes != 3 || st.Pops != 3 || st.Checks != 3 {
		t.Fatalf("stats %+v: want 3 pushes/pops/checks", st)
	}
	if st.WarmStartHits < 2 {
		t.Fatalf("stats %+v: want >=2 warm-start hits", st)
	}
}

// FuzzIncrementalSolve drives TestIncrementalEquivalence's property from
// fuzzed seeds: a byte string selects the random stack, and the session
// verdicts must match fresh solves at every depth. Wired into `make
// fuzz-smoke`.
func FuzzIncrementalSolve(f *testing.F) {
	f.Add(int64(1))
	f.Add(int64(42))
	f.Add(int64(424242))
	f.Fuzz(func(t *testing.T, seed int64) {
		rng := rand.New(rand.NewSource(seed))
		var p sym.Pool
		vars := []*sym.Var{p.NewVar("x"), p.NewVar("y"), p.NewVar("z")}
		bounds := map[int]Bound{}
		for _, v := range vars {
			bounds[v.ID] = Bound{Lo: -10, Hi: 10, HasLo: true, HasHi: true}
		}
		opts := Options{Pool: &p, VarBounds: bounds}
		checkStack(t, seed, genStack(rng, vars), opts)
	})
}

// TestContextMemoIsLazy: a session with a result memo allocates nothing for
// it until a check stores a result — most sessions (one per validity proof)
// never reach the solver — and the memo then answers a repeated check.
func TestContextMemoIsLazy(t *testing.T) {
	pool := &sym.Pool{}
	with := testing.AllocsPerRun(100, func() {
		NewContext(ContextOptions{Options: Options{Pool: pool}, MemoSize: 512})
	})
	without := testing.AllocsPerRun(100, func() {
		NewContext(ContextOptions{Options: Options{Pool: pool}})
	})
	if with != without {
		t.Fatalf("NewContext with MemoSize 512 makes %v allocations, without a memo %v", with, without)
	}

	x := pool.NewVar("x")
	f := sym.Lt(sym.Int(3), sym.VarTerm(x))
	c := NewContext(ContextOptions{Options: Options{Pool: pool}, MemoSize: 512})
	st1, m1 := c.SolveUnder(f, nil, time.Time{})
	st2, m2 := c.SolveUnder(f, nil, time.Time{})
	if st1 != StatusSat || st2 != st1 || m1.Vars[x.ID] != m2.Vars[x.ID] {
		t.Fatalf("checks: %v %v, %v %v", st1, m1.Vars, st2, m2.Vars)
	}
	if hits := c.Stats().MemoHits; hits != 1 {
		t.Fatalf("memo hits = %d, want 1", hits)
	}
}
