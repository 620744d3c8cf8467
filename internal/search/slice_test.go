package search

import (
	"math/rand"
	"testing"

	"hotg/internal/concolic"
	"hotg/internal/lexapp"
	"hotg/internal/mini"
	"hotg/internal/smt"
	"hotg/internal/sym"
)

// sliceAlt is the reference related-constraint slicer the incremental
// relSlicer replaced, kept as the oracle of its tests: from prefix ∧ negated
// keep the prefix conjuncts that transitively share a dependency (a variable
// or a function-valued input, depIDs) with negated, found by rerunning the
// reachability fixpoint over the whole prefix.
func sliceAlt(prefix []sym.Expr, negated sym.Expr) sym.Expr {
	vars := make([][]int, len(prefix))
	for i, e := range prefix {
		vars[i] = depIDs(e)
	}
	used := make([]bool, len(prefix))
	reach := map[int]bool{}
	for _, id := range depIDs(negated) {
		reach[id] = true
	}
	for changed := true; changed; {
		changed = false
		for i := range prefix {
			if used[i] {
				continue
			}
			hit := false
			for _, id := range vars[i] {
				if reach[id] {
					hit = true
					break
				}
			}
			if !hit {
				continue
			}
			used[i] = true
			changed = true
			for _, id := range vars[i] {
				reach[id] = true
			}
		}
	}
	parts := make([]sym.Expr, 0, len(prefix)+1)
	for i, e := range prefix {
		if used[i] {
			parts = append(parts, e)
		}
	}
	parts = append(parts, negated)
	return sym.AndExpr(parts...)
}

// sliceInc slices through the incremental slicer the search uses.
func sliceInc(prefix []sym.Expr, negated sym.Expr) sym.Expr {
	var r relSlicer
	for _, e := range prefix {
		r.add(e)
	}
	return r.slice(negated)
}

func TestSliceAltKeepsRelated(t *testing.T) {
	var p sym.Pool
	x, y, z := p.NewVar("x"), p.NewVar("y"), p.NewVar("z")
	prefix := []sym.Expr{
		sym.Eq(sym.VarTerm(x), sym.Int(1)),     // touches x
		sym.Eq(sym.VarTerm(z), sym.Int(9)),     // unrelated
		sym.Lt(sym.VarTerm(x), sym.VarTerm(y)), // links x↔y
	}
	negated := sym.Gt(sym.VarTerm(y), sym.Int(5)) // touches y
	sliced := sliceAlt(prefix, negated)
	cs := sym.Conjuncts(sliced)
	// Expect: x=1 and x<y retained (transitively via y), z=9 dropped.
	if len(cs) != 3 {
		t.Fatalf("sliced = %v", cs)
	}
	for _, c := range cs {
		for _, v := range sym.Vars(c) {
			if v == z {
				t.Fatalf("unrelated conjunct retained: %v", sliced)
			}
		}
	}
}

func TestSliceAltTransitiveClosure(t *testing.T) {
	var p sym.Pool
	a, b, c, d := p.NewVar("a"), p.NewVar("b"), p.NewVar("c"), p.NewVar("d")
	prefix := []sym.Expr{
		sym.Eq(sym.VarTerm(a), sym.VarTerm(b)),
		sym.Eq(sym.VarTerm(b), sym.VarTerm(c)),
		sym.Eq(sym.VarTerm(d), sym.Int(7)),
	}
	negated := sym.Ne(sym.VarTerm(a), sym.Int(0))
	cs := sym.Conjuncts(sliceAlt(prefix, negated))
	if len(cs) != 3 { // a=b, b=c chained in; d=7 out
		t.Fatalf("sliced = %v", cs)
	}
}

// TestSliceSoundnessProperty: on real executions, any model of the sliced
// alternate constraint, extended with the parent input for untouched
// variables, satisfies the full alternate constraint.
func TestSliceSoundnessProperty(t *testing.T) {
	r := rand.New(rand.NewSource(71))
	ns := mini.Natives{}
	ns.Register("hash", 1, lexapp.ScrambledHash)
	for iter := 0; iter < 30; iter++ {
		src := mini.GenProgram(r, mini.GenConfig{Natives: []string{"hash"}})
		p := mini.MustCheck(mini.MustParse(src), ns)
		in := []int64{int64(r.Intn(21) - 10), int64(r.Intn(21) - 10), int64(r.Intn(21) - 10)}
		eng := concolic.New(p, concolic.ModeSound)
		ex := eng.Run(in)

		prefix := []sym.Expr{}
		for k, c := range ex.PC {
			if c.IsConcretization {
				prefix = append(prefix, c.Expr)
				continue
			}
			negated := sym.NotExpr(c.Expr)
			sliced := sliceInc(prefix, negated)
			full := ex.Alt(k)
			st, m := smt.Solve(sliced, smt.Options{Pool: eng.Pool})
			if st == smt.StatusSat {
				env := sym.Env{Vars: map[int]int64{}}
				for i, v := range eng.InputVars {
					env.Vars[v.ID] = in[i]
					if val, ok := m.Vars[v.ID]; ok {
						env.Vars[v.ID] = val
					}
				}
				holds, err := sym.EvalBool(full, env)
				if err != nil || !holds {
					t.Fatalf("iter %d k=%d: sliced model does not satisfy full ALT\nsliced: %v\nfull: %v\nmodel: %v\nerr: %v",
						iter, k, sliced, full, env.Vars, err)
				}
			} else {
				// Slicing must not make unsatisfiable targets satisfiable or
				// vice versa: the full ALT must agree.
				stFull, _ := smt.Solve(full, smt.Options{Pool: eng.Pool})
				if stFull == smt.StatusSat {
					t.Fatalf("iter %d k=%d: full ALT sat but slice unsat", iter, k)
				}
			}
			prefix = append(prefix, c.Expr)
		}
	}
}

// TestSliceCallbackCoupling: two applications of one function-valued input
// constrain the same table, so a negated constraint on @p(y) keeps the prefix
// conjunct on @p(x) although they share no scalar variable.
func TestSliceCallbackCoupling(t *testing.T) {
	var p sym.Pool
	x, y, z := p.NewVar("x"), p.NewVar("y"), p.NewVar("z")
	fp := p.InputFuncSym("@p", 1)
	prefix := []sym.Expr{
		sym.Eq(sym.ApplyTerm(fp, sym.VarTerm(x)), sym.Int(1)),
		sym.Eq(sym.VarTerm(z), sym.Int(9)),
	}
	negated := sym.NotExpr(sym.Eq(sym.ApplyTerm(fp, sym.VarTerm(y)), sym.Int(7)))
	want := sym.AndExpr(prefix[0], negated).Key()
	for name, slice := range map[string]func([]sym.Expr, sym.Expr) sym.Expr{"fixpoint": sliceAlt, "incremental": sliceInc} {
		if got := slice(prefix, negated).Key(); got != want {
			t.Errorf("%s slice = %s, want %s", name, got, want)
		}
	}
}

// randSliceExpr draws a constraint over a few variables, an environment
// function and two function-valued inputs; some draws have no dependency at
// all (an environment application on constants).
func randSliceExpr(r *rand.Rand, vars []*sym.Var, env, in1, in2 *sym.Func) sym.Expr {
	term := func() *sym.Sum {
		switch r.Intn(6) {
		case 0:
			return sym.ApplyTerm(env, sym.VarTerm(vars[r.Intn(len(vars))]))
		case 1:
			return sym.ApplyTerm(in1, sym.VarTerm(vars[r.Intn(len(vars))]))
		case 2:
			return sym.ApplyTerm(in2, sym.Int(int64(r.Intn(4))))
		case 3:
			return sym.ApplyTerm(env, sym.Int(int64(r.Intn(4))))
		default:
			return sym.VarTerm(vars[r.Intn(len(vars))])
		}
	}
	lhs := term()
	if r.Intn(2) == 0 {
		lhs = sym.AddSum(lhs, term())
	}
	c := sym.Int(int64(r.Intn(9)))
	switch r.Intn(3) {
	case 0:
		return sym.Eq(lhs, c)
	case 1:
		return sym.Lt(lhs, c)
	}
	return sym.Ne(lhs, c)
}

// TestRelSlicerMatchesFixpoint: on random prefixes — with concretization
// entries, which join the prefix without becoming targets, and constraints
// coupled only through function-valued inputs — the incremental slicer yields
// exactly the fixpoint oracle's formula for every target.
func TestRelSlicerMatchesFixpoint(t *testing.T) {
	r := rand.New(rand.NewSource(12))
	for iter := 0; iter < 300; iter++ {
		var p sym.Pool
		vars := make([]*sym.Var, 1+r.Intn(8))
		for i := range vars {
			vars[i] = p.NewVar("v")
		}
		env := p.FuncSym("h", 1)
		in1, in2 := p.InputFuncSym("@p", 1), p.InputFuncSym("@q", 1)
		var rel relSlicer
		var prefix []sym.Expr
		for k, n := 0, r.Intn(30); k < n; k++ {
			c := randSliceExpr(r, vars, env, in1, in2)
			if r.Intn(4) != 0 { // not a concretization: a target
				negated := sym.NotExpr(c)
				want, got := sliceAlt(prefix, negated).Key(), rel.slice(negated).Key()
				if got != want {
					t.Fatalf("iter %d k=%d: incremental slice %s, fixpoint %s", iter, k, got, want)
				}
			}
			rel.add(c)
			prefix = append(prefix, c)
		}
		// A reset slicer starts over with an empty prefix.
		rel.reset()
		c := randSliceExpr(r, vars, env, in1, in2)
		if got, want := rel.slice(c).Key(), c.Key(); got != want {
			t.Fatalf("iter %d: slice after reset = %s, want %s", iter, got, want)
		}
	}
}

// targetKeyOf is the dedup key built from a materialized predicted trace, the
// way keys were built before predictions were shared; checkpoints store these
// bytes, so appendTargetKey must reproduce them exactly.
func targetKeyOf(expected []mini.BranchEvent, negated sym.Expr) string {
	buf := make([]byte, len(expected))
	for i, ev := range expected {
		c := byte('0')
		if ev.Taken {
			c = '1'
		}
		buf[i] = c ^ byte(ev.ID<<1)
	}
	return string(buf) + "|" + negated.Key()
}

func TestTargetKeyDistinguishes(t *testing.T) {
	var p sym.Pool
	x := p.NewVar("x")
	c1 := sym.Eq(sym.VarTerm(x), sym.Int(1))
	c2 := sym.Eq(sym.VarTerm(x), sym.Int(2))
	key := func(trace []mini.BranchEvent, idx int, negated sym.Expr) string {
		sig := appendTraceSig(nil, trace)
		return string(appendTargetKey(nil, sig, predictFlip(trace, idx), negated))
	}
	tr1 := []mini.BranchEvent{{ID: 0, Taken: false}}
	tr2 := []mini.BranchEvent{{ID: 0, Taken: true}}
	tr3 := []mini.BranchEvent{{ID: 1, Taken: false}}
	if key(tr1, 0, c1) == key(tr1, 0, c2) {
		t.Fatal("different constraints must differ")
	}
	if key(tr1, 0, c1) == key(tr2, 0, c1) {
		t.Fatal("different polarities must differ")
	}
	if key(tr1, 0, c1) == key(tr3, 0, c1) {
		t.Fatal("different branch IDs must differ")
	}
	if key(tr1, 0, c1) != key(tr1, 0, c1) {
		t.Fatal("identical targets must collide")
	}
	// Events after the flipped one are not part of the prediction.
	long := []mini.BranchEvent{{ID: 0, Taken: false}, {ID: 2, Taken: true}}
	if key(long, 0, c1) != key(tr1, 0, c1) {
		t.Fatal("the key must not depend on events past the flip")
	}
	// The bytes are exactly those of the materialized trace's key.
	r := rand.New(rand.NewSource(5))
	for iter := 0; iter < 200; iter++ {
		trace := make([]mini.BranchEvent, 1+r.Intn(40))
		for i := range trace {
			trace[i] = mini.BranchEvent{ID: r.Intn(300), Taken: r.Intn(2) == 0}
		}
		idx := r.Intn(len(trace))
		neg := []sym.Expr{c1, c2}[r.Intn(2)]
		if got, want := key(trace, idx, neg), targetKeyOf(predictFlip(trace, idx).trace(), neg); got != want {
			t.Fatalf("iter %d: key %q, want %q", iter, got, want)
		}
	}
}

func TestExhaustedFlag(t *testing.T) {
	src := `fn main(x int) { if (x > 0) { error("pos"); } }`
	ns := mini.Natives{}
	ns.Register("hash", 1, lexapp.ScrambledHash)
	p := mini.MustCheck(mini.MustParse(src), ns)
	eng := concolic.New(p, concolic.ModeSound)
	st := Run(eng, Options{MaxRuns: 100, Seeds: [][]int64{{0}}})
	if !st.Exhausted {
		t.Fatalf("two-path program must exhaust: %s", st.Summary())
	}
	if st.Runs != 2 || st.Paths() != 2 {
		t.Fatalf("expected exactly 2 runs = 2 paths: %s", st.Summary())
	}
	// With a budget of 1 the search cannot exhaust.
	eng2 := concolic.New(p, concolic.ModeSound)
	st2 := Run(eng2, Options{MaxRuns: 1, Seeds: [][]int64{{0}}})
	if st2.Exhausted {
		t.Fatal("budget-limited search must not claim exhaustion")
	}
}
