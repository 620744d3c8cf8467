package sym

import (
	"encoding/binary"
	"math/rand"
	"testing"
)

// The AddSum-chain rewrites below are the reference implementations the
// one-pass RewriteAppliesSum and SubstVarsSum replaced: every contribution is
// folded into the running sum with its own AddSum (and ScaleSum). The
// one-pass versions must produce Key-identical sums on every input.

func rewriteAppliesSumChain(s *Sum, repl func(*Apply) (*Sum, bool)) *Sum {
	var out *Sum
	for i, t := range s.Terms {
		a, isApp := t.Atom.(*Apply)
		if !isApp {
			if out != nil {
				out = AddSum(out, &Sum{Terms: s.Terms[i : i+1]})
			}
			continue
		}
		na := rewriteAppliesApplyChain(a, repl)
		if r, ok := repl(na); ok {
			if out == nil {
				out = &Sum{Const: s.Const, Terms: append([]Term(nil), s.Terms[:i]...)}
			}
			out = AddSum(out, ScaleSum(t.Coef, r))
			continue
		}
		if na == a {
			if out != nil {
				out = AddSum(out, &Sum{Terms: s.Terms[i : i+1]})
			}
			continue
		}
		if out == nil {
			out = &Sum{Const: s.Const, Terms: append([]Term(nil), s.Terms[:i]...)}
		}
		out = AddSum(out, ScaleSum(t.Coef, AtomTerm(na)))
	}
	if out == nil {
		return s
	}
	return out
}

func rewriteAppliesApplyChain(a *Apply, repl func(*Apply) (*Sum, bool)) *Apply {
	var args []*Sum
	for i, arg := range a.Args {
		na := rewriteAppliesSumChain(arg, repl)
		if na != arg && args == nil {
			args = make([]*Sum, len(a.Args))
			copy(args, a.Args[:i])
		}
		if args != nil {
			args[i] = na
		}
	}
	if args == nil {
		return a
	}
	return &Apply{Fn: a.Fn, Args: args}
}

func substVarsSumChain(s *Sum, binding map[int]*Sum) *Sum {
	var out *Sum
	for i, t := range s.Terms {
		switch a := t.Atom.(type) {
		case *Var:
			repl, ok := binding[a.ID]
			if !ok {
				if out != nil {
					out = AddSum(out, &Sum{Terms: s.Terms[i : i+1]})
				}
				continue
			}
			if out == nil {
				out = &Sum{Const: s.Const, Terms: append([]Term(nil), s.Terms[:i]...)}
			}
			out = AddSum(out, ScaleSum(t.Coef, repl))
		case *Apply:
			na := substVarsApplyChain(a, binding)
			if na == a {
				if out != nil {
					out = AddSum(out, &Sum{Terms: s.Terms[i : i+1]})
				}
				continue
			}
			if out == nil {
				out = &Sum{Const: s.Const, Terms: append([]Term(nil), s.Terms[:i]...)}
			}
			out = AddSum(out, ScaleSum(t.Coef, AtomTerm(na)))
		}
	}
	if out == nil {
		return s
	}
	return out
}

func substVarsApplyChain(a *Apply, binding map[int]*Sum) *Apply {
	var args []*Sum
	for i, arg := range a.Args {
		na := substVarsSumChain(arg, binding)
		if na != arg && args == nil {
			args = make([]*Sum, len(a.Args))
			copy(args, a.Args[:i])
		}
		if args != nil {
			args[i] = na
		}
	}
	if args == nil {
		return a
	}
	return &Apply{Fn: a.Fn, Args: args}
}

// sumGen builds random canonical sums over a small vocabulary of variables
// and unary/binary function symbols from a stream of choices, so the same
// generator serves the seeded property test and the fuzz target. Small
// vocabularies make shared atoms (and so cancellation) common.
type sumGen struct {
	next func() uint64
	vars []*Var
	fns  []*Func
}

func newSumGen(next func() uint64) *sumGen {
	var p Pool
	g := &sumGen{next: next}
	for _, n := range []string{"x", "y", "z", "w"} {
		g.vars = append(g.vars, p.NewVar(n))
	}
	g.fns = []*Func{p.FuncSym("f", 1), p.FuncSym("g", 2), p.FuncSym("h", 1)}
	return g
}

func (g *sumGen) pick(n int) int { return int(g.next() % uint64(n)) }

// coef is mostly small and occasionally 2^32, whose square wraps to zero in
// int64: the overflow corner where a scaled term's coefficient becomes 0.
func (g *sumGen) coef() int64 {
	switch g.pick(8) {
	case 0:
		return 1 << 32
	case 1:
		return -(1 << 32)
	}
	return int64(g.pick(7)) - 3
}

func (g *sumGen) sum(depth int) *Sum {
	s := Int(int64(g.pick(11)) - 5)
	for n := g.pick(5); n > 0; n-- {
		s = AddSum(s, ScaleSum(g.coef(), AtomTerm(g.atom(depth))))
	}
	if g.pick(4) == 0 {
		// Scaling a 2^32 coefficient by 2^32 leaves a zero-coefficient term
		// inside the input sum itself.
		s = ScaleSum(g.coef(), s)
	}
	return s
}

func (g *sumGen) atom(depth int) Atom {
	if depth <= 0 || g.pick(3) == 0 {
		return g.vars[g.pick(len(g.vars))]
	}
	f := g.fns[g.pick(len(g.fns))]
	args := make([]*Sum, f.Arity)
	for i := range args {
		args[i] = g.sum(depth - 1)
	}
	return &Apply{Fn: f, Args: args}
}

// replacement is a constant, a variable-bearing sum or an apply-bearing sum,
// so rewrites both fold atoms away and introduce (possibly shared) new ones.
func (g *sumGen) replacement() *Sum {
	if g.pick(3) == 0 {
		return Int(int64(g.pick(9)) - 4)
	}
	return g.sum(1)
}

// repl returns a deterministic replacement table keyed by application key:
// the first time a key is seen the generator decides whether (and by what)
// it is replaced, and later calls reuse that decision, so the oracle and the
// one-pass rewrite see the same function.
func (g *sumGen) repl() func(*Apply) (*Sum, bool) {
	table := map[string]*Sum{}
	return func(a *Apply) (*Sum, bool) {
		k := a.Key()
		r, seen := table[k]
		if !seen {
			if g.pick(2) == 0 {
				r = g.replacement()
			}
			table[k] = r
		}
		return r, r != nil
	}
}

func (g *sumGen) binding() map[int]*Sum {
	b := map[int]*Sum{}
	for _, v := range g.vars {
		if g.pick(2) == 0 {
			b[v.ID] = g.replacement()
		}
	}
	return b
}

// checkOnePass compares both one-pass rewrites against their AddSum-chain
// oracles on one generated case.
func checkOnePass(t *testing.T, g *sumGen) {
	t.Helper()
	s := g.sum(2)
	repl := g.repl()
	want := rewriteAppliesSumChain(s, repl)
	got := RewriteAppliesSum(s, repl)
	if got.Key() != want.Key() {
		t.Fatalf("RewriteAppliesSum(%s) = %s, oracle %s", s.Key(), got.Key(), want.Key())
	}
	if (got == s) != (want == s) {
		t.Fatalf("RewriteAppliesSum(%s): identity %v, oracle %v", s.Key(), got == s, want == s)
	}
	binding := g.binding()
	want = substVarsSumChain(s, binding)
	got = SubstVarsSum(s, binding)
	if got.Key() != want.Key() {
		t.Fatalf("SubstVarsSum(%s) = %s, oracle %s", s.Key(), got.Key(), want.Key())
	}
	if (got == s) != (want == s) {
		t.Fatalf("SubstVarsSum(%s): identity %v, oracle %v", s.Key(), got == s, want == s)
	}
}

func TestOnePassRewriteMatchesAddSumChain(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	g := newSumGen(rng.Uint64)
	for i := 0; i < 20000; i++ {
		checkOnePass(t, g)
	}
}

// TestOnePassRewriteCancels pins the cases the random search reaches only
// sometimes: a replacement that cancels an untouched term, a zero coefficient
// from overflow, and replacements arriving out of key order.
func TestOnePassRewriteCancels(t *testing.T) {
	var p Pool
	x, y, z := p.NewVar("x"), p.NewVar("y"), p.NewVar("z")
	f := p.FuncSym("f", 1)
	fx := ApplyTerm(f, VarTerm(x))
	big := int64(1) << 32
	cases := []struct {
		s       *Sum
		binding map[int]*Sum
	}{
		// x + y with x := -y + 3 cancels y.
		{AddSum(VarTerm(x), VarTerm(y)), map[int]*Sum{x.ID: AddSum(NegSum(VarTerm(y)), Int(3))}},
		// 2^32·x with x := 2^32·z overflows z's coefficient to 0.
		{ScaleSum(big, VarTerm(x)), map[int]*Sum{x.ID: ScaleSum(big, VarTerm(z))}},
		// z + f(x) with x := 1 and z := f(1): both land on f(1).
		{AddSum(VarTerm(z), fx), map[int]*Sum{x.ID: Int(1), z.ID: ApplyTerm(f, Int(1))}},
		// x + y + z with z := -x - y: everything cancels to 0.
		{AddSum(AddSum(VarTerm(x), VarTerm(y)), VarTerm(z)),
			map[int]*Sum{z.ID: NegSum(AddSum(VarTerm(x), VarTerm(y)))}},
	}
	for i, c := range cases {
		want := substVarsSumChain(c.s, c.binding).Key()
		if got := SubstVarsSum(c.s, c.binding).Key(); got != want {
			t.Errorf("case %d: SubstVarsSum = %s, oracle %s", i, got, want)
		}
	}
}

func FuzzRewriteAppliesSum(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16})
	f.Add([]byte("f(g(x,y))+2^32*z"))
	f.Fuzz(func(t *testing.T, data []byte) {
		// Each choice consumes one byte; past the end every choice is 0, which
		// ends every term list, so generation always terminates.
		next := func() uint64 {
			if len(data) == 0 {
				return 0
			}
			var b [8]byte
			b[0] = data[0]
			data = data[1:]
			return binary.LittleEndian.Uint64(b[:])
		}
		checkOnePass(t, newSumGen(next))
	})
}

// TestRewriteToConstantAllocatesOnce guards the one-pass rewrite's allocation
// count: turning a one-variable argument (or a sampled application) into a
// constant builds exactly the result Sum.
func TestRewriteToConstantAllocatesOnce(t *testing.T) {
	var p Pool
	x := p.NewVar("x")
	f := p.FuncSym("f", 1)
	arg := VarTerm(x)
	binding := map[int]*Sum{x.ID: Int(7)}
	if n := testing.AllocsPerRun(100, func() { SubstVarsSum(arg, binding) }); n != 1 {
		t.Errorf("SubstVarsSum(x := 7) allocates %v objects, want 1", n)
	}
	app := AddSum(ApplyTerm(f, Int(7)), Int(-3))
	out := Int(42)
	repl := func(*Apply) (*Sum, bool) { return out, true }
	if n := testing.AllocsPerRun(100, func() { RewriteAppliesSum(app, repl) }); n != 1 {
		t.Errorf("RewriteAppliesSum(f(7) := 42) allocates %v objects, want 1", n)
	}
}
