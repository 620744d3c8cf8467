package sym

import (
	"fmt"
	"slices"
	"sort"
	"strings"
)

// Vars returns the free variables of e, deduplicated and ordered by ID.
func Vars(e Expr) []*Var {
	out := collectVars(e, nil)
	slices.SortStableFunc(out, func(a, b *Var) int {
		switch {
		case a.ID < b.ID:
			return -1
		case a.ID > b.ID:
			return 1
		}
		return 0
	})
	// Deduplicate in place; of variables sharing an ID (possible only across
	// pools) the last one collected is kept.
	n := 0
	for i, v := range out {
		if i+1 < len(out) && out[i+1].ID == v.ID {
			continue
		}
		out[n] = v
		n++
	}
	return out[:n]
}

func collectVars(e Expr, out []*Var) []*Var {
	switch x := e.(type) {
	case *Sum:
		for _, t := range x.Terms {
			switch a := t.Atom.(type) {
			case *Var:
				out = append(out, a)
			case *Apply:
				for _, arg := range a.Args {
					out = collectVars(arg, out)
				}
			}
		}
	case *Cmp:
		out = collectVars(x.S, out)
	case *Not:
		out = collectVars(x.X, out)
	case *And:
		for _, y := range x.Xs {
			out = collectVars(y, out)
		}
	case *Or:
		for _, y := range x.Xs {
			out = collectVars(y, out)
		}
	case *Bool:
	default:
		panic(fmt.Sprintf("sym: collectVars: unexpected %T", e))
	}
	return out
}

// Applies returns every uninterpreted function application occurring in e
// (including applications nested inside arguments of other applications),
// deduplicated by canonical key and ordered by key.
func Applies(e Expr) []*Apply {
	seen := make(map[string]*Apply)
	collectApplies(e, seen)
	keys := make([]string, 0, len(seen))
	for k := range seen {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]*Apply, 0, len(keys))
	for _, k := range keys {
		out = append(out, seen[k])
	}
	return out
}

func collectApplies(e Expr, seen map[string]*Apply) {
	switch x := e.(type) {
	case *Sum:
		for _, t := range x.Terms {
			if a, ok := t.Atom.(*Apply); ok {
				seen[a.Key()] = a
				for _, arg := range a.Args {
					collectApplies(arg, seen)
				}
			}
		}
	case *Cmp:
		collectApplies(x.S, seen)
	case *Not:
		collectApplies(x.X, seen)
	case *And:
		for _, y := range x.Xs {
			collectApplies(y, seen)
		}
	case *Or:
		for _, y := range x.Xs {
			collectApplies(y, seen)
		}
	case *Bool:
	default:
		panic(fmt.Sprintf("sym: collectApplies: unexpected %T", e))
	}
}

// OccursVar reports whether the variable with the given ID occurs in e.
// Unlike collecting Vars and scanning, it allocates nothing and stops at the
// first occurrence, which matters on the prover's occurs-check hot path.
func OccursVar(e Expr, id int) bool {
	switch x := e.(type) {
	case *Sum:
		return occursVarSum(x, id)
	case *Cmp:
		return occursVarSum(x.S, id)
	case *Not:
		return OccursVar(x.X, id)
	case *And:
		for _, y := range x.Xs {
			if OccursVar(y, id) {
				return true
			}
		}
		return false
	case *Or:
		for _, y := range x.Xs {
			if OccursVar(y, id) {
				return true
			}
		}
		return false
	default:
		return false
	}
}

func occursVarSum(s *Sum, id int) bool {
	for _, t := range s.Terms {
		switch a := t.Atom.(type) {
		case *Var:
			if a.ID == id {
				return true
			}
		case *Apply:
			for _, arg := range a.Args {
				if occursVarSum(arg, id) {
					return true
				}
			}
		}
	}
	return false
}

// HasApply reports whether e contains any uninterpreted function application.
func HasApply(e Expr) bool {
	switch x := e.(type) {
	case *Sum:
		for _, t := range x.Terms {
			if _, ok := t.Atom.(*Apply); ok {
				return true
			}
		}
		return false
	case *Cmp:
		return HasApply(x.S)
	case *Not:
		return HasApply(x.X)
	case *And:
		for _, y := range x.Xs {
			if HasApply(y) {
				return true
			}
		}
		return false
	case *Or:
		for _, y := range x.Xs {
			if HasApply(y) {
				return true
			}
		}
		return false
	default:
		return false
	}
}

// Env supplies concrete meanings for variables and uninterpreted functions
// during evaluation.
type Env struct {
	// Vars maps Var.ID to its concrete value.
	Vars map[int]int64
	// Fn gives the concrete interpretation of uninterpreted functions; it
	// reports false when the value of f on args is not known.
	Fn func(f *Func, args []int64) (int64, bool)
}

// EvalSum evaluates the integer term s under env.
func EvalSum(s *Sum, env Env) (int64, error) {
	total := s.Const
	for _, t := range s.Terms {
		var av int64
		switch a := t.Atom.(type) {
		case *Var:
			v, ok := env.Vars[a.ID]
			if !ok {
				return 0, fmt.Errorf("sym: no value for variable %s", a)
			}
			av = v
		case *Apply:
			args := make([]int64, len(a.Args))
			for i, arg := range a.Args {
				v, err := EvalSum(arg, env)
				if err != nil {
					return 0, err
				}
				args[i] = v
			}
			if env.Fn == nil {
				return 0, fmt.Errorf("sym: no interpretation for function %s", a.Fn)
			}
			v, ok := env.Fn(a.Fn, args)
			if !ok {
				return 0, fmt.Errorf("sym: %s not defined on %v", a.Fn, args)
			}
			av = v
		}
		total += t.Coef * av
	}
	return total, nil
}

// EvalBool evaluates the boolean formula e under env.
func EvalBool(e Expr, env Env) (bool, error) {
	switch x := e.(type) {
	case *Bool:
		return x.V, nil
	case *Cmp:
		v, err := EvalSum(x.S, env)
		if err != nil {
			return false, err
		}
		switch x.Op {
		case OpEq:
			return v == 0, nil
		case OpNe:
			return v != 0, nil
		case OpLe:
			return v <= 0, nil
		}
		panic("sym: bad CmpOp")
	case *Not:
		v, err := EvalBool(x.X, env)
		return !v, err
	case *And:
		for _, y := range x.Xs {
			v, err := EvalBool(y, env)
			if err != nil || !v {
				return false, err
			}
		}
		return true, nil
	case *Or:
		for _, y := range x.Xs {
			v, err := EvalBool(y, env)
			if err != nil {
				return false, err
			}
			if v {
				return true, nil
			}
		}
		return false, nil
	}
	return false, fmt.Errorf("sym: EvalBool: unexpected %T", e)
}

// SubstVars substitutes terms for variables throughout e. Variables without
// a binding are left untouched. When no binding applies anywhere inside e the
// original expression is returned unchanged — callers may rely on pointer
// identity (and the already-memoized keys) of untouched subtrees.
func SubstVars(e Expr, binding map[int]*Sum) Expr {
	switch x := e.(type) {
	case *Sum:
		return SubstVarsSum(x, binding)
	case *Bool:
		return x
	case *Cmp:
		ns := SubstVarsSum(x.S, binding)
		if ns == x.S {
			return x
		}
		return cmp(x.Op, ns)
	case *Not:
		ny := SubstVars(x.X, binding)
		if ny == x.X {
			return x
		}
		return NotExpr(ny)
	case *And:
		ys := substVarsSlice(x.Xs, binding)
		if ys == nil {
			return x
		}
		return AndExpr(ys...)
	case *Or:
		ys := substVarsSlice(x.Xs, binding)
		if ys == nil {
			return x
		}
		return OrExpr(ys...)
	}
	panic(fmt.Sprintf("sym: SubstVars: unexpected %T", e))
}

// substVarsSlice substitutes through each element, returning nil when every
// element came back pointer-unchanged (so the caller can keep the original).
func substVarsSlice(xs []Expr, binding map[int]*Sum) []Expr {
	var ys []Expr
	for i, y := range xs {
		ny := SubstVars(y, binding)
		if ny != y && ys == nil {
			ys = make([]Expr, len(xs))
			copy(ys, xs[:i])
		}
		if ys != nil {
			ys[i] = ny
		}
	}
	return ys
}

// SubstVarsSum substitutes terms for variables throughout the integer term s.
// Returns s itself when no binding applies.
func SubstVarsSum(s *Sum, binding map[int]*Sum) *Sum {
	var b sumBuilder
	changed := false
	for i, t := range s.Terms {
		switch a := t.Atom.(type) {
		case *Var:
			repl, ok := binding[a.ID]
			if !ok {
				if changed {
					b.push(t)
				}
				continue
			}
			if !changed {
				b, changed = startSum(s, i), true
			}
			b.addScaled(t.Coef, repl)
		case *Apply:
			na := substVarsApply(a, binding)
			if na == a {
				if changed {
					b.push(t)
				}
				continue
			}
			if !changed {
				b, changed = startSum(s, i), true
			}
			b.addAtom(t.Coef, na)
		}
	}
	if !changed {
		return s
	}
	return b.sum()
}

func substVarsApply(a *Apply, binding map[int]*Sum) *Apply {
	var args []*Sum
	for i, arg := range a.Args {
		na := SubstVarsSum(arg, binding)
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

// RewriteApplies rewrites e bottom-up, replacing each uninterpreted function
// application a for which repl returns (t, true) by the term t. Arguments are
// rewritten before the application itself, so a sample lookup sees fully
// simplified arguments.
// When no application is replaced and no argument changes, the original
// expression is returned unchanged (pointer-identical). repl is still invoked
// exactly once per application occurrence either way, so replacement functions
// with side effects (Ackermannization) observe the same call sequence.
func RewriteApplies(e Expr, repl func(*Apply) (*Sum, bool)) Expr {
	switch x := e.(type) {
	case *Sum:
		return RewriteAppliesSum(x, repl)
	case *Bool:
		return x
	case *Cmp:
		ns := RewriteAppliesSum(x.S, repl)
		if ns == x.S {
			return x
		}
		return cmp(x.Op, ns)
	case *Not:
		ny := RewriteApplies(x.X, repl)
		if ny == x.X {
			return x
		}
		return NotExpr(ny)
	case *And:
		ys := rewriteAppliesSlice(x.Xs, repl)
		if ys == nil {
			return x
		}
		return AndExpr(ys...)
	case *Or:
		ys := rewriteAppliesSlice(x.Xs, repl)
		if ys == nil {
			return x
		}
		return OrExpr(ys...)
	}
	panic(fmt.Sprintf("sym: RewriteApplies: unexpected %T", e))
}

func rewriteAppliesSlice(xs []Expr, repl func(*Apply) (*Sum, bool)) []Expr {
	var ys []Expr
	for i, y := range xs {
		ny := RewriteApplies(y, repl)
		if ny != y && ys == nil {
			ys = make([]Expr, len(xs))
			copy(ys, xs[:i])
		}
		if ys != nil {
			ys[i] = ny
		}
	}
	return ys
}

// RewriteAppliesSum is RewriteApplies specialized to integer terms. Returns
// s itself when nothing inside changed.
func RewriteAppliesSum(s *Sum, repl func(*Apply) (*Sum, bool)) *Sum {
	var b sumBuilder
	changed := false
	for i, t := range s.Terms {
		a, isApp := t.Atom.(*Apply)
		if !isApp {
			if changed {
				b.push(t)
			}
			continue
		}
		na := rewriteAppliesApply(a, repl)
		r, ok := repl(na)
		if !ok && na == a {
			if changed {
				b.push(t)
			}
			continue
		}
		if !changed {
			b, changed = startSum(s, i), true
		}
		if ok {
			b.addScaled(t.Coef, r)
		} else {
			b.addAtom(t.Coef, na)
		}
	}
	if !changed {
		return s
	}
	return b.sum()
}

func rewriteAppliesApply(a *Apply, repl func(*Apply) (*Sum, bool)) *Apply {
	var args []*Sum
	for i, arg := range a.Args {
		na := RewriteAppliesSum(arg, repl)
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

// sumBuilder collects the terms of a rewritten Sum and canonicalizes them
// once, in place of one AddSum (and ScaleSum) allocation per term. The result
// is Key-identical to folding each contribution into the running sum with
// AddSum, zero coefficients included: a contribution that cancels its atom's
// running total drops the atom, and a zero coefficient (reachable only
// through int64 overflow) arriving for an absent atom is kept, as AddSum's
// merge keeps it.
type sumBuilder struct {
	c     int64
	terms []Term
	// unsorted records that some term arrived at or before its predecessor's
	// key, so sum must sort and merge; terms that arrive in strictly
	// increasing key order are already canonical.
	unsorted bool
}

// startSum begins a rewrite of s whose first i terms are unchanged. The
// prefix is aliased with its capacity limited, so the first push copies it
// rather than writing into s.
func startSum(s *Sum, i int) sumBuilder {
	return sumBuilder{c: s.Const, terms: s.Terms[:i:i]}
}

func (b *sumBuilder) push(t Term) {
	if n := len(b.terms); n > 0 && !b.unsorted {
		if last := b.terms[n-1].Atom; last == t.Atom || last.Key() >= t.Atom.Key() {
			b.unsorted = true
		}
	}
	b.terms = append(b.terms, t)
}

// addScaled adds k·r, as AddSum(sum, ScaleSum(k, r)) does.
func (b *sumBuilder) addScaled(k int64, r *Sum) {
	if k == 0 { // ScaleSum(0, r) is the constant 0
		return
	}
	b.c += k * r.Const
	for _, t := range r.Terms {
		b.push(Term{Coef: k * t.Coef, Atom: t.Atom})
	}
}

// addAtom adds k·a, as AddSum(sum, ScaleSum(k, AtomTerm(a))) does.
func (b *sumBuilder) addAtom(k int64, a Atom) {
	if k != 0 {
		b.push(Term{Coef: k, Atom: a})
	}
}

func (b *sumBuilder) sum() *Sum {
	terms := b.terms
	if b.unsorted {
		// The first push copied the aliased prefix, so terms is owned here.
		slices.SortStableFunc(terms, func(x, y Term) int {
			return strings.Compare(x.Atom.Key(), y.Atom.Key())
		})
		terms = mergeRuns(terms)
	}
	return &Sum{Const: b.c, Terms: terms}
}

// mergeRuns folds each run of equal atom keys in key-sorted terms, in arrival
// order, the way successive AddSum merges fold them: the first term of a run
// is taken as is, each later one is added to it, and a total of zero drops
// the atom until the run's next term re-inserts it. It compacts in place.
func mergeRuns(terms []Term) []Term {
	out := terms[:0]
	for i := 0; i < len(terms); {
		key := terms[i].Atom.Key()
		acc, present := terms[i], true
		j := i + 1
		for ; j < len(terms) && (terms[j].Atom == acc.Atom || terms[j].Atom.Key() == key); j++ {
			switch t := terms[j]; {
			case !present:
				acc, present = t, true
			case acc.Coef+t.Coef == 0:
				present = false
			default:
				acc.Coef += t.Coef
			}
		}
		if present {
			out = append(out, acc)
		}
		i = j
	}
	return out
}

// Conjuncts flattens e into a list of conjuncts (e itself if it is not a
// conjunction; nothing if it is the constant true).
func Conjuncts(e Expr) []Expr {
	switch x := e.(type) {
	case *And:
		var out []Expr
		for _, y := range x.Xs {
			out = append(out, Conjuncts(y)...)
		}
		return out
	case *Bool:
		if x.V {
			return nil
		}
		return []Expr{x}
	default:
		return []Expr{e}
	}
}
