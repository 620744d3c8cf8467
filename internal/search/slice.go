package search

import (
	"slices"

	"hotg/internal/sym"
)

// relSlicer computes the classic DART/SAGE "related constraints"
// optimization over a growing path-constraint prefix: from the alternate
// constraint prefix ∧ ¬c_k, keep only the conjuncts that transitively share
// input variables (or function-valued inputs, see depIDs) with the negated
// constraint. The dropped conjuncts are satisfied by keeping their variables
// at the parent input's values (the parent run satisfied every prefix
// conjunct), so a solution of the slice extends to a solution of the full
// alternate constraint — at a fraction of the solving cost.
//
// "Transitively share" is connectivity: each prefix conjunct joins its
// dependencies into one class of a union-find, and a conjunct belongs to the
// slice iff its class holds a dependency of the negated constraint.
// collectTargets adds each conjunct once as the prefix grows, so no target
// reruns the reachability fixpoint over the whole prefix. Only the search coordinator
// uses it; one instance is reused across expansions.
type relSlicer struct {
	// node maps a variable ID or callback pseudo-ID to its union-find node;
	// parent is the forest over those nodes.
	node   map[int]int32
	parent []int32
	// entries are the prefix conjuncts in order, each with one node of its
	// class (-1 for a conjunct without dependencies, which no slice keeps).
	entries []relEntry
	// roots and parts are scratch for slice.
	roots []int32
	parts []sym.Expr
}

type relEntry struct {
	expr sym.Expr
	node int32
}

// reset empties the prefix, keeping the allocated storage but dropping the
// references to the previous execution's formulas.
func (r *relSlicer) reset() {
	clear(r.node)
	r.parent = r.parent[:0]
	clear(r.entries)
	r.entries = r.entries[:0]
}

// add appends a conjunct to the prefix.
func (r *relSlicer) add(e sym.Expr) {
	if r.node == nil {
		r.node = make(map[int]int32)
	}
	n := int32(-1)
	for _, id := range depIDs(e) {
		m, ok := r.node[id]
		if !ok {
			m = int32(len(r.parent))
			r.parent = append(r.parent, m)
			r.node[id] = m
		}
		if n < 0 {
			n = m
		} else if a, b := r.find(n), r.find(m); a != b {
			r.parent[b] = a
		}
	}
	r.entries = append(r.entries, relEntry{expr: e, node: n})
}

// find returns the root of n's class, halving the path on the way.
func (r *relSlicer) find(n int32) int32 {
	for r.parent[n] != n {
		r.parent[n] = r.parent[r.parent[n]]
		n = r.parent[n]
	}
	return n
}

// slice returns the related prefix conjuncts, in prefix order, conjoined with
// negated.
func (r *relSlicer) slice(negated sym.Expr) sym.Expr {
	roots := r.roots[:0]
	for _, id := range depIDs(negated) {
		if n, ok := r.node[id]; ok {
			if root := r.find(n); !slices.Contains(roots, root) {
				roots = append(roots, root)
			}
		}
	}
	r.roots = roots
	parts := r.parts[:0]
	if len(roots) > 0 {
		for _, e := range r.entries {
			if e.node >= 0 && slices.Contains(roots, r.find(e.node)) {
				parts = append(parts, e.expr)
			}
		}
	}
	parts = append(parts, negated)
	out := sym.AndExpr(parts...) // copies parts
	clear(parts)
	r.parts = parts[:0]
	return out
}

func varIDs(e sym.Expr) []int {
	vs := sym.Vars(e)
	out := make([]int, len(vs))
	for i, v := range vs {
		out[i] = v.ID
	}
	return out
}

// depIDs is varIDs extended with a pseudo-ID for every function-valued-input
// symbol the expression applies. Two constraints mentioning the same callback
// are coupled through the function table even when they share no scalar
// variables (p(3)==1 and p(5)==7 both constrain p), so variable-only slicing
// would unsoundly separate them. Input symbols map to the negative range
// -(ID+1), which cannot collide with variable IDs; environment functions
// (natives, unknown instructions) keep their ground truth across tests and
// need no coupling.
func depIDs(e sym.Expr) []int {
	out := varIDs(e)
	for _, a := range sym.Applies(e) {
		if a.Fn.Input {
			out = append(out, -(a.Fn.ID + 1))
		}
	}
	return out
}

// hasInputFn reports whether the formula applies any function-valued input —
// the marker routing a target to the callback-synthesis path.
func hasInputFn(e sym.Expr) bool {
	for _, a := range sym.Applies(e) {
		if a.Fn.Input {
			return true
		}
	}
	return false
}
