package search

import (
	"bytes"
	"encoding/json"
	"testing"

	"hotg/internal/concolic"
	"hotg/internal/lexapp"
	"hotg/internal/mini"
	"hotg/internal/sym"
)

// materialize is the predicted trace as a standalone copy: the executed
// prefix before event idx, then that event flipped.
func materialize(branches []mini.BranchEvent, idx int) []mini.BranchEvent {
	out := make([]mini.BranchEvent, idx+1)
	copy(out, branches[:idx])
	out[idx] = branches[idx]
	out[idx].Taken = !out[idx].Taken
	return out
}

// divergedFrom is divergence against a materialized prediction.
func divergedFrom(actual, expected []mini.BranchEvent) bool {
	if len(actual) < len(expected) {
		return true
	}
	for i := range expected {
		if actual[i] != expected[i] {
			return true
		}
	}
	return false
}

// lexerExecution runs the lexer's first seed in higher-order mode.
func lexerExecution(t *testing.T) (*concolic.Engine, *concolic.Execution) {
	t.Helper()
	w := lexapp.Lexer()
	eng := concolic.New(w.Build(), concolic.ModeHigherOrder)
	ex := eng.Run(w.Seeds[0])
	if len(ex.PC) < 10 {
		t.Fatalf("lexer seed path constraint has %d entries", len(ex.PC))
	}
	return eng, ex
}

// TestSharedPredictionMatchesMaterialized: for every constraint of a real
// lexer execution, the shared-prefix prediction gives the same divergence
// verdict as the materialized trace on a family of actual traces, and
// checkpoints it as the same bytes.
func TestSharedPredictionMatchesMaterialized(t *testing.T) {
	_, ex := lexerExecution(t)
	branches := ex.Result.Branches
	for k, c := range ex.PC {
		idx := c.EventIndex
		p, mat := predictFlip(branches, idx), materialize(branches, idx)
		if p.len() != len(mat) {
			t.Fatalf("k=%d: len %d, want %d", k, p.len(), len(mat))
		}
		// Actual traces: the parent's own, the prediction itself, extended
		// and truncated, and the prediction with each earlier event flipped.
		actuals := [][]mini.BranchEvent{
			branches, mat, append(mat[:len(mat):len(mat)], branches...), mat[:idx], nil,
		}
		for i := 0; i < idx; i += 1 + idx/8 {
			wrong := append([]mini.BranchEvent(nil), mat...)
			wrong[i].Taken = !wrong[i].Taken
			actuals = append(actuals, wrong)
		}
		for i, actual := range actuals {
			if got, want := p.diverged(actual), divergedFrom(actual, mat); got != want {
				t.Fatalf("k=%d actual %d: diverged %v, want %v", k, i, got, want)
			}
		}
		it := item{input: ex.Input, expected: p, bound: k + 1, rung: RungQF}
		rec, err := encodeItem(it)
		if err != nil {
			t.Fatal(err)
		}
		got, _ := json.Marshal(rec)
		want, _ := json.Marshal(itemRec{Input: ex.Input, Expected: mat, Bound: k + 1, Rung: int(RungQF)})
		if !bytes.Equal(got, want) {
			t.Fatalf("k=%d: checkpoint item\n%s\nwant\n%s", k, got, want)
		}
		back, err := decodeItem(rec, nil)
		if err != nil {
			t.Fatal(err)
		}
		if again, _ := encodeItem(back); !bytes.Equal(mustJSON(t, again), got) {
			t.Fatalf("k=%d: checkpoint item does not round-trip", k)
		}
		if back.expected.diverged(mat) || !back.expected.diverged(branches) {
			t.Fatalf("k=%d: restored prediction gives the wrong verdicts", k)
		}
	}
	// No prediction: nothing diverges and nothing is checkpointed.
	var none prediction
	if none.diverged(nil) || none.diverged(branches) || none.trace() != nil || none.len() != 0 {
		t.Fatal("the zero prediction must predict nothing")
	}
	if got := mustJSON(t, itemRec{Expected: none.trace()}); bytes.Contains(got, []byte("expected")) {
		t.Fatalf("no prediction checkpointed as %s", got)
	}
}

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestCollectTargetsSharesTrace: expanding a lexer execution gives every
// target a prediction that aliases the parent's trace, capped at the flipped
// event. A second expansion of the same execution, whose targets are all
// known, allocates exactly what negating and keying the constraints and
// extracting their dependencies do: nothing per target grows with the path.
func TestCollectTargetsSharesTrace(t *testing.T) {
	eng, ex := lexerExecution(t)
	s := &searcher{eng: eng, targeted: map[string]bool{}}
	targets, callback := s.collectTargets(ex, 0)
	if len(targets) == 0 {
		t.Fatal("no targets")
	}
	branches := ex.Result.Branches
	for _, tg := range append(targets, callback...) {
		idx := ex.PC[tg.k].EventIndex
		p := tg.expected.prefix
		if len(p) != idx || cap(p) != idx {
			t.Fatalf("k=%d: prefix len %d cap %d, want both %d", tg.k, len(p), cap(p), idx)
		}
		if idx > 0 && &p[0] != &branches[0] {
			t.Fatalf("k=%d: prefix is a copy of the parent's trace", tg.k)
		}
	}
	got := testing.AllocsPerRun(20, func() {
		if tg, cb := s.collectTargets(ex, 0); len(tg)+len(cb) != 0 {
			t.Fatal("known targets collected again")
		}
	})
	base := testing.AllocsPerRun(20, func() {
		for _, c := range ex.PC {
			depIDs(c.Expr)
			if !c.IsConcretization {
				_ = sym.NotExpr(c.Expr).Key()
			}
		}
	})
	if got > base {
		t.Fatalf("re-expansion makes %v allocations, negating and keying %d constraints %v", got, len(ex.PC), base)
	}
}
