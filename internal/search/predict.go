package search

import (
	"hotg/internal/mini"
	"hotg/internal/sym"
)

// prediction is the branch trace a generated test is predicted to follow:
// the parent execution's trace up to the flipped event, then that event
// with its direction inverted. The prefix is the parent's
// Result.Branches[:idx:idx] — shared, never copied, and capped so nothing can
// append into the parent's array — so every target of one expansion costs a
// slice header instead of a copy of its prefix (which made the predictions
// of one run quadratic in its path length). The zero value means no
// prediction: seeds and intermediate sample-collection runs.
type prediction struct {
	prefix []mini.BranchEvent
	flip   mini.BranchEvent
	ok     bool
}

// predictFlip predicts the trace of an input that follows branches up to
// event idx and then takes the other side of it.
func predictFlip(branches []mini.BranchEvent, idx int) prediction {
	ev := branches[idx]
	ev.Taken = !ev.Taken
	return prediction{prefix: branches[:idx:idx], flip: ev, ok: true}
}

// predictionOf wraps a materialized trace (a checkpointed prediction); an
// empty trace means no prediction.
func predictionOf(trace []mini.BranchEvent) prediction {
	n := len(trace)
	if n == 0 {
		return prediction{}
	}
	return prediction{prefix: trace[: n-1 : n-1], flip: trace[n-1], ok: true}
}

// len is the length of the predicted trace (0 without a prediction).
func (p prediction) len() int {
	if !p.ok {
		return 0
	}
	return len(p.prefix) + 1
}

// trace materializes the predicted trace, for checkpoints; nil without a
// prediction.
func (p prediction) trace() []mini.BranchEvent {
	if !p.ok {
		return nil
	}
	out := make([]mini.BranchEvent, len(p.prefix)+1)
	copy(out, p.prefix)
	out[len(p.prefix)] = p.flip
	return out
}

// diverged reports whether the actual trace fails to realize the prediction.
// Without a prediction nothing can diverge.
func (p prediction) diverged(actual []mini.BranchEvent) bool {
	if !p.ok {
		return false
	}
	n := len(p.prefix)
	if len(actual) <= n || actual[n] != p.flip {
		return true
	}
	for i, ev := range p.prefix {
		if actual[i] != ev {
			return true
		}
	}
	return false
}

// eventSig is one branch event's byte in a trace signature: its direction
// ('0' or '1') mixed with its branch ID.
func eventSig(ev mini.BranchEvent) byte {
	c := byte('0')
	if ev.Taken {
		c = '1'
	}
	return c ^ byte(ev.ID<<1)
}

// appendTraceSig appends the signature of a trace, one byte per event.
// expand computes it once per execution; every target's key reuses a prefix
// of it.
func appendTraceSig(buf []byte, trace []mini.BranchEvent) []byte {
	for _, ev := range trace {
		buf = append(buf, eventSig(ev))
	}
	return buf
}

// appendTargetKey appends the dedup key of a flip attempt: the signature of
// the predicted trace (which encodes the path prefix and the flipped event)
// plus the negated constraint. sig is the signature of the trace p's prefix
// was taken from. Identical targets from different parents would generate
// identical tests, so they are solved at most once. The bytes are stored in
// checkpoints, so their layout is fixed:
//
//	sig(prefix) · sig(flip) · '|' · negated.Key()
func appendTargetKey(buf, sig []byte, p prediction, negated sym.Expr) []byte {
	buf = append(buf, sig[:len(p.prefix)]...)
	buf = append(buf, eventSig(p.flip), '|')
	return append(buf, negated.Key()...)
}
