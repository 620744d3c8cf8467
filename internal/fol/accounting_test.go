package fol

import (
	"fmt"
	"strings"
	"testing"

	"hotg/internal/lexapp"
	"hotg/internal/obs"
	"hotg/internal/sym"
)

// hashInversionGoal builds the Section 7 core move: hashstr over one chunk of
// input bytes must equal the hash of target, with one sample per keyword (as
// BenchmarkProverHashInversion). extra samples of inputs no keyword hashes
// from are recorded first, so each is one more dead binding ahead of the
// keywords.
func hashInversionGoal(target string, extra int) (sym.Expr, *sym.SampleStore, *sym.Pool) {
	p := &sym.Pool{}
	vars := make([]*sym.Sum, lexapp.ChunkLen)
	for i := range vars {
		vars[i] = sym.VarTerm(p.NewVar(fmt.Sprintf("c%d", i)))
	}
	h := p.FuncSym("hashstr", lexapp.ChunkLen)
	samples := sym.NewSampleStore()
	want := lexapp.KeywordHash(target)
	for i := 0; i < extra; i++ {
		args := []int64{'0' + int64(i/10), '0' + int64(i%10), 'x', 0, 0, 0}
		out := lexapp.HashStr(args)
		if out == want {
			out++ // a dead binding must not reach the target hash
		}
		samples.Add(h, args, out)
	}
	for _, kw := range lexapp.Keywords {
		args := make([]int64, lexapp.ChunkLen)
		copy(args, lexapp.EncodeInput(kw.Word)[:lexapp.ChunkLen])
		samples.Add(h, args, lexapp.KeywordHash(kw.Word))
	}
	return sym.Eq(sym.ApplyTerm(h, vars...), sym.Int(want)), samples, p
}

// proveCounted runs ProveCore under an observer and returns the outcome, the
// fol.prove.nodes sum and the proof trail.
func proveCounted(pc sym.Expr, samples *sym.SampleStore, opts Options) (Outcome, int64, []string) {
	o := obs.New()
	opts.Obs = o
	st, out := ProveCore(pc, samples, opts)
	var proof []string
	if st != nil {
		proof = st.Proof
	}
	return out, o.Histogram("fol.prove.nodes").Snapshot().Sum, proof
}

// TestDeadBindingNodeAccounting pins the prover's node accounting on the hash
// inversion: the keywords before "while" (if, do, set) are dead bindings
// rejected without building their goals, yet each is charged one node, so
// the outcome, the fol.prove.nodes sum and the proof are those of a search
// that explores every child.
func TestDeadBindingNodeAccounting(t *testing.T) {
	const wantProof = "sample: bind hashstr(c0,c1,c2,c3,c4,c5) via hashstr(119,104,105,108,101,0)=295 | " +
		"unit: c0 := 119 | unit: c1 := 104 | unit: c2 := 105 | unit: c3 := 108 | unit: c4 := 101 | unit: c5 := 0"
	cases := []struct {
		name      string
		extra     int
		maxNodes  int
		wantOut   Outcome
		wantNodes int64
		wantProof string
	}{
		// Root, three dead bindings, the "while" binding.
		{"keywords", 0, 0, OutcomeProved, 5, wantProof},
		{"exact-budget", 0, 5, OutcomeProved, 5, wantProof},
		// The budget runs out on a dead binding (the 1st, then the 3rd).
		{"budget-on-first-dead", 0, 2, OutcomeUnknown, 2, ""},
		{"budget-on-last-dead", 0, 4, OutcomeUnknown, 4, ""},
		// 100 more dead bindings ahead of the keywords: 100 more nodes.
		{"extra-dead", 100, 0, OutcomeProved, 105, wantProof},
	}
	for _, c := range cases {
		pc, samples, p := hashInversionGoal("while", c.extra)
		out, nodes, proof := proveCounted(pc, samples, Options{Pool: p, NoRefute: true, MaxNodes: c.maxNodes})
		if out != c.wantOut || nodes != c.wantNodes || strings.Join(proof, " | ") != c.wantProof {
			t.Errorf("%s: got %v, %d nodes, proof %q; want %v, %d nodes, proof %q",
				c.name, out, nodes, strings.Join(proof, " | "), c.wantOut, c.wantNodes, c.wantProof)
		}
	}
}

// TestDeadBindingAllocations guards the dead-binding reject: each sample that
// contradicts the goal costs at most 3 allocated objects (2 today: its output
// constant and the sum the contradicted conjunct folds through), not a
// materialized child goal, which cost 16 on this goal.
func TestDeadBindingAllocations(t *testing.T) {
	allocs := func(extra int) float64 {
		pc, samples, p := hashInversionGoal("while", extra)
		return testing.AllocsPerRun(20, func() {
			if _, out := ProveCore(pc, samples, Options{Pool: p, NoRefute: true}); out != OutcomeProved {
				t.Fatalf("extra=%d: outcome %v", extra, out)
			}
		})
	}
	base, more := allocs(0), allocs(100)
	t.Logf("ProveCore allocations: %.0f with 8 samples, %.0f with 108", base, more)
	if per := (more - base) / 100; per > 3 {
		t.Errorf("%.2f objects per dead sample binding (8 samples: %.0f, 108: %.0f), want at most 3", per, base, more)
	}
}
