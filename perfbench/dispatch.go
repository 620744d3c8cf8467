package main

import (
	"fmt"
	"sync"
	"time"

	"hotg/internal/concolic"
	"hotg/internal/fol"
	"hotg/internal/mini"
	"hotg/internal/obs"
	"hotg/internal/search"
	"hotg/internal/smt"
	"hotg/internal/sym"
)

// timingDispatcher is a search.Dispatcher that computes every batch in this
// process exactly as the search's local worker pool does — executions
// through Engine.Clone(overlay).RunWith, proofs through fol.ProveCore,
// satisfiability checks through smt.Solve — and records a span around each
// batch and each unit. The searcher applies replies in canonical order, so a
// search run through it has the same canonical stats as a local one.
type timingDispatcher struct {
	eng     *concolic.Engine
	workers int
	prove   fol.Options
	solve   smt.Options
	rec     *recorder
	trace   string
	root    int64 // the campaign span

	mu    sync.Mutex
	units []unitSample
	// batches holds one entry per dispatched batch.
	batches []batchSample
}

// unitSample is what a layer metric needs from one unit of work.
type unitSample struct {
	layer   string // "exec", "prove" or "solve"
	dur     time.Duration
	pcLen   int
	samples int
	proved  bool
	sat     bool
}

// batchSample is one dispatched batch: its wall time and how long its units
// kept worker slots busy.
type batchSample struct {
	width int
	wall  time.Duration
	busy  time.Duration
	slots int
}

// newTimingDispatcher mirrors the options the searcher would pass to the
// prover and solver for a search with the given bounds and worker count.
func newTimingDispatcher(eng *concolic.Engine, bounds []smt.Bound, workers int, o *obs.Obs, rec *recorder, trace string, root int64) *timingDispatcher {
	varBounds := make(map[int]smt.Bound)
	for i, v := range eng.InputVars {
		if i < len(bounds) && (bounds[i].HasLo || bounds[i].HasHi) {
			varBounds[v.ID] = bounds[i]
		}
	}
	return &timingDispatcher{
		eng: eng, workers: workers, rec: rec, trace: trace, root: root,
		// search.Options defaults: no refutation, 4000 prover nodes.
		prove: fol.Options{Pool: eng.Pool, VarBounds: varBounds, NoRefute: true, MaxNodes: 4000, Obs: o},
		solve: smt.Options{Pool: eng.Pool, VarBounds: varBounds, Obs: o},
	}
}

// fanOut runs fn(i, worker) for i in [0, n) on min(workers, n) goroutines,
// inline when that is one, and records the batch span and figures.
func (d *timingDispatcher) fanOut(name string, n int, fn func(i, worker int, parent int64) time.Duration) {
	batch := d.rec.id()
	start := time.Now()
	slots := min(d.workers, n)
	durs := make([]time.Duration, n)
	if slots <= 1 {
		for i := 0; i < n; i++ {
			durs[i] = fn(i, 0, batch)
		}
	} else {
		var wg sync.WaitGroup
		var mu sync.Mutex
		next := 0
		for w := 0; w < slots; w++ {
			wg.Add(1)
			go func(worker int) {
				defer wg.Done()
				for {
					mu.Lock()
					i := next
					next++
					mu.Unlock()
					if i >= n {
						return
					}
					durs[i] = fn(i, worker, batch)
				}
			}(w)
		}
		wg.Wait()
	}
	end := time.Now()
	d.rec.add(batch, d.root, d.trace, name, -1, start, end)
	d.mu.Lock()
	d.batches = append(d.batches, batchSample{width: n, wall: end.Sub(start), busy: time.Duration(sum64(durs)), slots: max(slots, 1)})
	d.mu.Unlock()
}

func sum64(ds []time.Duration) int64 {
	var t int64
	for _, d := range ds {
		t += int64(d)
	}
	return t
}

func (d *timingDispatcher) note(u unitSample) {
	d.mu.Lock()
	d.units = append(d.units, u)
	d.mu.Unlock()
}

// ExecBatch runs each input on an engine clone over a private overlay of the
// frozen sample store and returns the samples the run observed.
func (d *timingDispatcher) ExecBatch(reqs []search.ExecRequest) ([]search.ExecReply, error) {
	funcs := make([][]*mini.FuncValue, len(reqs))
	for i, r := range reqs {
		var err error
		if funcs[i], err = parseFuncs(r.Funcs); err != nil {
			return nil, err
		}
	}
	out := make([]search.ExecReply, len(reqs))
	d.fanOut("search.exec_batch", len(reqs), func(i, worker int, parent int64) time.Duration {
		t0 := time.Now()
		overlay := sym.NewOverlay(d.eng.Samples)
		ex, panicked := runShielded(d.eng.Clone(overlay), reqs[i].Input, funcs[i])
		t1 := time.Now()
		d.rec.record(parent, d.trace, "concolic.exec", worker, t0, t1)
		out[i] = search.ExecReply{Ex: ex, Samples: overlay.Local(), Panicked: panicked,
			Worker: worker, DurNanos: int64(t1.Sub(t0))}
		u := unitSample{layer: "exec", dur: t1.Sub(t0), samples: len(out[i].Samples)}
		if ex != nil {
			u.pcLen = len(ex.PC)
		}
		d.note(u)
		return t1.Sub(t0)
	})
	return out, nil
}

// parseFuncs parses function-valued inputs from their canonical text ("" is
// the default function, nil for first-order programs).
func parseFuncs(texts []string) ([]*mini.FuncValue, error) {
	if texts == nil {
		return nil, nil
	}
	out := make([]*mini.FuncValue, len(texts))
	for i, text := range texts {
		if text == "" {
			continue
		}
		fv, err := mini.ParseFuncValue(text)
		if err != nil {
			return nil, fmt.Errorf("perfbench: function input %d: %w", i, err)
		}
		out[i] = fv
	}
	return out, nil
}

// runShielded turns an executor panic into a dropped run, as the searcher's
// local path does.
func runShielded(eng *concolic.Engine, input []int64, funcs []*mini.FuncValue) (ex *concolic.Execution, panicked bool) {
	defer func() {
		if recover() != nil {
			ex, panicked = nil, true
		}
	}()
	return eng.RunWith(input, funcs), false
}

// ProveBatch proves each target against the frozen sample store.
func (d *timingDispatcher) ProveBatch(reqs []search.ProveRequest) ([]search.ProveReply, error) {
	for _, r := range reqs {
		if r.Version != d.eng.Samples.Len() {
			return nil, fmt.Errorf("perfbench: proof for store version %d, store has %d", r.Version, d.eng.Samples.Len())
		}
	}
	out := make([]search.ProveReply, len(reqs))
	d.fanOut("search.prove_batch", len(reqs), func(i, worker int, parent int64) time.Duration {
		t0 := time.Now()
		st, outcome, panicked := proveShielded(reqs[i].Alt, d.eng.Samples, d.prove)
		t1 := time.Now()
		d.rec.record(parent, d.trace, "fol.prove", worker, t0, t1)
		out[i] = search.ProveReply{Strategy: st, Outcome: outcome, Panicked: panicked,
			Worker: worker, DurNanos: int64(t1.Sub(t0))}
		d.note(unitSample{layer: "prove", dur: t1.Sub(t0), proved: outcome == fol.OutcomeProved})
		return t1.Sub(t0)
	})
	return out, nil
}

// proveShielded turns a prover panic into an unknown outcome, as the
// searcher's local path does.
func proveShielded(alt sym.Expr, store *sym.SampleStore, opts fol.Options) (st *fol.Strategy, out fol.Outcome, panicked bool) {
	defer func() {
		if recover() != nil {
			st, out, panicked = nil, fol.OutcomeUnknown, true
		}
	}()
	st, out = fol.ProveCore(alt, store, opts)
	return st, out, false
}

// SolveBatch checks each target for satisfiability.
func (d *timingDispatcher) SolveBatch(reqs []search.SolveRequest) ([]search.SolveReply, error) {
	out := make([]search.SolveReply, len(reqs))
	d.fanOut("search.solve_batch", len(reqs), func(i, worker int, parent int64) time.Duration {
		t0 := time.Now()
		status, model := smt.Solve(reqs[i].Alt, d.solve)
		t1 := time.Now()
		d.rec.record(parent, d.trace, "smt.solve", worker, t0, t1)
		out[i] = search.SolveReply{Status: status, Model: model, Worker: worker, DurNanos: int64(t1.Sub(t0))}
		d.note(unitSample{layer: "solve", dur: t1.Sub(t0), sat: status == smt.StatusSat})
		return t1.Sub(t0)
	})
	return out, nil
}
