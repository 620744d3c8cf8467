package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"time"

	"hotg/internal/campaign"
	"hotg/internal/concolic"
	"hotg/internal/obs"
	"hotg/internal/search"
)

// sessionRun is what a running session executes under: its cancellation
// context and its observability stack — an isolated registry and a
// recorder-only tracer (no writer; events live in the ring, streamed by
// /events).
type sessionRun struct {
	ctx    context.Context
	cancel context.CancelFunc
	o      *obs.Obs
}

// startLocked builds a session's run and only then marks it running, so
// /events never finds a running session without a flight recorder and a
// cancel request never finds one without a context, however long the session
// then waits for its corpus lock. Caller holds s.mu.
func (s *Server) startLocked(ses *Session) sessionRun {
	rec := obs.NewFlightRecorder(s.opts.FlightRecorderSize)
	run := sessionRun{o: obs.New()}
	run.o.Trace = obs.NewTracer(nil).WithRecorder(rec)
	if s.opts.SessionTimeout > 0 {
		run.ctx, run.cancel = context.WithTimeout(s.baseCtx, s.opts.SessionTimeout)
	} else {
		run.ctx, run.cancel = context.WithCancel(s.baseCtx)
	}
	ses.mu.Lock()
	ses.state = StateRunning
	ses.o, ses.rec, ses.cancel = run.o, rec, run.cancel
	ses.mu.Unlock()
	return run
}

// runSession executes one started session end to end: compile the spec,
// lock the corpus, run (or resume) the search, commit the corpus, and
// finalize. It owns the session's slot; releasing it re-pumps the queue.
func (s *Server) runSession(ses *Session, run sessionRun) {
	defer s.wg.Done()
	st, err := s.execute(ses, run)
	s.finalize(ses, st, err)
	s.mu.Lock()
	s.running--
	s.pumpLocked()
	s.publishGauges()
	s.persistLocked()
	s.mu.Unlock()
}

// execute runs the search for one session, closing the run's context and
// tracer when it returns. It returns the (possibly partial) stats and the
// first error encountered; both may be non-nil — a commit failure after a
// successful search still has stats worth keeping.
func (s *Server) execute(ses *Session, run sessionRun) (st *search.Stats, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("serve: session panicked: %v", r)
		}
	}()
	defer run.o.Trace.Close()
	defer run.cancel()
	ctx, o := run.ctx, run.o

	r, err := resolveSpec(ses.spec)
	if err != nil {
		return nil, err
	}
	ses.mu.Lock()
	ses.workload, ses.mode = r.name, r.mode.String()
	ses.mu.Unlock()

	dir := s.corpusDir(ses.CorpusID)
	lock, err := campaign.AcquireLock(dir)
	if err != nil {
		return nil, err
	}
	defer lock.Release()

	camp, err := campaign.Open(dir, r.name, r.mode.String(), o)
	if err != nil {
		return nil, err
	}

	eng := concolic.New(r.prog, r.mode)
	if eng.Summaries != nil {
		eng.Summaries.MaxCases = s.opts.SummaryCap
	}

	maxRuns := ses.spec.MaxRuns
	if maxRuns <= 0 {
		maxRuns = s.opts.DefaultMaxRuns
	}
	workers := ses.spec.Workers
	if workers <= 0 {
		workers = s.opts.DefaultWorkers
	}
	every := ses.spec.CheckpointEvery
	if every <= 0 {
		every = s.opts.CheckpointEvery
	}

	opts := search.Options{
		MaxRuns:  maxRuns,
		Workers:  workers,
		Bounds:   r.bounds,
		Obs:      o,
		Ctx:      ctx,
		CacheCap: s.opts.CacheCap,
		Budget: search.Budget{
			SearchTimeout: time.Duration(ses.spec.BudgetMS) * time.Millisecond,
			ProofTimeout:  time.Duration(ses.spec.ProofTimeoutMS) * time.Millisecond,
			Degrade:       ses.spec.Degrade,
		},
		Checkpoint: search.CheckpointOptions{Every: every, Sink: camp.SaveCheckpoint},
	}
	// Submit-to-first-test latency: stamp the first non-seed,
	// non-intermediate applied run, then hand off to the corpus recorder.
	opts.OnRun = func(rr search.RunRecord) {
		if !rr.Seed && !rr.Intermediate {
			ses.mu.Lock()
			if ses.firstTestMS < 0 {
				ses.firstTestMS = time.Since(ses.submitted).Milliseconds()
			}
			ses.mu.Unlock()
		}
		camp.RecordRun(rr)
	}

	// Resume from the corpus's latest checkpoint when one fits this
	// engine; a valid snapshot overrides MaxRuns so the continuation is
	// bit-identical to the interrupted session's remainder. Without a
	// checkpoint, a reused corpus still warm-starts from its best inputs.
	if snap, cerr := camp.LatestCheckpoint(); cerr == nil && snap != nil {
		if verr := snap.Validate(eng); verr == nil {
			opts.Restore = snap
			opts.MaxRuns = snap.MaxRuns
			ses.mu.Lock()
			ses.resumed = true
			ses.mu.Unlock()
		}
	}
	if opts.Restore == nil {
		switch {
		case len(r.seeds) > 0:
			opts.Seeds = r.seeds
		default:
			opts.Seeds = [][]int64{make([]int64, len(eng.InputVars))}
		}
		if seeded := camp.SeedInputs(8); len(seeded) > 0 {
			opts.Seeds = seeded
			ses.mu.Lock()
			ses.resumed = true
			ses.mu.Unlock()
		}
	}

	st = search.Run(eng, opts)
	if cerr := camp.Commit(); cerr != nil {
		return st, fmt.Errorf("serve: corpus commit: %w", cerr)
	}
	return st, nil
}

// finalize transitions a session out of running: map the outcome to a
// terminal (or interrupted) state, build and persist the result, record
// latencies, and charge the retained bytes against the memory budget.
func (s *Server) finalize(ses *Session, st *search.Stats, err error) {
	ses.mu.Lock()
	cancelReq := ses.cancelReq
	firstTest := ses.firstTestMS
	doneMS := time.Since(ses.submitted).Milliseconds()
	resumed := ses.resumed
	ses.cancel = nil
	ses.mu.Unlock()

	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()

	state := StateDone
	errMsg := ""
	switch {
	case err != nil:
		state, errMsg = StateFailed, err.Error()
	case st != nil && st.Budget.Cancelled && cancelReq:
		state = StateCancelled
	case st != nil && st.Budget.Cancelled && draining:
		// Drain, not a user cancel: the last periodic checkpoint is on
		// disk and the restarted server resumes this session.
		state = StateInterrupted
	case st != nil && st.Budget.Cancelled:
		// Base-context cancellation without drain (e.g. tests closing the
		// server) — treat like a drain.
		state = StateInterrupted
	}

	res := &Result{
		ID: ses.ID, CorpusID: ses.CorpusID, State: state, Error: errMsg,
		Resumed: resumed, FirstTestMS: firstTest, DoneMS: doneMS,
	}
	ses.mu.Lock()
	res.Workload, res.Mode = ses.workload, ses.mode
	ses.mu.Unlock()
	if st != nil {
		res.Summary = st.Summary()
		res.Runs, res.TestsGenerated, res.Bugs = st.Runs, st.TestsGenerated, len(st.Bugs)
		if canon, cerr := st.Canonical(); cerr == nil {
			res.CanonicalStats = canon
		}
	}
	s.fillResultFromCorpus(res)

	var counter string
	switch state {
	case StateDone:
		counter = "serve.completed"
	case StateFailed:
		counter = "serve.failed"
	case StateCancelled:
		counter = "serve.cancelled"
	case StateInterrupted:
		counter = "serve.interrupted"
	}
	s.obs.Counter(counter).Inc()

	data, merr := json.MarshalIndent(res, "", "  ")
	if merr == nil && state != StateInterrupted {
		_ = campaign.WriteFileAtomic(s.corpusDir(ses.CorpusID)+"/result.json", data, 0o644)
	}

	ses.mu.Lock()
	ses.state = state
	ses.errMsg = errMsg
	if state != StateInterrupted {
		ses.result = res
	}
	// Observability handles stay attached while the result is retained so
	// /events can still serve the flight dump; eviction drops both.
	ses.mu.Unlock()

	if state == StateDone || state == StateCancelled {
		s.recordLatencies(firstTest, doneMS)
	}
	if state != StateInterrupted {
		s.mu.Lock()
		s.retainLocked(ses, int64(len(data))+int64(s.opts.FlightRecorderSize)*128)
		s.mu.Unlock()
	}
}

// fillResultFromCorpus loads the committed corpus entries and triage
// buckets into a result. The corpus is the durable source of truth — a
// resumed session's result covers the whole campaign, not just its slice.
func (s *Server) fillResultFromCorpus(res *Result) {
	camp, err := campaign.Open(s.corpusDir(res.CorpusID), res.Workload, res.Mode, nil)
	if err != nil {
		return
	}
	for _, e := range camp.Entries() {
		if e.Rung == "seed" {
			continue
		}
		res.Tests = append(res.Tests, TestCase{
			Input: e.Input, Rung: e.Rung, Run: e.Run, Bug: e.Bug,
		})
	}
	res.Buckets = camp.Buckets()
}
