package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"maps"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"

	corpus "hotg/internal/campaign"
	"hotg/internal/concolic"
	"hotg/internal/lexapp"
	"hotg/internal/mini"
	"hotg/internal/search"
	"hotg/internal/serve"
)

// serve-mixed drives an in-process campaign server over loopback in a closed
// loop: GOMAXPROCS clients, one per session slot of the server, each
// submitting its next session as soon as it has fetched the result of the
// last, for a fixed number of sessions per second of the run. Four in ten
// sessions are small paper-example and callback campaigns,
// which exercise the corpus write and resume paths at a few milliseconds
// each; six in ten are 20-run lexer campaigns. Half use fresh corpus IDs
// (the write path) and half resubmit corpora from the history filled during
// set-up (the resume and read path), so the resume corpora do not depend on
// run length.
const (
	// serveSessionsPerSecond is how many sessions a phase submits per
	// second of its nominal length: a little under the 12.5 to 19 per
	// second the server finished on the 2-CPU VM of perfbench/README.md,
	// so a phase ends within its nominal length there. The count is
	// fixed, not the time, so the server's history (its index and
	// retained results) ends each phase at the same size however fast it
	// ran.
	serveSessionsPerSecond = 12
	// The client polls a session's status at intervals of a fiftieth of
	// its age, between pollMin and pollMax: the resolution of the latency
	// and of the queue and run spans stays near 2% without polling long
	// sessions at the rate short ones need.
	pollMin = time.Millisecond
	pollMax = 10 * time.Millisecond
	// serveSetups is how many times the server is set up; setup_s is the
	// median and the last one serves the timed phase.
	serveSetups = 5
	// historyPerSmall and historyLexer are the history corpora per spec.
	historyPerSmall = 1
	historyLexer    = 4
	sessionTimeout  = 60 * time.Second
)

var smallWorkloads = []string{
	"obscure", "foo", "foo-bis", "bar", "pub", "eq-pair", "succ-pair",
	"kstep-2", "kstep-3", "delayed", "cb-filter", "cb-sortguard", "cb-fold",
}

// Timed-phase sessions run at the server's checkpoint cadence,
// serveCheckpointEvery, which none of them reaches. A 20-run lexer
// checkpoint is 2.3 MB of fsynced JSON; written by every fresh lexer
// session, it was most of the data a run wrote and a third of the
// session's latency, tying that latency to the disk. Only the history
// sessions checkpoint, so that resumes have a snapshot to restore.
const serveCheckpointEvery = 1000

func smallSpec(name string) serve.Spec {
	return serve.Spec{Workload: name, MaxRuns: 40, Workers: 1}
}

func lexerServeSpec() serve.Spec {
	return serve.Spec{Workload: "lexer", MaxRuns: 20, Workers: 1}
}

// blockKinds is the composition of every block of ten submissions; the
// seed permutes each block. A small session's few milliseconds are mostly
// the server's own path, which can drift by a factor of two within minutes
// on a shared host; with lexer sessions in the majority the median lands
// inside the lexer group, whose latency is mostly processor time.
var blockKinds = []string{
	"small-fresh", "small-fresh", "small-resume", "small-resume",
	"lexer-fresh", "lexer-fresh", "lexer-fresh",
	"lexer-resume", "lexer-resume", "lexer-resume",
}

// historyCorpus names history corpus i of a workload.
func historyCorpus(workload string, i int) string { return fmt.Sprintf("h-%s-%d", workload, i) }

// history lists the sessions set-up submits.
func history() []serve.Spec {
	var out []serve.Spec
	for _, name := range smallWorkloads {
		for i := 0; i < historyPerSmall; i++ {
			sp := smallSpec(name)
			// Checkpointing every run leaves even a two-run history
			// campaign a checkpoint to resume from.
			sp.CheckpointEvery = 1
			sp.CorpusID = historyCorpus(name, i)
			out = append(out, sp)
		}
	}
	for i := 0; i < historyLexer; i++ {
		sp := lexerServeSpec()
		// Half way: a resume executes the other ten runs.
		sp.CheckpointEvery = 10
		sp.CorpusID = historyCorpus("lexer", i)
		out = append(out, sp)
	}
	return out
}

// mix returns the n specs of the timed phase: the block composition in a
// seeded order, small workloads taken round-robin (fresh and resume slots
// counted separately), resumes cycling through the history corpora. The
// multiset of specs depends only on n.
func mix(seed int64, n int) []serve.Spec {
	rng := rand.New(rand.NewSource(seed))
	out := make([]serve.Spec, 0, n)
	counts := map[string]int{}
	for len(out) < n {
		block := append([]string(nil), blockKinds...)
		rng.Shuffle(len(block), func(i, j int) { block[i], block[j] = block[j], block[i] })
		for _, kind := range block {
			if len(out) == n {
				break
			}
			k := counts[kind]
			counts[kind]++
			var sp serve.Spec
			switch kind {
			case "small-fresh", "small-resume":
				name := smallWorkloads[k%len(smallWorkloads)]
				sp = smallSpec(name)
				if kind == "small-resume" {
					sp.CorpusID = historyCorpus(name, (k/len(smallWorkloads))%historyPerSmall)
				}
			default:
				sp = lexerServeSpec()
				if kind == "lexer-resume" {
					sp.CorpusID = historyCorpus("lexer", k%historyLexer)
				}
			}
			if sp.CorpusID == "" {
				sp.CorpusID = fmt.Sprintf("f-%d", len(out))
			}
			out = append(out, sp)
		}
	}
	return out
}

// specKey identifies a spec's search configuration (everything but the
// corpus).
func specKey(sp serve.Spec) string { return fmt.Sprintf("%s/%d", sp.Workload, sp.MaxRuns) }

// server is one in-process campaign server on a loopback port.
type server struct {
	dir  string
	srv  *serve.Server
	http *http.Server
	base string
	done chan error
}

func startServer(dir string) (*server, error) {
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	srv, err := serve.New(serve.Options{Dir: dir, MaxConcurrent: runtime.GOMAXPROCS(0), DefaultWorkers: 1,
		CheckpointEvery: serveCheckpointEvery})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	s := &server{dir: dir, srv: srv, base: "http://" + ln.Addr().String(),
		http: &http.Server{Handler: srv.Handler()}, done: make(chan error, 1)}
	go func() { s.done <- s.http.Serve(ln) }()
	return s, nil
}

// stop shuts the HTTP server and the campaign server down, waits for both,
// and removes the data directory.
func (s *server) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	herr := s.http.Shutdown(ctx)
	if err := <-s.done; !errors.Is(err, http.ErrServerClosed) {
		herr = errors.Join(herr, err)
	}
	return errors.Join(herr, s.srv.Close(), os.RemoveAll(s.dir))
}

// client talks to the server over at most GOMAXPROCS connections.
type client struct {
	base string
	hc   *http.Client
}

func newClient(base string) *client {
	n := runtime.GOMAXPROCS(0)
	return &client{base: base, hc: &http.Client{
		Timeout:   30 * time.Second,
		Transport: &http.Transport{MaxConnsPerHost: n, MaxIdleConnsPerHost: n},
	}}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// do sends one request and decodes a JSON reply into out, returning the
// HTTP status.
func (c *client) do(method, path string, body, out any) (int, error) {
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return 0, err
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return 0, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, err
	}
	if out != nil && resp.StatusCode/100 == 2 {
		if err := json.Unmarshal(data, out); err != nil {
			return resp.StatusCode, fmt.Errorf("%s %s: %w", method, path, err)
		}
	}
	return resp.StatusCode, nil
}

// session is the client's view of one submitted campaign.
type session struct {
	spec    serve.Spec
	sent    time.Time // when the client submitted it
	id      string
	status  int // HTTP status of the submission
	err     error
	submit  time.Duration
	fetch   time.Duration // the result request
	running time.Time     // first poll that saw it running (zero if never seen)
	bug     time.Time     // first poll that saw a bug (zero if never seen)
	done    time.Time     // first poll that saw a terminal state
	polls   []time.Duration
	result  *serve.Result
	canon   []byte
	// passed is set by checkPhase when the session passed every check.
	passed bool
}

// latencyMS is the time from submission until the client saw the terminal
// state, in milliseconds.
func (s *session) latencyMS() float64 {
	return float64(s.done.Sub(s.sent)) / float64(time.Millisecond)
}

func terminal(state string) bool {
	switch state {
	case serve.StateDone, serve.StateFailed, serve.StateCancelled, serve.StateEvicted:
		return true
	}
	return false
}

// run submits the session, polls it to a terminal state and fetches its
// result.
func (s *session) run(c *client, rec *recorder) {
	t0 := time.Now()
	s.sent = t0
	var st serve.Status
	s.status, s.err = c.do(http.MethodPost, "/api/v1/campaigns", s.spec, &st)
	s.submit = time.Since(t0)
	if s.err != nil || s.status != http.StatusAccepted {
		return
	}
	s.id = st.ID
	root := rec.id()
	rec.record(root, s.id, "serve.submit", -1, t0, t0.Add(s.submit))
	accepted := t0.Add(s.submit)
	deadline := time.Now().Add(sessionTimeout)
	for time.Now().Before(deadline) {
		time.Sleep(min(max(time.Since(accepted)/50, pollMin), pollMax))
		p0 := time.Now()
		code, err := c.do(http.MethodGet, "/api/v1/campaigns/"+s.id, nil, &st)
		now := time.Now()
		s.polls = append(s.polls, now.Sub(p0))
		if err != nil || code != http.StatusOK {
			s.err = fmt.Errorf("poll %s: status %d: %v", s.id, code, err)
			return
		}
		if st.State == serve.StateRunning && s.running.IsZero() {
			s.running = now
		}
		if st.Bugs > 0 && s.bug.IsZero() {
			s.bug = now
		}
		if terminal(st.State) {
			s.done = now
			break
		}
	}
	if s.done.IsZero() {
		s.err = fmt.Errorf("session %s not finished after %v", s.id, sessionTimeout)
		return
	}
	started := s.running
	if started.IsZero() {
		started = s.done
	}
	rec.record(root, s.id, "serve.queue", -1, accepted, started)
	rec.record(root, s.id, "serve.run", -1, started, s.done)
	f0 := time.Now()
	var res serve.Result
	code, err := c.do(http.MethodGet, "/api/v1/campaigns/"+s.id+"/result", nil, &res)
	f1 := time.Now()
	s.fetch = f1.Sub(f0)
	rec.record(root, s.id, "serve.result", -1, f0, f1)
	rec.add(root, 0, s.id, "serve.session", -1, s.sent, f1)
	if err != nil || code != http.StatusOK {
		s.err = fmt.Errorf("result %s: status %d: %v", s.id, code, err)
		return
	}
	s.result = &res
	var buf bytes.Buffer
	if err := json.Compact(&buf, res.CanonicalStats); err != nil {
		s.err = fmt.Errorf("result %s: canonical stats: %w", s.id, err)
		return
	}
	s.canon = buf.Bytes()
}

// setupServer starts a server in dir and fills its history, returning the
// server once every history session is done.
func setupServer(dir string) (*server, error) {
	s, err := startServer(dir)
	if err != nil {
		return nil, err
	}
	c := newClient(s.base)
	defer c.close()
	hist := history()
	sessions := make([]*session, len(hist))
	var wg sync.WaitGroup
	for i, sp := range hist {
		sessions[i] = &session{spec: sp}
		wg.Add(1)
		go func(ses *session) {
			defer wg.Done()
			ses.run(c, nil)
		}(sessions[i])
	}
	wg.Wait()
	for _, ses := range sessions {
		if ses.err != nil || ses.status != http.StatusAccepted || ses.result == nil || ses.result.State != serve.StateDone {
			return nil, errors.Join(fmt.Errorf("history session %s (status %d) did not finish", ses.spec.CorpusID, ses.status), ses.err, s.stop())
		}
	}
	return s, nil
}

// restoredRuns returns the runs of the latest checkpoint of every history
// corpus: what a session resuming that corpus restores instead of executing.
func restoredRuns(dir string) (map[string]int, error) {
	out := map[string]int{}
	for _, sp := range history() {
		camp, err := corpus.Open(filepath.Join(dir, "corpus", sp.CorpusID), sp.Workload, concolic.ModeHigherOrder.String(), nil)
		if err != nil {
			return nil, err
		}
		snap, err := camp.LatestCheckpoint()
		if err != nil {
			return nil, err
		}
		if snap != nil {
			out[sp.CorpusID] = snap.Runs
		}
	}
	return out, nil
}

// phase is one closed-loop timed phase against a running server.
type phase struct {
	sessions []*session
	start    time.Time
	end      time.Time
	// restored maps each history corpus to the runs a session resuming it
	// restores instead of executing.
	restored map[string]int
	census   census
}

// runPhase runs one timed phase against s, then takes the census of its
// data directory and stops it. A resumed session must not move its
// corpus's checkpoint, or the runs it executed would be unknown.
func runPhase(s *server, seed int64, seconds float64, rec *recorder) (*phase, error) {
	restored, err := restoredRuns(s.dir)
	if err != nil {
		return nil, errors.Join(err, s.stop())
	}
	specs := mix(seed, max(1, int(serveSessionsPerSecond*seconds)))
	c := newClient(s.base)
	p := &phase{sessions: make([]*session, len(specs)), start: time.Now(), restored: restored}
	for i, sp := range specs {
		p.sessions[i] = &session{spec: sp}
	}
	closedLoop(runtime.GOMAXPROCS(0), len(specs), func(i int) { p.sessions[i].run(c, rec) })
	p.end = time.Now()
	c.close()
	after, err := restoredRuns(s.dir)
	if err == nil && !maps.Equal(after, restored) {
		err = fmt.Errorf("history checkpoints moved during the phase: %v, then %v", restored, after)
	}
	if err == nil {
		p.census, err = censusDir(s.dir)
	}
	if err = errors.Join(err, s.stop()); err != nil {
		return nil, err
	}
	return p, nil
}

// executed is the number of runs a finished session executed: its result's
// runs less those restored from a history checkpoint.
func (p *phase) executed(ses *session) int {
	if ses.result.Resumed {
		return ses.result.Runs - p.restored[ses.spec.CorpusID]
	}
	return ses.result.Runs
}

// reference runs the in-process search each spec of the mix must reproduce.
type reference struct {
	canon []byte
	sides int
	c     *campaign
	// replay lists the reference's bugs that do not replay on both
	// interpreters.
	replay []string
}

func references(ps []*phase, co campaignOpts) (map[string]*reference, error) {
	refs := map[string]*reference{}
	for _, p := range ps {
		for _, ses := range p.sessions {
			key := specKey(ses.spec)
			if refs[key] != nil {
				continue
			}
			w, ok := lexapp.Get(ses.spec.Workload)
			if !ok {
				return nil, fmt.Errorf("unknown workload %q", ses.spec.Workload)
			}
			co.trace = "ref-" + key
			// The server runs every session under a cancellable context,
			// which the canonical stats record as a configured budget.
			c, err := runCampaign(w.Build(), concolic.ModeHigherOrder,
				search.Options{MaxRuns: ses.spec.MaxRuns, Seeds: w.Seeds, Bounds: w.Bounds, Ctx: context.Background()}, co)
			if err != nil {
				return nil, err
			}
			refs[key] = &reference{canon: c.canon, sides: c.st.BranchSidesCovered(), c: c,
				replay: replayBugs(c.st.Bugs, w.Build(), mini.CompileVM(w.Build()))}
		}
	}
	return refs, nil
}

// checkPhase runs the output checks on every session of a phase and counts
// attempts and failures into the report.
func checkPhase(rep *report, p *phase, refs map[string]*reference) {
	for _, ses := range p.sessions {
		rep.attempted++
		var why string
		switch {
		case ses.err != nil:
			why = ses.err.Error()
		case ses.status != http.StatusAccepted:
			why = fmt.Sprintf("submission refused with status %d", ses.status)
		case ses.result == nil || ses.result.State != serve.StateDone:
			why = "session did not finish done"
		case !bytes.Equal(ses.canon, refs[specKey(ses.spec)].canon):
			why = "canonical stats differ from the in-process reference search"
		case len(refs[specKey(ses.spec)].replay) > 0:
			why = strings.Join(refs[specKey(ses.spec)].replay, "; ")
		}
		ses.passed = why == ""
		if !ses.passed {
			rep.failed++
			rep.fail("session %s (%s, corpus %s): %s", ses.id, ses.spec.Workload, ses.spec.CorpusID, why)
		}
	}
}

func runServeMixed(cfg config) (*report, error) {
	rep := newReport()
	base := filepath.Join(cfg.outDir, fmt.Sprintf("serve-%d", os.Getpid()))
	defer os.RemoveAll(base)
	var setups []float64
	var s *server
	for i := 0; i < serveSetups; i++ {
		if s != nil {
			if err := s.stop(); err != nil {
				return nil, err
			}
		}
		t0 := time.Now()
		var err error
		if s, err = setupServer(filepath.Join(base, fmt.Sprint(i))); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}

	if !cfg.trace {
		p, err := runPhase(s, cfg.seed, cfg.seconds, nil)
		if err != nil {
			return nil, err
		}
		refs, err := references([]*phase{p}, campaignOpts{workers: 1})
		if err != nil {
			return nil, err
		}
		checkPhase(rep, p, refs)
		rep.details["census"] = p.census
		if err := serveEndToEnd(rep, p, refs, setups); err != nil {
			return rep, err
		}
		return rep, nil
	}

	// Traced run: an untraced half (the overhead baseline), then, on a
	// fresh server with the same history and seed, a half
	// recording client spans, then the reference searches through the
	// timing dispatcher for the fol, smt, concolic and search layers.
	plain, err := runPhase(s, cfg.seed, cfg.seconds/2, nil)
	if err != nil {
		return nil, err
	}
	if s, err = setupServer(filepath.Join(base, "traced")); err != nil {
		return nil, err
	}
	rec := newRecorder()
	traced, err := runPhase(s, cfg.seed, cfg.seconds/2, rec)
	if err != nil {
		return nil, err
	}
	g0 := readGoMetrics()
	refs, err := references([]*phase{plain, traced}, campaignOpts{workers: 1, traced: true, rec: rec})
	if err != nil {
		return nil, err
	}
	gdelta := readGoMetrics().sub(g0)
	checkPhase(rep, plain, refs)
	checkPhase(rep, traced, refs)
	path := filepath.Join(cfg.outDir, fmt.Sprintf("spans-serve-mixed-seed%d.jsonl", cfg.seed))
	if err := rec.write(path); err != nil {
		return nil, err
	}
	rep.details["spans_file"] = path

	var cs []*campaign
	for _, r := range refs {
		cs = append(cs, r.c)
	}
	layerSearch(rep, cs, rec)
	layerGo(rep, gdelta, float64(len(cs)))
	rep.set("mini.run_busy_s", 0, "s")
	layerServe(rep, traced)
	p0, _ := latencies(plain)
	p1, _ := latencies(traced)
	d := (median(p1) - median(p0)) / 1000
	rep.set("trace.overhead_s", d, "s")
	rep.set("trace.overhead_ratio", ratio(d*1000, median(p0)), "ratio")
	return rep, nil
}

// latencies returns the submit-to-terminal latency (ms) of every session
// that passed its checks, and the submit-to-first-bug time (s), censored at the
// terminal state for sessions that found none.
func latencies(p *phase) (lat, firstBug []float64) {
	for _, ses := range p.sessions {
		if !ses.passed {
			continue
		}
		lat = append(lat, ses.latencyMS())
		bug := ses.done
		if !ses.bug.IsZero() {
			bug = ses.bug
		}
		firstBug = append(firstBug, bug.Sub(ses.sent).Seconds())
	}
	return lat, firstBug
}

func serveEndToEnd(rep *report, p *phase, refs map[string]*reference, setups []float64) error {
	lat, firstBug := latencies(p)
	if len(lat) == 0 {
		return errors.New("no session finished")
	}
	// branch_sides sums the coverage of each distinct spec once, so it does
	// not grow with the number of sessions a closed loop fits in the phase.
	var runs, sides float64
	seen := map[string]bool{}
	for _, ses := range p.sessions {
		if ses.passed {
			runs += float64(p.executed(ses))
			if key := specKey(ses.spec); !seen[key] {
				seen[key] = true
				sides += float64(refs[key].sides)
			}
		}
	}
	wall := p.end.Sub(p.start).Seconds()
	tailMS, pct := tailOrMedian(lat)
	rss, err := peakRSSMB()
	if err != nil {
		return err
	}
	rep.set("setup_s", median(setups), "s")
	rep.set("runs_per_s", runs/wall, "1/s")
	rep.set("first_bug_s", median(firstBug), "s")
	rep.set("campaign_p50_ms", median(lat), "ms")
	rep.set("campaign_tail_ms", tailMS, "ms")
	rep.set("campaigns_per_s", float64(len(lat))/wall, "1/s")
	rep.set("branch_sides", sides, "count")
	rep.set("peak_rss_mb", rss, "MB")
	rep.set("ok_frac", 1-ratio(float64(rep.failed), float64(rep.attempted)), "ratio")
	rep.details["samples"] = map[string]int{"sessions": len(p.sessions), "finished": len(lat), "setups": len(setups)}
	rep.details["campaign_tail_pct"] = pct
	p50s := map[string]float64{}
	for kind, v := range p.latencyByKind() {
		p50s[kind] = median(v)
	}
	rep.details["campaign_p50_ms_by_kind"] = p50s
	return nil
}

// latencyByKind groups the submit-to-terminal latencies (ms) of the sessions
// that passed their checks by kind: small or lexer, fresh or resumed.
func (p *phase) latencyByKind() map[string][]float64 {
	out := map[string][]float64{}
	for _, ses := range p.sessions {
		if !ses.passed {
			continue
		}
		kind := "small"
		if ses.spec.Workload == "lexer" {
			kind = "lexer"
		}
		if strings.HasPrefix(ses.spec.CorpusID, "h-") {
			kind += "-resume"
		}
		out[kind] = append(out[kind], ses.latencyMS())
	}
	return out
}

// census is the data directory's footprint after the timed phase.
type census struct {
	Sessions   int   `json:"sessions"`
	Files      int   `json:"files"`
	Bytes      int64 `json:"bytes"`
	IndexBytes int64 `json:"index_bytes"`
}

func censusDir(dir string) (census, error) {
	var c census
	idx, err := os.ReadFile(filepath.Join(dir, "sessions.json"))
	if err != nil {
		return c, fmt.Errorf("census: %w", err)
	}
	c.IndexBytes = int64(len(idx))
	var entries []json.RawMessage
	if err := json.Unmarshal(idx, &entries); err != nil {
		return c, fmt.Errorf("census: sessions.json: %w", err)
	}
	c.Sessions = len(entries)
	err = filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		c.Files++
		c.Bytes += info.Size()
		return nil
	})
	if err != nil {
		return c, fmt.Errorf("census: %w", err)
	}
	return c, nil
}

// layerServe reports the client-side serve spans of a phase and the census
// of its data directory.
func layerServe(rep *report, p *phase) {
	c := p.census
	var submit, queue, run, polls, firstTest, result []float64
	refused, finished, resumed := 0.0, 0.0, 0.0
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	for _, ses := range p.sessions {
		submit = append(submit, ms(ses.submit))
		switch ses.status {
		case http.StatusTooManyRequests, http.StatusServiceUnavailable, http.StatusConflict:
			refused++
		}
		for _, d := range ses.polls {
			polls = append(polls, ms(d))
		}
		if ses.done.IsZero() {
			continue
		}
		accepted := ses.sent.Add(ses.submit)
		started := ses.running
		if started.IsZero() {
			started = ses.done
		}
		queue = append(queue, ms(started.Sub(accepted)))
		run = append(run, ms(ses.done.Sub(started)))
		if ses.result != nil {
			finished++
			result = append(result, ms(ses.fetch))
			if ses.result.Resumed {
				resumed++
			}
			if ses.result.FirstTestMS >= 0 {
				firstTest = append(firstTest, float64(ses.result.FirstTestMS))
			}
		}
	}
	submitTail, _ := tailOrMedian(submit)
	rep.set("serve.submit_ms_p50", median(submit), "ms")
	rep.set("serve.submit_ms_tail", submitTail, "ms")
	rep.set("serve.refused_n", refused, "count")
	rep.set("serve.queue_wait_ms_p50", median(queue), "ms")
	rep.set("serve.run_ms_p50", median(run), "ms")
	rep.set("serve.poll_ms_p50", median(polls), "ms")
	rep.set("serve.first_test_ms_p50", median(firstTest), "ms")
	rep.set("serve.result_ms_p50", median(result), "ms")
	// Small sessions run a few milliseconds of search, so their latency is
	// mostly the server's own path: admission, index, corpus and result.
	byKind := p.latencyByKind()
	rep.set("serve.small_session_ms_p50", median(append(byKind["small"], byKind["small-resume"]...)), "ms")
	rep.set("campaign.bytes_per_session", ratio(float64(c.Bytes), float64(c.Sessions)), "bytes")
	rep.set("campaign.files_per_session", ratio(float64(c.Files), float64(c.Sessions)), "count")
	rep.set("campaign.index_bytes", float64(c.IndexBytes), "bytes")
	rep.set("campaign.resumed_ratio", ratio(resumed, finished), "ratio")
	rep.details["census"] = c
}
