package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"time"

	"hotg/internal/concolic"
	"hotg/internal/lexapp"
	"hotg/internal/mini"
	"hotg/internal/obs"
	"hotg/internal/search"
)

// The lexer workloads run the Section 7 study: one client, one campaign at a
// time (closed loop), Workers = GOMAXPROCS. lexer-ho is the paper's headline,
// where proofs, the solver inside them and the proof cache do most of the
// work; lexer-dart is the DART baseline on the same program and search,
// which makes no validity proofs, so the executor and search self time
// dominate. The run budgets reach the three deep parser bugs under
// higher-order search (runs 77, 423 and 437 on the workload's own seeds).
var (
	lexerHO   = lexerSpec{name: "lexer-ho", mode: concolic.ModeHigherOrder, maxRuns: 1000}
	lexerDart = lexerSpec{name: "lexer-dart", mode: concolic.ModeSound, maxRuns: 2000}
)

const (
	// A lexer set-up takes about a third of a millisecond, too short to
	// time once: it is repeated in setupBatches batches of at least
	// setupBatch each, and setup_s is the median of the batches' mean
	// times per set-up.
	setupBatches = 21
	setupBatch   = 10 * time.Millisecond
	// extraSeeds is how many seed-derived inputs are appended to the
	// workload's own seeds.
	extraSeeds = 2
	// minCampaigns is the fewest campaigns a phase runs, however short.
	minCampaigns = 3
)

type lexerSpec struct {
	name    string
	mode    concolic.Mode
	maxRuns int
}

func runLexerHO(cfg config) (*report, error)   { return runLexer(cfg, lexerHO) }
func runLexerDart(cfg config) (*report, error) { return runLexer(cfg, lexerDart) }

// junkInput returns a variant of a keyword-free seed: every letter replaced
// by a random letter and every digit by a random digit, keeping the chunk
// structure, so the lexer takes the same path through its character classes
// while every chunk hashes differently. Chunks that would hash like a
// keyword are drawn again, so reaching a keyword still requires inverting
// the hash.
func junkInput(rng *rand.Rand, base []int64) []int64 {
	kw := make(map[int64]bool)
	for _, k := range lexapp.Keywords {
		kw[lexapp.KeywordHash(k.Word)] = true
	}
	out := append([]int64(nil), base...)
	for start := 0; start < len(out); {
		end := start
		for end < len(out) && out[end] != ' ' && out[end] != 0 {
			end++
		}
		for end > start {
			var chunk []byte
			for i := start; i < end; i++ {
				switch c := out[i]; {
				case c >= 'a' && c <= 'z':
					out[i] = int64('a' + rng.Intn(26))
				case c >= '0' && c <= '9':
					out[i] = int64('0' + rng.Intn(10))
				}
				chunk = append(chunk, byte(out[i]))
			}
			if !kw[lexapp.KeywordHash(string(chunk))] {
				break
			}
		}
		start = end + 1
	}
	return out
}

// lexerSeeds returns the workload's own seeds followed by the seed-derived
// extra inputs, variants of the own seeds in turn.
func lexerSeeds(w *lexapp.Workload, seed int64) [][]int64 {
	rng := rand.New(rand.NewSource(seed))
	out := append([][]int64(nil), w.Seeds...)
	for i := 0; i < extraSeeds; i++ {
		out = append(out, junkInput(rng, w.Seeds[i%len(w.Seeds)]))
	}
	return out
}

// lexerSetup builds the lexer program and an engine for it.
func lexerSetup(mode concolic.Mode) (*lexapp.Workload, *concolic.Engine) {
	w := lexapp.Lexer()
	return w, concolic.New(w.Build(), mode)
}

// campaign is the outcome of one search.
type campaign struct {
	wall     time.Duration
	firstBug time.Duration // time to the first bug, or wall when none was found
	st       *search.Stats
	canon    []byte
	inputs   [][]int64
	// disp and o are set on traced campaigns.
	disp *timingDispatcher
	o    *obs.Obs
}

// campaignOpts is what varies between the campaigns of a run.
type campaignOpts struct {
	workers    int
	keepInputs bool
	// traced runs the search through a timing dispatcher recording into rec.
	traced bool
	rec    *recorder
	trace  string
}

// runCampaign runs one search of prog on a fresh engine.
func runCampaign(prog *mini.Program, mode concolic.Mode, opts search.Options, co campaignOpts) (*campaign, error) {
	eng := concolic.New(prog, mode)
	c := &campaign{}
	opts.Workers = co.workers
	var root int64
	if co.traced {
		o := obs.New()
		opts.Obs, c.o = o, o
		root = co.rec.id()
		c.disp = newTimingDispatcher(eng, opts.Bounds, co.workers, o, co.rec, co.trace, root)
		opts.Dispatch = c.disp
	}
	var start time.Time
	found := false
	opts.OnRun = func(rr search.RunRecord) {
		if !found && len(rr.Bugs) > 0 {
			found = true
			c.firstBug = time.Since(start)
		}
		if co.keepInputs {
			c.inputs = append(c.inputs, rr.Input)
		}
	}
	start = time.Now()
	c.st = search.Run(eng, opts)
	end := time.Now()
	c.wall = end.Sub(start)
	if !found {
		c.firstBug = c.wall
	}
	if co.traced {
		co.rec.add(root, 0, co.trace, "search.campaign", -1, start, end)
	}
	canon, err := c.st.Canonical()
	if err != nil {
		return nil, fmt.Errorf("canonical stats: %w", err)
	}
	c.canon = canon
	return c, nil
}

// checkCampaign runs the output checks on one campaign: the search ran its
// whole budget, its canonical stats equal the reference bytes, and every
// reported bug replays to the same error on both interpreters.
func checkCampaign(c *campaign, maxRuns int, prog *mini.Program, vm *mini.Compiled, ref []byte) []string {
	var bad []string
	if c.st.DispatchError != "" {
		bad = append(bad, "dispatch error: "+c.st.DispatchError)
	}
	if c.st.Runs != maxRuns && !c.st.Exhausted {
		bad = append(bad, fmt.Sprintf("ran %d of %d runs", c.st.Runs, maxRuns))
	}
	if !bytes.Equal(c.canon, ref) {
		bad = append(bad, "canonical stats differ from the run's first campaign")
	}
	bad = append(bad, replayBugs(c.st.Bugs, prog, vm)...)
	return bad
}

// replayBugs re-runs every bug input on the tree interpreter and the bytecode
// VM and reports any that does not stop at the same error.
func replayBugs(bugs []search.Bug, prog *mini.Program, vm *mini.Compiled) []string {
	var bad []string
	for _, b := range bugs {
		funcs, err := parseFuncs(b.Funcs)
		if err != nil {
			bad = append(bad, fmt.Sprintf("bug %q (run %d): %v", b.Msg, b.Run, err))
			continue
		}
		opts := mini.RunOptions{Funcs: funcs}
		for name, res := range map[string]*mini.Result{
			"mini.Run":   mini.Run(prog, b.Input, opts),
			"mini.RunVM": mini.RunVM(vm, b.Input, opts),
		} {
			msg, site := res.RuntimeMsg, -1
			if res.Kind == mini.StopError {
				msg, site = res.ErrorMsg, res.ErrorSite
			}
			if res.Kind != b.Kind || msg != b.Msg || site != b.Site {
				bad = append(bad, fmt.Sprintf("bug %q (run %d) replays on %s as %v %q", b.Msg, b.Run, name, res.Kind, msg))
			}
		}
	}
	return bad
}

// goMetrics samples the runtime counters the per-layer report uses.
type goMetrics struct{ allocBytes, allocObjects, gcCycles, gcCPU float64 }

func readGoMetrics() goMetrics {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/heap/allocs:objects"},
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
	}
	metrics.Read(s)
	val := func(v metrics.Value) float64 {
		switch v.Kind() {
		case metrics.KindUint64:
			return float64(v.Uint64())
		case metrics.KindFloat64:
			return v.Float64()
		}
		return 0
	}
	return goMetrics{val(s[0].Value), val(s[1].Value), val(s[2].Value), val(s[3].Value)}
}

func (a goMetrics) sub(b goMetrics) goMetrics {
	return goMetrics{a.allocBytes - b.allocBytes, a.allocObjects - b.allocObjects,
		a.gcCycles - b.gcCycles, a.gcCPU - b.gcCPU}
}

// runLexer runs one lexer workload: set-up, then campaigns in a closed loop
// until the time is up. The untraced run reports the end-to-end metrics; the
// traced run spends the first half untraced (the baseline for the overhead
// and the Go runtime figures) and the second half through the timing
// dispatcher.
func runLexer(cfg config, spec lexerSpec) (*report, error) {
	rep := newReport()
	var w *lexapp.Workload
	setups := timeBatches(setupBatches, setupBatch, func() { w, _ = lexerSetup(spec.mode) })
	prog := w.Build()
	vm := mini.CompileVM(prog)
	seeds := lexerSeeds(w, cfg.seed)
	workers := runtime.GOMAXPROCS(0)

	var ref []byte
	runPhase := func(d time.Duration, co campaignOpts) ([]*campaign, error) {
		var out []*campaign
		deadline := time.Now().Add(d)
		for len(out) < minCampaigns || time.Now().Before(deadline) {
			if co.traced {
				co.trace = fmt.Sprintf("campaign-%d", len(out)+1)
			}
			c, err := runCampaign(prog, spec.mode, search.Options{MaxRuns: spec.maxRuns, Seeds: seeds, Bounds: w.Bounds}, co)
			if err != nil {
				return nil, err
			}
			if ref == nil {
				ref = c.canon
			}
			rep.attempted++
			if bad := checkCampaign(c, spec.maxRuns, prog, vm, ref); len(bad) > 0 {
				rep.failed++
				for _, b := range bad {
					rep.fail("%s campaign %d: %s", spec.name, len(out)+1, b)
				}
			}
			out = append(out, c)
		}
		return out, nil
	}
	total := time.Duration(cfg.seconds * float64(time.Second))

	if !cfg.trace {
		t0 := time.Now()
		cs, err := runPhase(total, campaignOpts{workers: workers})
		if err != nil {
			return nil, err
		}
		return rep, lexerEndToEnd(rep, cs, setups, time.Since(t0))
	}

	g0 := readGoMetrics()
	plain, err := runPhase(total/2, campaignOpts{workers: workers, keepInputs: true})
	if err != nil {
		return nil, err
	}
	gdelta := readGoMetrics().sub(g0)
	rec := newRecorder()
	traced, err := runPhase(total/2, campaignOpts{workers: workers, traced: true, rec: rec})
	if err != nil {
		return nil, err
	}
	path := filepath.Join(cfg.outDir, fmt.Sprintf("spans-%s-seed%d.jsonl", spec.name, cfg.seed))
	if err := rec.write(path); err != nil {
		return nil, err
	}
	rep.details["spans_file"] = path

	// Concrete replay of one campaign's executed inputs: the floor for the
	// concrete half of an execution.
	t0 := time.Now()
	for _, in := range plain[0].inputs {
		mini.Run(prog, in, mini.RunOptions{})
	}
	miniBusy := time.Since(t0).Seconds()

	n := float64(len(plain))
	layerGo(rep, gdelta, n)
	layerSearch(rep, traced, rec)
	rep.set("mini.run_busy_s", miniBusy, "s")
	layerServeAbsent(rep)
	overhead(rep, plain, traced)
	return rep, nil
}

// lexerEndToEnd fills the end-to-end metrics of an untraced lexer run.
func lexerEndToEnd(rep *report, cs []*campaign, setups []float64, phase time.Duration) error {
	var walls, rates, bugs, sides []float64
	for _, c := range cs {
		walls = append(walls, c.wall.Seconds()*1000)
		rates = append(rates, float64(c.st.Runs)/c.wall.Seconds())
		bugs = append(bugs, c.firstBug.Seconds())
		sides = append(sides, float64(c.st.BranchSidesCovered()))
	}
	tailMS, pct := tailOrMedian(walls)
	rss, err := peakRSSMB()
	if err != nil {
		return err
	}
	rep.set("setup_s", median(setups), "s")
	rep.set("runs_per_s", median(rates), "1/s")
	rep.set("first_bug_s", median(bugs), "s")
	rep.set("campaign_p50_ms", median(walls), "ms")
	rep.set("campaign_tail_ms", tailMS, "ms")
	rep.set("campaigns_per_s", float64(len(cs))/phase.Seconds(), "1/s")
	rep.set("branch_sides", median(sides), "count")
	rep.set("peak_rss_mb", rss, "MB")
	rep.set("ok_frac", 1-ratio(float64(rep.failed), float64(rep.attempted)), "ratio")
	rep.details["samples"] = map[string]int{"campaigns": len(cs), "setup_batches": len(setups)}
	rep.details["campaign_tail_pct"] = pct
	rep.details["bugs_per_campaign"] = len(cs[0].st.Bugs)
	rep.details["campaign_wall_ms"] = walls
	return nil
}
