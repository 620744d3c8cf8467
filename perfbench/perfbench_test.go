package main

import (
	"bytes"
	"runtime"
	"sync"
	"testing"
	"time"

	"hotg/internal/concolic"
	"hotg/internal/lexapp"
	"hotg/internal/mini"
	"hotg/internal/search"
)

// The timing dispatcher must leave the search's canonical trajectory
// untouched: canonical stats through it equal the local search's, at one
// worker and at one per CPU, on proofs (higher-order), satisfiability checks
// (dart-sound), multi-step continuations (foo) and function inputs
// (cb-filter).
func TestTimingDispatcherMatchesLocal(t *testing.T) {
	cases := []struct {
		workload string
		mode     concolic.Mode
		runs     int
	}{
		{"lexer", concolic.ModeHigherOrder, 60},
		{"lexer", concolic.ModeSound, 120},
		{"foo", concolic.ModeHigherOrder, 40},
		{"cb-filter", concolic.ModeHigherOrder, 40},
	}
	for _, tc := range cases {
		for _, workers := range []int{1, runtime.NumCPU()} {
			w, ok := lexapp.Get(tc.workload)
			if !ok {
				t.Fatalf("no workload %q", tc.workload)
			}
			opts := search.Options{MaxRuns: tc.runs, Seeds: w.Seeds, Bounds: w.Bounds}
			if len(opts.Seeds) == 0 {
				opts.Seeds = [][]int64{make([]int64, len(concolic.New(w.Build(), tc.mode).InputVars))}
			}
			local, err := runCampaign(w.Build(), tc.mode, opts, campaignOpts{workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			rec := newRecorder()
			traced, err := runCampaign(w.Build(), tc.mode, opts, campaignOpts{workers: workers, traced: true, rec: rec, trace: "t"})
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(local.canon, traced.canon) {
				t.Errorf("%s %v workers=%d: canonical stats differ through the timing dispatcher", tc.workload, tc.mode, workers)
			}
			if len(traced.disp.units) == 0 || len(rec.snapshot()) == 0 {
				t.Errorf("%s %v workers=%d: nothing was timed", tc.workload, tc.mode, workers)
			}
			if bad := replayBugs(traced.st.Bugs, w.Build(), mini.CompileVM(w.Build())); len(bad) > 0 {
				t.Errorf("%s %v workers=%d: %v", tc.workload, tc.mode, workers, bad)
			}
		}
	}
}

func TestTailNeedsTenSamplesBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[n-1-i] = float64(i + 1) // unsorted on purpose
		}
		return out
	}
	if _, _, ok := tail(seq(10)); ok {
		t.Errorf("10 samples: reported a tail; none can have 10 samples beyond it")
	}
	for _, tc := range []struct {
		n   int
		v   float64
		pct int
	}{
		{11, 1, 0}, // too few for any percentile from p50 up
		{20, 10, 50},
		{100, 90, 90},
		{1000, 990, 99},
	} {
		v, pct, ok := tail(seq(tc.n))
		if tc.pct == 0 {
			if ok {
				t.Errorf("n=%d: reported p%d", tc.n, pct)
			}
			continue
		}
		if !ok || v != tc.v || pct != tc.pct {
			t.Errorf("n=%d: tail = %v at p%d (ok=%v), want %v at p%d", tc.n, v, pct, ok, tc.v, tc.pct)
		}
		beyond := 0
		for _, x := range seq(tc.n) {
			if x > v {
				beyond++
			}
		}
		if beyond < tailBeyond {
			t.Errorf("n=%d: only %d samples beyond the tail", tc.n, beyond)
		}
	}
	if v, pct := tailOrMedian(seq(10)); v != 5.5 || pct != 50 {
		t.Errorf("tailOrMedian of 10 samples = %v at p%d, want the median 5.5 at p50", v, pct)
	}
}

func TestClosedLoopKeepsKInFlight(t *testing.T) {
	const k, n = 3, 40
	var mu sync.Mutex
	inFlight, most := 0, 0
	calls := make([]int, n)
	closedLoop(k, n, func(i int) {
		mu.Lock()
		calls[i]++
		inFlight++
		most = max(most, inFlight)
		mu.Unlock()
		time.Sleep(time.Millisecond)
		mu.Lock()
		inFlight--
		mu.Unlock()
	})
	if most != k {
		t.Errorf("at most %d requests in flight at once, want %d", most, k)
	}
	for i, c := range calls {
		if c != 1 {
			t.Errorf("request %d made %d times, want once", i, c)
		}
	}
}

func TestSelfTimeSubtractsCoveredChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Start: 0, End: 100},
		{ID: 2, Parent: 1, Start: 10, End: 40},
		{ID: 3, Parent: 1, Start: 30, End: 50},  // overlaps span 2
		{ID: 4, Parent: 1, Start: 90, End: 120}, // runs past its parent
	}
	self := selfTimes(spans)
	if self[1] != 50 {
		t.Errorf("self time of the root = %v, want 50ns", self[1])
	}
	if self[2] != 30 {
		t.Errorf("self time of a leaf = %v, want its duration 30ns", self[2])
	}
}

func TestTimeBatchesReportsMeanPerCall(t *testing.T) {
	calls := 0
	got := timeBatches(3, 5*time.Millisecond, func() {
		calls++
		time.Sleep(time.Millisecond)
	})
	if len(got) != 3 {
		t.Fatalf("got %d batches, want 3", len(got))
	}
	// Each batch repeats its call until 5ms have passed, so the total of
	// the batches' times is at least 15ms.
	total := 0.0
	for i, v := range got {
		if v < 0.001 {
			t.Errorf("batch %d: %vs per call, want the mean of calls of at least 1ms", i, v)
		}
		total += v
	}
	if mean := total / 3; mean*float64(calls) < 0.015 {
		t.Errorf("%d calls of %vs on average, want batches of at least 5ms", calls, mean)
	}
}
