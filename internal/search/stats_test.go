package search

import (
	"strings"
	"testing"
	"time"

	"hotg/internal/mini"
)

// TestSummaryGolden pins the exact Summary lines: the report format is parsed
// by downstream tooling and eyeballed in CI logs, so changes must be
// deliberate.
func TestSummaryGolden(t *testing.T) {
	cases := []struct {
		name  string
		stats *Stats
		want  string
	}{
		{
			name: "basic dart line",
			stats: func() *Stats {
				s := newStats("dart-sound", 4)
				s.Runs = 12
				s.TestsGenerated = 9
				s.Divergences = 1
				return s
			}(),
			want: "dart-sound           runs=12   tests=9    cov=0/8 paths=0    bugs=0 div=1",
		},
		{
			name: "prover clause appears with prover calls",
			stats: func() *Stats {
				s := newStats("higher-order", 2)
				s.Runs = 5
				s.TestsGenerated = 3
				s.ProverCalls = 7
				s.ProverProved = 4
				s.ProverInvalid = 2
				s.MultiStepChains = 1
				return s
			}(),
			want: "higher-order         runs=5    tests=3    cov=0/4 paths=0    bugs=0 div=0 prove=4/7 inv=2 multi=1",
		},
		{
			name: "cache clause appears with cache traffic",
			stats: func() *Stats {
				s := newStats("higher-order", 1)
				s.ProofCacheHits = 10
				s.ProofCacheMisses = 5
				return s
			}(),
			want: "higher-order         runs=0    tests=0    cov=0/2 paths=0    bugs=0 div=0 cache=10/15",
		},
		{
			name: "workers clause appears above one worker",
			stats: func() *Stats {
				s := newStats("higher-order", 1)
				s.Workers = 4
				s.WallTime = 1500 * time.Millisecond
				s.SolveTime = 4200 * time.Millisecond
				return s
			}(),
			want: "higher-order         runs=0    tests=0    cov=0/2 paths=0    bugs=0 div=0 workers=4 wall=1.5s solve=4.2s",
		},
		{
			name: "incomplete and exhausted flags",
			stats: func() *Stats {
				s := newStats("static", 1)
				s.Incomplete = true
				s.Exhausted = true
				return s
			}(),
			want: "static               runs=0    tests=0    cov=0/2 paths=0    bugs=0 div=0 (incomplete) (exhausted)",
		},
	}
	for _, tc := range cases {
		if got := tc.stats.Summary(); got != tc.want {
			t.Errorf("%s:\n got: %q\nwant: %q", tc.name, got, tc.want)
		}
	}
}

func TestParallelSummaryGolden(t *testing.T) {
	s := newStats("higher-order", 1)
	s.Workers = 3
	s.WallTime = 2 * time.Second
	s.SolveTime = 5 * time.Second
	s.ProofsPerWorker = []int64{10, 12, 8}
	s.ProofCacheHits = 6
	s.ProofCacheMisses = 4
	want := "workers=3 wall=2s solve=5s tasks=[10 12 8] cache=6/10"
	if got := s.ParallelSummary(); got != want {
		t.Errorf("ParallelSummary:\n got: %q\nwant: %q", got, want)
	}
}

// TestParallelSummaryEmptyForSequential: sequential searches report nothing —
// cmd/hotg prints the line only when non-empty.
func TestParallelSummaryEmptyForSequential(t *testing.T) {
	s := newStats("higher-order", 1)
	s.Workers = 1
	if got := s.ParallelSummary(); got != "" {
		t.Errorf("ParallelSummary for workers=1 = %q, want empty", got)
	}
}

// TestSummaryCoverageAndBugs exercises the computed columns (coverage, paths,
// deduplicated bug sites) through recordRun rather than field assignment.
func TestSummaryCoverageAndBugs(t *testing.T) {
	s := newStats("dart-unsound", 2)
	res := &mini.Result{
		Kind:      mini.StopError,
		ErrorSite: 3,
		ErrorMsg:  "boom",
		Branches:  []mini.BranchEvent{{ID: 0, Taken: true}, {ID: 1, Taken: false}},
	}
	s.recordRun(res, []int64{1})
	s.recordRun(res, []int64{1}) // same path and same bug: paths and bugs stay 1
	want := "dart-unsound         runs=2    tests=0    cov=2/4 paths=1    bugs=1 div=0"
	if got := s.Summary(); got != want {
		t.Errorf("Summary:\n got: %q\nwant: %q", got, want)
	}
	if len(s.Bugs) != 1 || s.Bugs[0].Run != 1 {
		t.Errorf("bug dedup failed: %v", s.Bugs)
	}
}

// TestPackPathRoundTrip checks that the packed path keys invert exactly and
// keep distinct traces distinct, including traces that differ only in length
// (trailing not-taken events pack to the same bits).
func TestPackPathRoundTrip(t *testing.T) {
	paths := []string{"", "0", "1", "00", "01", "10", "0000000", "00000000", "000000000",
		"101100111000111101", strings.Repeat("01", 300)}
	seen := map[string]string{}
	for _, p := range paths {
		k, ok := packPath(p)
		if !ok {
			t.Fatalf("packPath(%q) rejected a binary path", p)
		}
		if got := unpackPath(k); got != p {
			t.Errorf("unpackPath(packPath(%q)) = %q", p, got)
		}
		if prev, dup := seen[k]; dup {
			t.Errorf("paths %q and %q pack to the same key", prev, p)
		}
		seen[k] = p
	}
	for _, bad := range []string{"2", "01a", "0 1", "\x00"} {
		if _, ok := packPath(bad); ok {
			t.Errorf("packPath(%q) accepted a non-binary path", bad)
		}
	}
}
