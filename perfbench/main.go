// Command perfbench is the repository benchmark: it runs one workload for a
// fixed time, checks every output, and prints the end-to-end metrics (or,
// with -trace 1, the per-layer metrics of a separate traced run) as one JSON
// object on the last line of standard output.
//
//	perfbench -workload lexer-ho -seed 1 -seconds 20 -trace 0
//
// Workloads:
//
//	lexer-ho     the Section 7 lexer in higher-order mode, closed loop
//	lexer-dart   the same lexer and search in dart-sound mode (DART baseline)
//	serve-mixed  an in-process campaign server driven closed loop over loopback
//
// The seed selects the inputs: extra initial inputs for the lexer workloads,
// the spec order for serve-mixed. Nothing inside the
// program is instrumented for the benchmark; the traced run times calls into
// each module's public functions from this package (see dispatch.go and
// serve.go) and reads only counters the program already publishes. The
// traced lexer run depends on search.Options.Dispatch: a change that removes
// that seam must move the traced run onto another mechanism.
//
// The process exits 0 when every output check passed, 1 when a check failed
// (the result line is still printed), and 2 on a usage or set-up error
// (nothing is printed).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// hardLimit bounds a whole invocation; past it the process gives up.
const hardLimit = 170 * time.Second

// config is one invocation of the benchmark.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// outDir receives the span file of a traced run.
	outDir string
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is what a workload run produces: the checked outcome, the metrics
// for the last line, and details (sample counts, percentiles, overhead) for
// the line before it.
type report struct {
	attempted int
	failed    int
	problems  []string
	metrics   map[string]metric
	details   map[string]any
}

func newReport() *report {
	return &report{metrics: map[string]metric{}, details: map[string]any{}}
}

func (r *report) set(name string, v float64, unit string) { r.metrics[name] = metric{v, unit} }

// fail records a failed output check.
func (r *report) fail(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// workloads maps a workload name to its runner.
var workloads = map[string]func(config) (*report, error){
	"lexer-ho":    runLexerHO,
	"lexer-dart":  runLexerDart,
	"serve-mixed": runServeMixed,
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg config
	var trace int
	fs.StringVar(&cfg.workload, "workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	fs.Int64Var(&cfg.seed, "seed", 1, "workload seed")
	fs.Float64Var(&cfg.seconds, "seconds", 20, "measured time per run, in seconds")
	fs.IntVar(&trace, "trace", 0, "1 runs the traced run and reports per-layer metrics")
	fs.StringVar(&cfg.outDir, "out", filepath.Join(".bench_build", "perfbench"), "directory for span files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	runner, ok := workloads[cfg.workload]
	if !ok || cfg.seconds <= 0 || (trace != 0 && trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need -workload (%s), -seconds > 0 and -trace 0|1\n",
			strings.Join(workloadNames(), ", "))
		return 2
	}
	cfg.trace = trace == 1
	timer := time.AfterFunc(hardLimit, func() {
		fmt.Fprintf(stderr, "perfbench: %s did not finish within %v\n", cfg.workload, hardLimit)
		os.Exit(2)
	})
	defer timer.Stop()

	rep, err := runner(cfg)
	if rep != nil {
		for _, p := range rep.problems {
			fmt.Fprintf(stderr, "perfbench: check failed: %s\n", p)
		}
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", cfg.workload, err)
		return 2
	}
	res := result{
		Correct:   len(rep.problems) == 0 && rep.failed == 0,
		Attempted: rep.attempted,
		Failed:    rep.failed,
		Metrics:   rep.metrics,
	}
	rep.details["workload"], rep.details["seed"], rep.details["trace"] = cfg.workload, cfg.seed, trace
	detail, _ := json.Marshal(rep.details) // plain maps of numbers and strings
	fmt.Fprintln(stdout, string(detail))
	last, _ := json.Marshal(res)
	fmt.Fprintln(stdout, string(last))
	if !res.Correct {
		return 1
	}
	return 0
}

func workloadNames() []string {
	var out []string
	for name := range workloads {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}
