// Command perfbench is the benchmark of the extscc engine and its query
// server.  It generates a workload's input from a seed with internal/graphgen,
// drives the shipped defaults through their public entry points
// (extscc.New/Engine.Run on a FileSource, serve.New's handler on a loopback
// listener) for a fixed time, each sample in a child process of its own
// (child.go), checks every answer against an in-memory oracle, and prints
// the end-to-end metrics — or, with -trace 1, the per-layer metrics of one
// extra traced sample.  The last line of standard
// output is one JSON object:
//
//	{"correct": true, "attempted": 1000, "failed": 0, "metrics": {"run_s": {"value": 7.9, "unit": "s"}, ...}}
//
// Build and run it through run.sh, from the root of a checkout:
//
//	bash perfbench/run.sh --workload contract-web --seed 1 --seconds 55 --trace 0
//
// README.md beside this file defines every metric and workload.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"
)

// deadline bounds one invocation, set-up and traced sample included.
const deadline = 170 * time.Second

func main() {
	if mode := os.Getenv(childEnv); mode != "" {
		os.Exit(childMain(mode))
	}
	os.Exit(run(os.Args[1:], os.Stdout))
}

// options are the command-line settings of one invocation.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	out      string
}

func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var o options
	var trace int
	fs.StringVar(&o.workload, "workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	fs.Int64Var(&o.seed, "seed", 1, "seed the workload's inputs are generated from")
	fs.Float64Var(&o.seconds, "seconds", 30, "how long to measure")
	fs.IntVar(&trace, "trace", 0, "1 = report the per-layer metrics of an extra traced sample")
	fs.StringVar(&o.out, "out", ".bench_build", "directory for scratch files and results")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	o.trace = trace == 1
	w, ok := findWorkload(o.workload)
	if !ok || o.seconds <= 0 || (trace != 0 && trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need -workload (%s), -seconds > 0 and -trace 0|1\n", strings.Join(workloadNames(), ", "))
		return 2
	}
	// A signal cancels the run, so its scratch files are still removed.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	ctx, cancel := context.WithTimeout(ctx, deadline)
	defer cancel()
	res, err := measure(ctx, w, o)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	res.print(stdout)
	if !res.Correct {
		return 1
	}
	return 0
}

// maxProcs is the GOMAXPROCS of the benchmark and of its children: no
// workload uses more than two threads.
func maxProcs() int { return min(2, runtime.NumCPU()) }

func workloadNames() []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return names
}

// runner holds the state of one invocation.
type runner struct {
	w       workload
	seed    int64
	seconds time.Duration
	work    string // the invocation's scratch directory
	tmp     string // the program's temp directory; empty after every sample
	in      *input

	attempted, failed int
	errs              []string
}

// measure generates the workload's input, runs the timed samples and, when
// asked, the traced sample, and assembles the result.
func measure(ctx context.Context, w workload, o options) (*result, error) {
	runtime.GOMAXPROCS(maxProcs())
	out, err := filepath.Abs(o.out)
	if err != nil {
		return nil, err
	}
	o.out = out
	work := filepath.Join(o.out, "work", fmt.Sprintf("%s-s%d-%d", w.name, o.seed, os.Getpid()))
	r := &runner{w: w, seed: o.seed, seconds: time.Duration(o.seconds * float64(time.Second)), work: work, tmp: filepath.Join(work, "tmp")}
	if err := os.MkdirAll(r.tmp, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(work)

	if r.in, err = makeInput(w, o.seed, filepath.Join(work, "input.edges")); err != nil {
		return nil, err
	}
	res := newResult(r, o, currentHost())
	if w.batch != nil {
		err = r.measureBatch(ctx, res, o.trace)
	} else {
		err = r.measureServe(ctx, res, o.trace)
	}
	if err != nil {
		return nil, err
	}
	self := selfTimes(res.spans)
	for i, s := range res.spans {
		if self[i] < 0 || self[i] > s.dur() {
			r.fail(fmt.Errorf("span %s: self time %v outside [0, %v]", s.Name, self[i], s.dur()))
		}
	}
	res.finish(r)
	resultsDir := filepath.Join(o.out, "results")
	if err := os.MkdirAll(resultsDir, 0o755); err != nil {
		return nil, err
	}
	name := fmt.Sprintf("%s-seed%d-trace%d", w.name, o.seed, map[bool]int{false: 0, true: 1}[o.trace])
	if res.spans != nil {
		res.TraceFile = filepath.Join(resultsDir, name+".trace.json")
		if err := writeChromeTrace(res.TraceFile, res.spans, map[string]any{"workload": w.name, "seed": o.seed, "host": res.Host}); err != nil {
			return nil, err
		}
	}
	data, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return nil, err
	}
	res.ResultFile = filepath.Join(resultsDir, name+".json")
	return res, os.WriteFile(res.ResultFile, data, 0o644)
}

// checkClean fails when a sample left files in the program's temp
// directory: after Close no extscc-engine-* or sccserve-* may remain.
func (r *runner) checkClean() error {
	ents, err := os.ReadDir(r.tmp)
	if err != nil {
		return err
	}
	if len(ents) == 0 {
		return nil
	}
	var names []string
	for _, e := range ents {
		names = append(names, e.Name())
		os.RemoveAll(filepath.Join(r.tmp, e.Name()))
	}
	return fmt.Errorf("left behind after Close: %s", strings.Join(names, ", "))
}

// fail counts one failed operation and keeps its error for the report.
func (r *runner) fail(err error) {
	r.failed++
	if len(r.errs) < 20 {
		r.errs = append(r.errs, err.Error())
	}
}
