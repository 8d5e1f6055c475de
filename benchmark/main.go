// Command benchmark is the repo's yardstick: seven workloads over the public
// functions of the repo's packages, end-to-end metrics measured with tracing
// off, per-layer metrics from a separate traced pass, and a correctness
// check on every run. See README.md in this directory.
//
// The driver calls it once per (workload, trace mode):
//
//	bash benchmark/run.sh --workload live_chan --seed 7 --seconds 8 --trace 0
//
// and reads the JSON object on the last line of standard output. Without
// --workload it runs all seven in both modes and writes a results file that
// -compare reads.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"sync"
	"syscall"
	"time"
)

// resultsDir is where trace files and all-workload results go, relative to
// the checkout root the harness is run from (tests point it elsewhere).
var resultsDir = "benchmark/results"

func main() {
	var (
		name    = flag.String("workload", "", "workload to run (default: all seven, both trace modes)")
		seed    = flag.Uint64("seed", 1, "seed every dataset, plan and grid seed derives from")
		seconds = flag.Float64("seconds", 8, "seconds of timed repetitions per run")
		trace   = flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced pass")
		quick   = flag.Bool("quick", false, "toy sizes, one repetition: a smoke test, not a measurement")
		compare = flag.Bool("compare", false, "compare two results files: -compare a.json b.json")
		child   = flag.String("child", "", "internal: run one phase of a workload in this process")
	)
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	err := run(ctx, options{
		workload: *name, seed: *seed, budget: time.Duration(*seconds * float64(time.Second)),
		trace: *trace != 0, quick: *quick, compare: *compare, child: *child, args: flag.Args(),
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

type options struct {
	workload string
	seed     uint64
	budget   time.Duration
	trace    bool
	quick    bool
	compare  bool
	child    string
	args     []string
}

// errIncorrect makes the command exit non-zero after it has printed a
// result that reports failed operations.
var errIncorrect = errors.New("outputs incorrect or operations failed")

func run(ctx context.Context, o options) error {
	if o.quick {
		o.budget = 0 // one repetition per trial
	}
	switch {
	case o.compare:
		if len(o.args) != 2 {
			return errors.New("-compare needs two results files")
		}
		return compareFiles(os.Stdout, o.args[0], o.args[1])
	case o.child != "":
		return runChild(ctx, o)
	case o.workload == "":
		return runAll(ctx, o)
	}
	w, err := workloadByName(o.workload)
	if err != nil {
		return err
	}
	res, err := runWorkload(ctx, w, o)
	if err != nil {
		return err
	}
	res.print(os.Stdout)
	line, err := json.Marshal(res.contract())
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !res.Correct {
		return errIncorrect
	}
	return nil
}

// runWorkload runs one workload in one trace mode and folds its trials.
func runWorkload(ctx context.Context, w workload, o options) (*result, error) {
	if !o.quick {
		spinUp(500 * time.Millisecond)
	}
	if o.trace {
		return runTraced(ctx, w, o)
	}
	return runUntraced(ctx, w, o)
}

// runAll is the human entry point: every workload, tracing off then on, a
// results file for -compare, non-zero exit on any failed operation.
func runAll(ctx context.Context, o options) error {
	file := resultsFile{Seed: o.seed, Seconds: o.budget.Seconds(), Quick: o.quick, Workloads: map[string]*workloadResults{}}
	ok := true
	for _, w := range workloads() {
		wr := &workloadResults{}
		file.Workloads[w.name] = wr
		for _, traced := range []bool{false, true} {
			o.trace = traced
			res, err := runWorkload(ctx, w, o)
			if err != nil {
				return fmt.Errorf("%s: %w", w.name, err)
			}
			res.print(os.Stdout)
			ok = ok && res.Correct
			if traced {
				wr.PerLayer = res
			} else {
				wr.EndToEnd = res
			}
		}
	}
	path, err := file.write(resultsDir)
	if err != nil {
		return err
	}
	fmt.Println("results:", path)
	if !ok {
		return errIncorrect
	}
	return nil
}

// spinUp keeps every processor busy for d before the first trial. On this
// class of machine the first process after an idle spell runs much slower
// than the next ones (measured for one cold grid: 1.9 s, then 1.35 s,
// 1.35 s); half a second of load roughly halves that penalty (1.6 s).
func spinUp(d time.Duration) {
	var wg sync.WaitGroup
	for i := 0; i < runtime.GOMAXPROCS(0); i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for start := time.Now(); time.Since(start) < d; {
			}
		}()
	}
	wg.Wait()
}
