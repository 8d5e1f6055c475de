package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"syscall"
	"time"
)

// Child phases. A run is made of child processes so that set-up is paid
// (and measured) several times per run, peak RSS belongs to the repetitions
// alone, and a cold workload really starts cold.
const (
	// phaseTrial: set up, verify, then timed untraced repetitions.
	phaseTrial = "trial"
	// phaseTraced: the traced pass, its untraced baselines and the
	// standalone layer measurements.
	phaseTraced = "traced"
	// phaseSerial / phaseParallel: one untraced grid at Parallel 1 / 0 in a
	// fresh process — the cold workloads' baselines for the traced pass.
	phaseSerial   = "serial"
	phaseParallel = "parallel"
)

// trialReport is the one line of JSON a child process prints.
type trialReport struct {
	// RepWallS, RepOps and PFSFrac have one entry per timed repetition:
	// wall seconds, operations attempted (cells or samples), and the share
	// of fetches that hit the PFS.
	RepWallS  []float64 `json:"rep_wall_s,omitempty"`
	RepOps    []int64   `json:"rep_ops,omitempty"`
	PFSFrac   []float64 `json:"pfs_frac,omitempty"`
	Attempted int64     `json:"attempted"`
	Failed    int64     `json:"failed"`
	Problems  []string  `json:"problems,omitempty"`
	// Digest is the hex SHA-256 of a cold trial's report: every trial of a
	// run repeats one seed, so all digests must agree.
	Digest string `json:"digest,omitempty"`
	// Layer and Notes carry a traced phase's per-layer metrics, each the
	// median over Rounds traced repetitions.
	Layer  map[string]float64 `json:"layer,omitempty"`
	Notes  map[string]string  `json:"notes,omitempty"`
	Rounds int                `json:"rounds,omitempty"`
}

// timed is the sum of the trial's timed repetitions.
func (t trialReport) timed() float64 {
	var s float64
	for _, w := range t.RepWallS {
		s += w
	}
	return s
}

// childRun is a finished child: its report, and what only the parent can
// see — wall time from spawn to exit and the process's peak RSS.
type childRun struct {
	trialReport
	wallS float64
	rssMB float64
}

// spawn runs one phase of a workload in a child process of the same binary
// and waits for it to end.
func spawn(ctx context.Context, w workload, o options, phase string, budget time.Duration) (childRun, error) {
	exe, err := os.Executable()
	if err != nil {
		return childRun{}, err
	}
	args := []string{
		"-child", phase, "-workload", w.name,
		"-seed", strconv.FormatUint(o.seed, 10),
		"-seconds", strconv.FormatFloat(budget.Seconds(), 'f', 3, 64),
	}
	if o.quick {
		args = append(args, "-quick")
	}
	cmd := exec.CommandContext(ctx, exe, args...)
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	start := time.Now()
	err = cmd.Run()
	wall := time.Since(start)
	if err != nil {
		return childRun{}, fmt.Errorf("%s %s child: %w", w.name, phase, err)
	}
	var run childRun
	lines := bytes.Split(bytes.TrimSpace(out.Bytes()), []byte("\n"))
	if err := json.Unmarshal(lines[len(lines)-1], &run.trialReport); err != nil {
		return childRun{}, fmt.Errorf("%s %s child: unreadable report: %w", w.name, phase, err)
	}
	run.wallS = wall.Seconds()
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		run.rssMB = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	return run, nil
}

// runChild is the child side of spawn.
func runChild(ctx context.Context, o options) error {
	w, err := workloadByName(o.workload)
	if err != nil {
		return err
	}
	rep, err := runPhase(ctx, w, o.child, o.seed, o.quick, o.budget)
	if err != nil {
		return err
	}
	return json.NewEncoder(os.Stdout).Encode(rep)
}

// runPhase runs one phase in this process. Tests call it directly.
func runPhase(ctx context.Context, w workload, phase string, seed uint64, quick bool, budget time.Duration) (trialReport, error) {
	switch {
	case phase == phaseTrial && w.kind == live:
		return liveTrial(ctx, w, seed, quick, budget)
	case phase == phaseTrial:
		return simTrial(ctx, w, seed, quick, budget)
	case phase == phaseTraced && w.kind == live:
		return liveTraced(ctx, w, seed, quick, budget)
	case phase == phaseTraced:
		return simTraced(ctx, w, seed, quick, budget)
	case (phase == phaseSerial || phase == phaseParallel) && w.kind != live:
		return simBaseline(ctx, w, seed, quick, phase == phaseSerial)
	}
	return trialReport{}, fmt.Errorf("workload %s has no phase %q", w.name, phase)
}

// runUntraced measures the end-to-end metrics: trials in child processes
// until the timed repetitions add up to the budget.
func runUntraced(ctx context.Context, w workload, o options) (*result, error) {
	res := &result{Workload: w.name, Metrics: map[string]metricValue{}}
	var setup, rss, perOp, pfs []float64
	fold := func(c childRun) {
		setup = append(setup, c.wallS-c.timed())
		rss = append(rss, c.rssMB)
		for i, wall := range c.RepWallS {
			perOp = append(perOp, wall/float64(c.RepOps[i])*1e6)
			pfs = append(pfs, c.PFSFrac[i])
		}
		res.Attempted += c.Attempted
		res.Failed += c.Failed
		res.Problems = append(res.Problems, c.Problems...)
	}
	if w.kind == simCold {
		// One repetition per process; at least three, so the medians and
		// the set-up time rest on several samples.
		digest := ""
		for timed := 0.0; len(setup) < 3 || timed < o.budget.Seconds(); {
			c, err := spawn(ctx, w, o, phaseTrial, 0)
			if err != nil {
				return nil, err
			}
			fold(c)
			if digest == "" {
				digest = c.Digest
			} else if c.Digest != digest {
				res.Failed += c.RepOps[0]
				res.Problems = append(res.Problems, "a repeat of the same seed in a fresh process produced a different report")
			}
			timed += c.timed()
			if o.quick {
				break
			}
		}
	} else {
		trials := w.trials
		if o.quick {
			trials = 1
		}
		for i := 0; i < trials; i++ {
			c, err := spawn(ctx, w, o, phaseTrial, o.budget/time.Duration(trials))
			if err != nil {
				return nil, err
			}
			fold(c)
		}
	}
	res.setMedian(mSetup, setup)
	res.setFasterHalf(mPerOp, perOp)
	res.setMedian(mPFSFrac, pfs)
	res.setMedian(mRSS, rss)
	res.Correct = res.Failed == 0 && res.Attempted > 0
	return res, nil
}
