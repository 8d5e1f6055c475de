package main

import (
	"errors"
	"fmt"
	"io"
)

// verdict is -compare's reading of one (workload, end-to-end metric) pair.
type verdict int

const (
	within verdict = iota
	// unresolved: one side's own interquartile range is wider than the
	// bound, so a difference within it proves nothing.
	unresolved
	regressed
)

func (v verdict) String() string {
	return [...]string{"ok", "unresolved", "REGRESSED"}[v]
}

// judge compares the medians of one metric. diff is how much worse b is
// than a, as a share of a's median (negative when b is better).
func judge(def metricDef, a, b metricValue) (diff float64, v verdict) {
	diff = ratio(b.Value-a.Value, a.Value)
	if def.better == "higher" {
		diff = -diff
	}
	switch {
	case diff > def.bound:
		return diff, regressed
	case ratio(a.Q3-a.Q1, a.Value) > def.bound || ratio(b.Q3-b.Q1, b.Value) > def.bound:
		return diff, unresolved
	}
	return diff, within
}

// errRegressed makes -compare exit non-zero.
var errRegressed = errors.New("a metric is past its bound or more operations failed")

// compareFiles prints each end-to-end metric of each workload with both
// medians and quartiles, the relative difference and the bound, and fails
// on any difference past a bound or any rise in the failed share.
func compareFiles(w io.Writer, pathA, pathB string) error {
	a, err := readResults(pathA)
	if err != nil {
		return err
	}
	b, err := readResults(pathB)
	if err != nil {
		return err
	}
	bad := false
	for _, wl := range workloads() {
		ra, rb := a.Workloads[wl.name], b.Workloads[wl.name]
		if ra == nil || rb == nil || ra.EndToEnd == nil || rb.EndToEnd == nil {
			fmt.Fprintf(w, "%s: missing from one file\n", wl.name)
			bad = true
			continue
		}
		ea, eb := ra.EndToEnd, rb.EndToEnd
		fmt.Fprintf(w, "%s\n", wl.name)
		for _, d := range endToEnd {
			ma, mb := ea.Metrics[d.name], eb.Metrics[d.name]
			diff, v := judge(d, ma, mb)
			fmt.Fprintf(w, "   %-16s a %.6g [%.6g, %.6g] n=%d   b %.6g [%.6g, %.6g] n=%d   %+.2f%% (bound %.0f%%) %s\n",
				d.name, ma.Value, ma.Q1, ma.Q3, ma.N, mb.Value, mb.Q1, mb.Q3, mb.N, 100*diff, 100*d.bound, v)
			bad = bad || v == regressed
		}
		fa := ratio(float64(ea.Failed), float64(ea.Attempted))
		fb := ratio(float64(eb.Failed), float64(eb.Attempted))
		if fb > fa {
			fmt.Fprintf(w, "   failed share rose: %d/%d -> %d/%d\n", ea.Failed, ea.Attempted, eb.Failed, eb.Attempted)
			bad = true
		}
	}
	if bad {
		return errRegressed
	}
	return nil
}
