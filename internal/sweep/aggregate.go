package sweep

import (
	"fmt"

	"repro/internal/stats"
)

// Summary folds the replicas of one (scenario, policy) cell group into
// descriptive statistics per metric: mean, spread, and a distribution-free
// 95% CI on the median (see stats.Summarize). With one replica the mean is
// the value and the CI collapses onto it.
type Summary struct {
	Scenario string `json:"scenario"`
	Policy   string `json:"policy"`
	// Profile names the fault-profile column; empty (and omitted) for grids
	// without a fault-profile axis.
	Profile string `json:"profile,omitempty"`
	// Pattern names the access-pattern column; empty (and omitted) for
	// grids without an access-pattern axis.
	Pattern  string `json:"pattern,omitempty"`
	Replicas int    `json:"replicas"`
	// Failed is set when every replica failed (cells fail a configuration
	// deterministically, so mixed outcomes indicate a bug).
	Failed     bool   `json:"failed"`
	FailReason string `json:"failReason,omitempty"`
	// Note carries the first non-empty cell note of the group into text
	// reports.
	Note string `json:"note,omitempty"`
	// Metrics summarises each schema metric across the group's replicas.
	Metrics map[string]stats.Summary `json:"metrics"`
}

// Metric returns the named metric's replica summary (zero if absent), a
// convenience for presenters reading aggregated reports.
func (s Summary) Metric(name string) stats.Summary {
	return s.Metrics[name]
}

// summarizeGroup folds the replicas of one (scenario, policy, profile,
// pattern) group into a Summary.
func summarizeGroup(metrics []Metric, scenario, policy, profile, pattern string, cells []CellResult) Summary {
	s := Summary{
		Scenario: scenario, Policy: policy, Profile: profile, Pattern: pattern,
		Replicas: len(cells),
		Metrics:  map[string]stats.Summary{},
	}
	values := map[string][]float64{}
	n := 0
	for _, c := range cells {
		o := c.Outcome
		if o.Failed {
			s.Failed = true
			s.FailReason = o.FailReason
			continue
		}
		if s.Note == "" {
			s.Note = o.Note
		}
		for _, m := range metrics {
			if v, ok := o.Values[m.Name]; ok {
				values[m.Name] = append(values[m.Name], v)
			}
		}
		n++
	}
	if n > 0 {
		s.Failed = false
		s.FailReason = ""
		for _, m := range metrics {
			if vs := values[m.Name]; len(vs) > 0 {
				s.Metrics[m.Name] = stats.Summarize(vs)
			}
		}
		// The coverage note is a group property: derive it from the
		// mean across replicas (as the legacy serial reports did), not
		// from whichever replica happened to carry a note.
		if cov, ok := s.Metrics[MetricCoverage]; ok && cov.N > 0 && cov.Mean < 0.999 {
			s.Note = fmt.Sprintf("does not access entire dataset (%.0f%%)", 100*cov.Mean)
		}
	}
	return s
}

// Aggregate summarises the report's cells group by group in grid order — the
// same contiguous-run fold the encoders stream through.
func (rep *Report) Aggregate() []Summary {
	out := make([]Summary, 0)
	sum := newSummaryStream(rep.Metrics, func(s Summary) error {
		out = append(out, s)
		return nil
	})
	for _, c := range rep.Cells {
		sum.add(c) // the emit above never fails
	}
	sum.flush()
	return out
}
