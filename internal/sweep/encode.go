package sweep

import (
	"fmt"
	"io"
	"strconv"
	"strings"
)

// One encoder per format: the Aggregators in streamenc.go. WriteJSON, WriteCSV
// and WriteText replay a collected Report through them; the row and header
// formatting the aggregators share lives below.

// replay feeds a collected report to an aggregator exactly as RunStream fed
// the collector that built it.
func (rep *Report) replay(a Aggregator) error {
	err := a.Begin(Meta{
		Grid: rep.Grid, Replicas: rep.Replicas, BaseSeed: rep.BaseSeed,
		Profiles: rep.Profiles, Patterns: rep.Patterns, Metrics: rep.Metrics,
		Labels: rep.Labels, Size: len(rep.Cells),
	})
	if err != nil {
		return err
	}
	for _, c := range rep.Cells {
		if err := a.Cell(c); err != nil {
			return err
		}
	}
	return a.End()
}

// WriteJSON emits the full report (cells + aggregated summaries) as
// indented JSON. Encoding is deterministic: struct fields are emitted in
// declaration order and map keys sorted, so equal grids produce equal bytes
// at any parallelism.
func WriteJSON(w io.Writer, rep *Report) error { return rep.replay(NewJSONAggregator(w)) }

// csvHeader builds the summary-CSV header row for the schema.
func csvHeader(hasProfiles, hasPatterns bool, metrics []Metric) []string {
	header := []string{"grid", "scenario", "policy"}
	if hasProfiles {
		header = append(header, "profile")
	}
	if hasPatterns {
		header = append(header, "pattern")
	}
	header = append(header, "replicas", "failed", "fail_reason", "note")
	for _, m := range metrics {
		header = append(header,
			m.Name+"_mean", m.Name+"_median", m.Name+"_ci_lo", m.Name+"_ci_hi")
	}
	return header
}

// csvRow builds one summary's CSV row.
func csvRow(grid string, hasProfiles, hasPatterns bool, metrics []Metric, s Summary) []string {
	f := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	row := []string{grid, s.Scenario, s.Policy}
	if hasProfiles {
		row = append(row, s.Profile)
	}
	if hasPatterns {
		row = append(row, s.Pattern)
	}
	row = append(row, strconv.Itoa(s.Replicas),
		strconv.FormatBool(s.Failed), s.FailReason, s.Note)
	for _, m := range metrics {
		sm := s.Metrics[m.Name]
		row = append(row, f(sm.Mean), f(sm.Median), f(sm.CILow), f(sm.CIHigh))
	}
	return row
}

// WriteCSV emits one row per aggregated (scenario, policy, profile, pattern)
// summary, with four columns (mean, median, 95% CI bounds) per schema
// metric. The profile and pattern columns appear only when the grid declares
// the corresponding axis, keeping axis-less reports byte-identical.
func WriteCSV(w io.Writer, rep *Report) error { return rep.replay(NewCSVAggregator(w)) }

// textColWidth is the text-report column width for metric values.
const textColWidth = 13

// RowLabel qualifies a policy/loader label with its axis columns — the
// fault profile, then the access pattern ("NoPFS @meltdown @zipf") — the one
// labelling rule shared by WriteText and the CLIs' bespoke figure tables, so
// the same grid renders consistently on every path. Empty qualifiers are
// skipped, so axis-less rows are the bare label. The variadic signature
// keeps legacy two-argument (policy, profile) call sites source-compatible.
func RowLabel(policy string, quals ...string) string {
	label := policy
	for _, q := range quals {
		if q != "" {
			label += " @" + q
		}
	}
	return label
}

// visibleMetrics filters the schema down to text-report columns.
func visibleMetrics(metrics []Metric) []Metric {
	var visible []Metric
	for _, m := range metrics {
		if !m.Hide {
			visible = append(visible, m)
		}
	}
	return visible
}

// textVal formats one metric value with its unit.
func textVal(m Metric, v float64) string {
	return fmt.Sprintf("%.3f%s", v, m.Unit)
}

// textBlockHeader writes one scenario block's title and column header.
func textBlockHeader(w io.Writer, scenario, label string, visible []Metric, multi bool) error {
	title := scenario
	if label != "" {
		title = fmt.Sprintf("%s: %s", scenario, label)
	}
	if _, err := fmt.Fprintf(w, "== %s ==\n", title); err != nil {
		return err
	}
	var head strings.Builder
	fmt.Fprintf(&head, "%-20s", "policy")
	for i, m := range visible {
		fmt.Fprintf(&head, " %*s", textColWidth, m.label())
		if i == 0 && multi {
			fmt.Fprintf(&head, " %*s", 2*textColWidth+3, "95% CI")
		}
	}
	_, err := fmt.Fprintln(w, head.String()+"  notes")
	return err
}

// textRow writes one summary row of a scenario block.
func textRow(w io.Writer, s Summary, visible []Metric, multi bool) error {
	var row strings.Builder
	fmt.Fprintf(&row, "%-20s", RowLabel(s.Policy, s.Profile, s.Pattern))
	for i, m := range visible {
		cell := "-"
		ci := "-"
		if !s.Failed {
			sm := s.Metrics[m.Name]
			cell = textVal(m, sm.Mean)
			ci = fmt.Sprintf("[%s, %s]", textVal(m, sm.CILow), textVal(m, sm.CIHigh))
		}
		fmt.Fprintf(&row, " %*s", textColWidth, cell)
		if i == 0 && multi {
			fmt.Fprintf(&row, " %*s", 2*textColWidth+3, ci)
		}
	}
	notes := s.Note
	if s.Failed {
		notes = s.FailReason
	}
	_, err := fmt.Fprintln(w, row.String()+"  "+notes)
	return err
}

// WriteText renders the report in the repo's bar-chart style: one block per
// scenario, one row per policy, one column per visible schema metric, with a
// ±CI column on the first metric when the grid ran more than one replica.
func WriteText(w io.Writer, rep *Report) error { return rep.replay(NewTextAggregator(w)) }
