package sweep

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
)

// The report encoders, one per format: Aggregator implementations that hold
// only the open summary group (O(replicas) cells) — never the whole result
// set. The goldens pin their bytes; the property tests decode the JSON back to
// the collected report on randomized grids.

// jsonHeader mirrors Report's encoded prefix — every field that precedes
// "cells" in declaration order — so the encoder can emit it with the standard
// library and splice the cell array in behind it.
type jsonHeader struct {
	Grid     string            `json:"grid"`
	Replicas int               `json:"replicas"`
	BaseSeed uint64            `json:"baseSeed"`
	Profiles []string          `json:"profiles,omitempty"`
	Patterns []string          `json:"patterns,omitempty"`
	Metrics  []Metric          `json:"metrics"`
	Labels   map[string]string `json:"labels,omitempty"`
}

// jsonAggregator streams the JSON document — the raw cells plus the
// aggregated summaries, so consumers get both without re-deriving either:
// header fields, then cells one by one as they are delivered, then the
// summaries. Only the summaries — O(groups), no payloads — are buffered to the
// end, because the document places them after the cell array.
type jsonAggregator struct {
	w         io.Writer
	sum       *summaryStream
	summaries []Summary
	cells     int
}

// NewJSONAggregator returns an Aggregator that streams the report as one
// indented JSON document.
func NewJSONAggregator(w io.Writer) Aggregator {
	return &jsonAggregator{w: w}
}

func (a *jsonAggregator) Begin(m Meta) error {
	a.summaries = make([]Summary, 0)
	a.sum = newSummaryStream(m.Metrics, func(s Summary) error {
		a.summaries = append(a.summaries, s)
		return nil
	})
	h, err := json.MarshalIndent(jsonHeader{
		Grid: m.Grid, Replicas: m.Replicas, BaseSeed: m.BaseSeed,
		Profiles: m.Profiles, Patterns: m.Patterns, Metrics: m.Metrics,
		Labels: m.Labels,
	}, "", "  ")
	if err != nil {
		return err
	}
	// Drop the closing "\n}" and splice the cells array behind the header
	// fields, exactly where Report declares it.
	if _, err := a.w.Write(h[:len(h)-2]); err != nil {
		return err
	}
	_, err = io.WriteString(a.w, ",\n  \"cells\": [")
	return err
}

func (a *jsonAggregator) Cell(c CellResult) error {
	b, err := json.MarshalIndent(c, "    ", "  ")
	if err != nil {
		return err
	}
	sep := "\n    "
	if a.cells > 0 {
		sep = ",\n    "
	}
	a.cells++
	if _, err := io.WriteString(a.w, sep); err != nil {
		return err
	}
	if _, err := a.w.Write(b); err != nil {
		return err
	}
	return a.sum.add(c)
}

func (a *jsonAggregator) End() error {
	if err := a.sum.flush(); err != nil {
		return err
	}
	closeCells := "\n  ]"
	if a.cells == 0 {
		closeCells = "]" // empty arrays encode inline
	}
	if _, err := io.WriteString(a.w, closeCells+",\n  \"summaries\": "); err != nil {
		return err
	}
	s, err := json.MarshalIndent(a.summaries, "  ", "  ")
	if err != nil {
		return err
	}
	if _, err := a.w.Write(s); err != nil {
		return err
	}
	_, err = io.WriteString(a.w, "\n}\n")
	return err
}

// csvAggregator streams the summary table: the header row up front, one
// summary row the moment each (scenario, policy, profile, pattern) group
// closes.
type csvAggregator struct {
	cw   *csv.Writer
	grid string
	prof bool
	pat  bool
	sum  *summaryStream
}

// NewCSVAggregator returns an Aggregator that streams the summary CSV.
func NewCSVAggregator(w io.Writer) Aggregator {
	return &csvAggregator{cw: csv.NewWriter(w)}
}

func (a *csvAggregator) Begin(m Meta) error {
	a.grid = m.Grid
	a.prof = len(m.Profiles) > 0
	a.pat = len(m.Patterns) > 0
	a.sum = newSummaryStream(m.Metrics, func(s Summary) error {
		return a.cw.Write(csvRow(a.grid, a.prof, a.pat, m.Metrics, s))
	})
	return a.cw.Write(csvHeader(a.prof, a.pat, m.Metrics))
}

func (a *csvAggregator) Cell(c CellResult) error { return a.sum.add(c) }

func (a *csvAggregator) End() error {
	if err := a.sum.flush(); err != nil {
		return err
	}
	a.cw.Flush()
	return a.cw.Error()
}

// textAggregator streams the bar-chart report: a scenario block header
// whenever the stream enters a new scenario (Grid.Validate guarantees scenario
// IDs are unique, so each scenario is one contiguous run), one row per closed
// summary group.
type textAggregator struct {
	w        io.Writer
	labels   map[string]string
	visible  []Metric
	multi    bool
	sum      *summaryStream
	scenario string
	blocks   int
}

// NewTextAggregator returns an Aggregator that streams the text report.
func NewTextAggregator(w io.Writer) Aggregator {
	return &textAggregator{w: w}
}

func (a *textAggregator) Begin(m Meta) error {
	a.labels = m.Labels
	a.visible = visibleMetrics(m.Metrics)
	a.multi = m.Replicas > 1
	a.sum = newSummaryStream(m.Metrics, a.row)
	return nil
}

// row emits one summary, opening a new scenario block when needed.
func (a *textAggregator) row(s Summary) error {
	if a.blocks == 0 || s.Scenario != a.scenario {
		if a.blocks > 0 {
			if _, err := fmt.Fprintln(a.w); err != nil {
				return err
			}
		}
		a.scenario = s.Scenario
		a.blocks++
		if err := textBlockHeader(a.w, s.Scenario, a.labels[s.Scenario], a.visible, a.multi); err != nil {
			return err
		}
	}
	return textRow(a.w, s, a.visible, a.multi)
}

func (a *textAggregator) Cell(c CellResult) error { return a.sum.add(c) }

func (a *textAggregator) End() error {
	if err := a.sum.flush(); err != nil {
		return err
	}
	if a.blocks > 0 {
		if _, err := fmt.Fprintln(a.w); err != nil {
			return err
		}
	}
	return nil
}
