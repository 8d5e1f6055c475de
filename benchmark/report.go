package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"repro/internal/stats"
)

// metricValue is one reported metric: the value the driver reads, and
// beside it the sample count and quartiles it was reduced from.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	// N is how many samples Value is the median (or sum) of; Q1 and Q3 are
	// their quartiles. Note says which percentile a tail metric reports.
	N    int     `json:"n,omitempty"`
	Q1   float64 `json:"q1,omitempty"`
	Q3   float64 `json:"q3,omitempty"`
	Note string  `json:"note,omitempty"`
}

// result is one workload in one trace mode.
type result struct {
	Workload  string                 `json:"workload"`
	Traced    bool                   `json:"traced"`
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Problems  []string               `json:"problems,omitempty"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// setMedian reports the median of values under def's name.
func (r *result) setMedian(def metricDef, values []float64) {
	q1, q3 := quartiles(values)
	r.Metrics[def.name] = metricValue{Value: stats.Median(values), Unit: def.unit, N: len(values), Q1: q1, Q3: q3}
}

// setFasterHalf reports the lower quartile of values — the median of the
// faster half — under def's name, and notes the plain median beside it.
func (r *result) setFasterHalf(def metricDef, values []float64) {
	q1, q3 := quartiles(values)
	r.Metrics[def.name] = metricValue{
		Value: q1, Unit: def.unit, N: len(values), Q1: q1, Q3: q3,
		Note: fmt.Sprintf("lower quartile; median %.6g", stats.Median(values)),
	}
}

// contract is the object the driver reads from the last line of standard
// output: exactly correct, attempted, failed and metrics, each metric
// exactly value and unit.
func (r *result) contract() map[string]any {
	metrics := map[string]any{}
	for name, m := range r.Metrics {
		metrics[name] = map[string]any{"value": m.Value, "unit": m.Unit}
	}
	return map[string]any{
		"correct": r.Correct, "attempted": r.Attempted, "failed": r.Failed, "metrics": metrics,
	}
}

// print writes every metric by name with its unit and sample count, in the
// order BENCHMARK.json lists them.
func (r *result) print(w io.Writer) {
	mode, defs := "end to end, tracing off", endToEnd
	if r.Traced {
		mode, defs = "per layer, traced pass", perLayer
	}
	fmt.Fprintf(w, "== %s (%s): attempted %d, failed %d\n", r.Workload, mode, r.Attempted, r.Failed)
	for _, p := range r.Problems {
		fmt.Fprintf(w, "   PROBLEM: %s\n", p)
	}
	for _, d := range defs {
		m, ok := r.Metrics[d.name]
		if !ok {
			continue
		}
		fmt.Fprintf(w, "   %-34s %14.6g %-8s", d.name, m.Value, m.Unit)
		fmt.Fprintf(w, " n=%d", m.N)
		if !r.Traced && m.N > 1 {
			fmt.Fprintf(w, " q1=%.6g q3=%.6g", m.Q1, m.Q3)
		}
		if m.Note != "" {
			fmt.Fprintf(w, " (%s)", m.Note)
		}
		fmt.Fprintln(w)
	}
}

// workloadResults pairs the two modes of one workload in a results file.
type workloadResults struct {
	EndToEnd *result `json:"end_to_end"`
	PerLayer *result `json:"per_layer"`
}

// resultsFile is what an all-workload run writes and -compare reads.
type resultsFile struct {
	Seed      uint64                      `json:"seed"`
	Seconds   float64                     `json:"seconds"`
	Quick     bool                        `json:"quick,omitempty"`
	Workloads map[string]*workloadResults `json:"workloads"`
}

func (f *resultsFile) write(dir string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, time.Now().UTC().Format("20060102T150405Z")+".json")
	data, err := json.MarshalIndent(f, "", " ")
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, append(data, '\n'), 0o644)
}

func readResults(path string) (*resultsFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultsFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}
