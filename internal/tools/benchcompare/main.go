// Command benchcompare diffs two BENCH_<date>.json trajectory documents
// (see internal/tools/benchjson) benchstat-style: one row per benchmark
// present in both files, with the ns/op delta and a regression marker, then
// one row per benchmark the new file no longer has, marked removed.
//
// By default the comparison is advisory — regressions print a warning and
// the exit status stays 0, so CI can surface drift without turning noisy
// single-iteration runs into hard failures. Pass -gate to exit non-zero
// when any benchmark regresses past the threshold.
//
// Usage:
//
//	benchcompare -old bench/BENCH_2026-08-08_baseline.json -new bench/BENCH_2026-08-08.json
//	benchcompare -old OLD.json -new NEW.json -threshold 25 -gate
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
)

// benchmark mirrors the benchjson per-benchmark schema (the fields this
// tool needs; unknown fields are ignored).
type benchmark struct {
	Name       string             `json:"name"`
	Package    string             `json:"package"`
	Iterations int64              `json:"iterations"`
	NsPerOp    float64            `json:"ns_per_op"`
	BPerOp     float64            `json:"bytes_per_op"`
	AllocsOp   float64            `json:"allocs_per_op"`
	Metrics    map[string]float64 `json:"metrics"`
}

// document mirrors the benchjson Document schema.
type document struct {
	Date       string      `json:"date"`
	Label      string      `json:"label"`
	Benchmarks []benchmark `json:"benchmarks"`
}

func main() {
	oldPath := flag.String("old", "", "baseline BENCH_*.json (required)")
	newPath := flag.String("new", "", "candidate BENCH_*.json (required)")
	threshold := flag.Float64("threshold", 10, "percent ns/op change that counts as a regression/improvement")
	gate := flag.Bool("gate", false, "exit 1 when any benchmark regresses past the threshold (default: warn only)")
	flag.Parse()
	if *oldPath == "" || *newPath == "" {
		fmt.Fprintln(os.Stderr, "benchcompare: -old and -new are required")
		os.Exit(2)
	}

	oldDoc, err := load(*oldPath)
	if err != nil {
		fatal(err)
	}
	newDoc, err := load(*newPath)
	if err != nil {
		fatal(err)
	}

	oldBy := index(oldDoc)
	var names []string
	newBy := map[string]benchmark{}
	for _, b := range newDoc.Benchmarks {
		k := b.Package + "." + b.Name
		if _, ok := oldBy[k]; ok {
			names = append(names, k)
			newBy[k] = b
		}
	}
	sort.Strings(names)
	if len(names) == 0 {
		fmt.Fprintln(os.Stderr, "benchcompare: no common benchmarks between the two documents")
		os.Exit(2)
	}

	fmt.Printf("benchcompare: %s (%s) -> %s (%s), %d common benchmarks, threshold %.0f%%\n",
		*oldPath, describe(oldDoc), *newPath, describe(newDoc), len(names), *threshold)
	fmt.Printf("%-52s %14s %14s %9s\n", "benchmark", "old ns/op", "new ns/op", "delta")
	var regressions, improvements int
	for _, k := range names {
		o, n := oldBy[k], newBy[k]
		if o.NsPerOp <= 0 {
			continue
		}
		pct := 100 * (n.NsPerOp - o.NsPerOp) / o.NsPerOp
		mark := ""
		switch {
		case pct >= *threshold:
			mark = "  REGRESSION"
			regressions++
		case pct <= -*threshold:
			mark = "  improvement"
			improvements++
		}
		fmt.Printf("%-52s %14.0f %14.0f %+8.1f%%%s\n", n.Name, o.NsPerOp, n.NsPerOp, pct, mark)
	}
	// A benchmark only the old document has was deleted, not slowed down:
	// name it, and count it as neither.
	var removed []string
	for k := range oldBy {
		if _, ok := newBy[k]; !ok {
			removed = append(removed, k)
		}
	}
	sort.Strings(removed)
	for _, k := range removed {
		fmt.Printf("%-52s %14.0f %14s   removed\n", oldBy[k].Name, oldBy[k].NsPerOp, "-")
	}
	fmt.Printf("summary: %d regression(s), %d improvement(s) past ±%.0f%%, %d removed\n",
		regressions, improvements, *threshold, len(removed))
	if regressions > 0 {
		fmt.Fprintf(os.Stderr, "benchcompare: WARNING: %d benchmark(s) slower than baseline by ≥%.0f%%\n",
			regressions, *threshold)
		if *gate {
			os.Exit(1)
		}
	}
}

// load reads one trajectory document.
func load(path string) (document, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return document{}, fmt.Errorf("benchcompare: %w", err)
	}
	var d document
	if err := json.Unmarshal(data, &d); err != nil {
		return document{}, fmt.Errorf("benchcompare: %s: %w", path, err)
	}
	return d, nil
}

// index keys a document's benchmarks by package-qualified name.
func index(d document) map[string]benchmark {
	m := make(map[string]benchmark, len(d.Benchmarks))
	for _, b := range d.Benchmarks {
		m[b.Package+"."+b.Name] = b
	}
	return m
}

// describe renders a document's provenance for the header line.
func describe(d document) string {
	if d.Label != "" {
		return d.Date + ", " + d.Label
	}
	return d.Date
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}
