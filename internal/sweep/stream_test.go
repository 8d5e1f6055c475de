package sweep

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/prng"
	isim "repro/internal/sim"
)

// encoded holds one grid execution's three encodings.
type encoded struct{ json, csv, text []byte }

// encodeStreaming runs the grid through RunStream with all three encoders at
// once, plus the collector Run uses, and returns the bytes and the collected
// Report.
func encodeStreaming(t *testing.T, r *Runner, g *Grid) (encoded, *Report) {
	t.Helper()
	var j, c, x bytes.Buffer
	col := &reportCollector{parallel: r.Parallel}
	err := r.RunStream(bg, g,
		NewJSONAggregator(&j), NewCSVAggregator(&c), NewTextAggregator(&x), col)
	if err != nil {
		t.Fatal(err)
	}
	return encoded{j.Bytes(), c.Bytes(), x.Bytes()}, col.rep
}

// encodeReplay encodes a collected Report through WriteJSON/CSV/Text.
func encodeReplay(t *testing.T, rep *Report) encoded {
	t.Helper()
	var j, c, x bytes.Buffer
	for _, err := range []error{WriteJSON(&j, rep), WriteCSV(&c, rep), WriteText(&x, rep)} {
		if err != nil {
			t.Fatal(err)
		}
	}
	return encoded{j.Bytes(), c.Bytes(), x.Bytes()}
}

// encodedView returns the part of a report its JSON document carries: the
// json:"-" fields zeroed and empty collections nil (omitempty drops them).
func encodedView(rep Report) Report {
	rep.Parallel = 0
	rep.Metrics = append([]Metric(nil), rep.Metrics...)
	for i := range rep.Metrics {
		rep.Metrics[i].Hide = false
	}
	if len(rep.Labels) == 0 {
		rep.Labels = nil
	}
	cells := rep.Cells
	rep.Cells = nil
	for _, c := range cells {
		o := *c.Outcome
		o.Payload = nil
		if len(o.Values) == 0 {
			o.Values = nil
		}
		c.ScenarioIdx, c.PolicyIdx, c.ProfileIdx, c.PatternIdx = 0, 0, 0, 0
		c.Outcome = &o
		rep.Cells = append(rep.Cells, c)
	}
	return rep
}

// checkJSONDecodes pins the JSON encoder's hand-spliced header / cells /
// summaries framing without a second encoder: the document must decode, with
// no unknown field and nothing trailing, to exactly the collected cells and
// the summaries Aggregate returns.
func checkJSONDecodes(t *testing.T, doc []byte, rep *Report) {
	t.Helper()
	var got struct {
		Report
		Summaries []Summary `json:"summaries"`
	}
	dec := json.NewDecoder(bytes.NewReader(doc))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&got); err != nil {
		t.Fatalf("grid %s: JSON does not decode: %v\n%s", rep.Grid, err, doc)
	}
	if dec.More() {
		t.Errorf("grid %s: trailing data after the JSON document", rep.Grid)
	}
	if want, have := encodedView(*rep), encodedView(got.Report); !reflect.DeepEqual(want, have) {
		t.Errorf("grid %s: decoded report differs from the collected one\nwant %+v\ngot  %+v", rep.Grid, want, have)
	}
	if want := rep.Aggregate(); !reflect.DeepEqual(want, got.Summaries) {
		t.Errorf("grid %s: decoded summaries differ from Aggregate()\nwant %+v\ngot  %+v", rep.Grid, want, got.Summaries)
	}
}

// checkEncoders is the encoder property every grid must satisfy: all three
// formats are byte-identical at pool widths 1 and 8 and when a collected
// Report is replayed through Write*, and the JSON decodes to the report.
func checkEncoders(t *testing.T, g *Grid) {
	t.Helper()
	serial, rep := encodeStreaming(t, &Runner{Parallel: 1}, g)
	wide, _ := encodeStreaming(t, &Runner{Parallel: 8}, g)
	replay := encodeReplay(t, rep)
	for _, f := range []struct {
		name                 string
		serial, wide, replay []byte
	}{
		{"JSON", serial.json, wide.json, replay.json},
		{"CSV", serial.csv, wide.csv, replay.csv},
		{"text", serial.text, wide.text, replay.text},
	} {
		if !bytes.Equal(f.serial, f.wide) {
			t.Errorf("grid %s: %s differs between Parallel 1 and 8\n-- 1 --\n%s\n-- 8 --\n%s", g.Name, f.name, f.serial, f.wide)
		}
		if !bytes.Equal(f.serial, f.replay) {
			t.Errorf("grid %s: %s differs between RunStream and Write* replay\n-- streamed --\n%s\n-- replayed --\n%s", g.Name, f.name, f.serial, f.replay)
		}
	}
	checkJSONDecodes(t, serial.json, rep)
}

// randomFuncGrid builds a randomized pure-function grid: random axis sizes,
// optionally a fault-profile axis and an access-pattern axis, a metric schema
// with a hidden column, and cells that are deterministic hashes of their
// coordinates with occasional failures and notes sprinkled in.
func randomFuncGrid(rng *rand.Rand) *Grid {
	nScen := 1 + rng.Intn(3)
	nPol := 1 + rng.Intn(3)
	replicas := 1 + rng.Intn(3)

	var scens []ScenarioSpec
	for i := 0; i < nScen; i++ {
		s := ScenarioSpec{ID: fmt.Sprintf("row%c", 'A'+i)}
		if rng.Intn(2) == 0 {
			s.Label = fmt.Sprintf("row %d label", i)
		}
		scens = append(scens, s)
	}
	var pols []PolicySpec
	for i := 0; i < nPol; i++ {
		pols = append(pols, PolicySpec{Name: fmt.Sprintf("col%c", 'X'+i)})
	}
	var profs []ProfileSpec
	if rng.Intn(2) == 0 {
		// Chaos axis: a clean baseline column plus a parsed fault profile,
		// exactly as ChaosAxis builds for the CLIs.
		p, err := chaos.ParseProfile("straggler:0x2@1,tier:pfsx3")
		if err != nil {
			panic(err)
		}
		profs = ChaosProfiles(chaos.Profile{Name: "clean"}, p)
	}
	var pats []AccessSpec
	if rng.Intn(2) == 0 {
		pats = []AccessSpec{{Name: "uniform"}, {Name: "zipf", Spec: "zipf:s=1.1"}}
	}
	failScen := rng.Intn(nScen + 2) // may select no scenario at all
	failPol := rng.Intn(nPol + 2)

	return &Grid{
		Name:      fmt.Sprintf("rand-%d", rng.Intn(1000)),
		Scenarios: scens, Policies: pols, Profiles: profs, Patterns: pats,
		Replicas: replicas, BaseSeed: rng.Uint64(),
		Metrics: []Metric{
			{Name: "score", Label: "score", Unit: "s"},
			{Name: "aux", Hide: true},
		},
		Cell: func(si, pi, fi, ai int) CellFunc {
			return func(_ context.Context, seed uint64) (*Outcome, error) {
				if si == failScen && pi == failPol {
					return &Outcome{Failed: true, FailReason: "cannot run"}, nil
				}
				h := prng.NewSplitMix64(seed ^ uint64(si*1009+pi*31+fi*7+ai)).Next()
				o := &Outcome{Values: map[string]float64{
					"score": float64(h%100000) / 1000,
					"aux":   float64(h % 17),
				}}
				if h%5 == 0 {
					o.Note = fmt.Sprintf("note %d", h%7)
				}
				return o, nil
			}
		},
	}
}

// TestStreamEncodersMatchWritersRandomized is the encoder property test: on
// randomized grids — axis sizes, chaos and pattern axes, 1 to 3 replicas,
// failed cells and notes all drawn per trial — checkEncoders must hold. The
// last case is the grid-less one: a Report with no cells replays to a
// document whose cell and summary arrays are the inline "[]".
func TestStreamEncodersMatchWritersRandomized(t *testing.T) {
	for trial := 0; trial < 25; trial++ {
		checkEncoders(t, randomFuncGrid(rand.New(rand.NewSource(int64(trial)*7919))))
	}
	empty := &Report{Grid: "empty", Replicas: 1, Metrics: SimMetrics()}
	doc := encodeReplay(t, empty).json
	if !bytes.Contains(doc, []byte(`"cells": [],`)) || !bytes.Contains(doc, []byte(`"summaries": []`)) {
		t.Errorf("empty report does not encode inline arrays:\n%s", doc)
	}
	checkJSONDecodes(t, doc, empty)
}

// TestStreamEncodersMatchWritersSimulator repeats the property on a real
// simulator grid with a chaos axis: the default cell binding, failed cells
// (LBANN on fig8d), and fault profiles all flow through the encoders.
func TestStreamEncodersMatchWritersSimulator(t *testing.T) {
	axis, err := ChaosAxis("straggler:0x2@1")
	if err != nil {
		t.Fatal(err)
	}
	g := testGrid(t)
	g.Profiles = axis
	checkEncoders(t, g)
}

// costVariants are the dispatch orders the engine's contract tests repeat
// under: a custom binding's own (every cost 0: enumeration order), the
// reverse of enumeration order, and a seeded shuffle of it.
type costVariant struct {
	name string
	cost func(Cell) int64
}

var costVariants = []costVariant{
	{"equal", nil},
	{"reversed", func(c Cell) int64 { return int64(c.Index) }},
	{"random", func(c Cell) int64 { return int64(prng.NewSplitMix64(uint64(c.Index)+1).Next() >> 1) }},
}

// underCostVariants runs test once per dispatch order, as subtests.
func underCostVariants(t *testing.T, test func(*testing.T, func(Cell) int64)) {
	for _, v := range costVariants {
		t.Run(v.name, func(t *testing.T) { test(t, v.cost) })
	}
}

// TestRunStreamDeliversInOrder pins the ordering contract directly: cells
// arrive at the aggregator in enumeration order at any pool width and in any
// dispatch order, exactly once each.
func TestRunStreamDeliversInOrder(t *testing.T) { underCostVariants(t, testDeliversInOrder) }

func testDeliversInOrder(t *testing.T, cost func(Cell) int64) {
	g := funcGrid(8)
	g.cost = cost
	for _, parallel := range []int{1, 3, 16} {
		var got []int
		agg := &funcAggregator{
			cell: func(c CellResult) error {
				got = append(got, c.Index)
				return nil
			},
		}
		if err := (&Runner{Parallel: parallel}).RunStream(bg, g, agg); err != nil {
			t.Fatal(err)
		}
		if len(got) != g.Size() {
			t.Fatalf("parallel %d: delivered %d cells, want %d", parallel, len(got), g.Size())
		}
		for i, idx := range got {
			if idx != i {
				t.Fatalf("parallel %d: delivery %d carried index %d", parallel, i, idx)
			}
		}
		if !agg.began || !agg.ended {
			t.Fatalf("parallel %d: began=%v ended=%v", parallel, agg.began, agg.ended)
		}
	}
}

// funcAggregator adapts closures to the Aggregator interface for tests.
type funcAggregator struct {
	began, ended bool
	cell         func(CellResult) error
	end          func() error
}

func (a *funcAggregator) Begin(Meta) error { a.began = true; return nil }
func (a *funcAggregator) Cell(c CellResult) error {
	if a.cell != nil {
		return a.cell(c)
	}
	return nil
}
func (a *funcAggregator) End() error {
	a.ended = true
	if a.end != nil {
		return a.end()
	}
	return nil
}

// TestRunStreamLowestIndexError: with several failing cells racing on a wide
// pool, the error surfaced must be the lowest-index one (ordered delivery
// makes the failure deterministic), and End must not run.
func TestRunStreamLowestIndexError(t *testing.T) { underCostVariants(t, testLowestIndexError) }

func testLowestIndexError(t *testing.T, cost func(Cell) int64) {
	g := funcGrid(8)
	g.cost = cost
	inner := g.Cell
	g.Cell = func(si, pi, fi, ai int) CellFunc {
		fn := inner(si, pi, fi, ai)
		return func(ctx context.Context, seed uint64) (*Outcome, error) {
			// Fail every cell of rowB; the lowest enumerated rowB cell
			// must win regardless of completion order.
			if si == 1 {
				return nil, fmt.Errorf("boom si=%d pi=%d", si, pi)
			}
			return fn(ctx, seed)
		}
	}
	agg := &funcAggregator{}
	err := (&Runner{Parallel: 8}).RunStream(bg, g, agg)
	if err == nil {
		t.Fatal("failing grid returned nil error")
	}
	if !strings.Contains(err.Error(), "rowB/colX") || !strings.Contains(err.Error(), "replica 0") {
		t.Errorf("error is not the lowest-index failure: %v", err)
	}
	if agg.ended {
		t.Error("End ran despite a failed grid")
	}
}

// TestRunStreamCancelNoGoroutineLeak cancels a streaming run mid-flight and
// verifies every engine goroutine (workers, dispatcher) exits: the goroutine
// count must settle back to its baseline.
func TestRunStreamCancelNoGoroutineLeak(t *testing.T) {
	underCostVariants(t, testCancelNoGoroutineLeak)
}

func testCancelNoGoroutineLeak(t *testing.T, cost func(Cell) int64) {
	baseline := runtime.NumGoroutine()

	ctx, cancel := context.WithCancel(context.Background())
	g := funcGrid(64)
	g.cost = cost
	inner := g.Cell
	started := make(chan struct{}, 1)
	g.Cell = func(si, pi, fi, ai int) CellFunc {
		fn := inner(si, pi, fi, ai)
		return func(ctx context.Context, seed uint64) (*Outcome, error) {
			select {
			case started <- struct{}{}:
			default:
			}
			select {
			case <-ctx.Done():
				return nil, ctx.Err()
			case <-time.After(30 * time.Second):
				return fn(ctx, seed)
			}
		}
	}
	errc := make(chan error, 1)
	go func() {
		errc <- (&Runner{Parallel: 4}).RunStream(ctx, g, &funcAggregator{})
	}()
	<-started
	cancel()
	select {
	case err := <-errc:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("canceled stream returned %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("RunStream did not return after cancel")
	}

	// Goroutines unwind asynchronously after RunStream returns; poll.
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= baseline {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Errorf("goroutines leaked: baseline %d, now %d", baseline, runtime.NumGoroutine())
}

// TestRunStreamAggregatorErrorStops: an aggregator error aborts the run with
// that error and cancels outstanding work.
func TestRunStreamAggregatorErrorStops(t *testing.T) { underCostVariants(t, testAggregatorErrorStops) }

func testAggregatorErrorStops(t *testing.T, cost func(Cell) int64) {
	g := funcGrid(16)
	g.cost = cost
	wantErr := errors.New("sink full")
	n := 0
	agg := &funcAggregator{cell: func(CellResult) error {
		n++
		if n == 3 {
			return wantErr
		}
		return nil
	}}
	err := (&Runner{Parallel: 4}).RunStream(bg, g, agg)
	if !errors.Is(err, wantErr) {
		t.Fatalf("got %v, want the aggregator error", err)
	}
	if agg.ended {
		t.Error("End ran despite aggregator failure")
	}
}

// TestRunMatchesLegacySemantics pins Run's regression surface now that it is
// built on RunStream: identical report to a direct serial execution and the
// same validation errors.
func TestRunMatchesLegacySemantics(t *testing.T) {
	s, err := isim.ScenarioByID("fig8a")
	if err != nil {
		t.Fatal(err)
	}
	g := &Grid{
		Name:      "legacy",
		Scenarios: []ScenarioSpec{scenarioSpec(s, testScale)},
		Policies:  AllPolicySpecs()[:3],
		Replicas:  2, BaseSeed: 17,
	}
	rep, err := (&Runner{Parallel: 4}).Run(bg, g)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Grid != "legacy" || rep.Replicas != 2 || rep.BaseSeed != 17 {
		t.Errorf("report header %+v", rep)
	}
	if len(rep.Cells) != g.Size() {
		t.Fatalf("%d cells, want %d", len(rep.Cells), g.Size())
	}
	for i, c := range rep.Cells {
		if c.Index != i || c.Outcome == nil {
			t.Fatalf("cell %d malformed: %+v", i, c)
		}
	}
}
