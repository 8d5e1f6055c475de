package sweep

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync/atomic"
	"testing"

	isim "repro/internal/sim"
)

// The dispatcher's schedule tests use no clock: every cell reports its start
// on a channel and then waits on a gate the test closes, so which cell a free
// worker takes next is observed event by event.

// gatedGrid is an n-cell grid (one row, n columns, cell index = column) whose
// cell i sends i on started and then blocks until gates[i] is closed or the
// run is canceled. costs, when non-nil, is the dispatch cost by index; admits
// counts the engine's cost look-ups, i.e. the cells admitted so far.
type gatedGrid struct {
	*Grid
	started chan int
	gates   []chan struct{}
	admits  atomic.Int64
}

func newGatedGrid(n int, costs []int64) *gatedGrid {
	gg := &gatedGrid{started: make(chan int, n), gates: make([]chan struct{}, n)}
	cols := make([]PolicySpec, n)
	for i := range cols {
		cols[i] = PolicySpec{Name: fmt.Sprintf("col%03d", i)}
		gg.gates[i] = make(chan struct{})
	}
	gg.Grid = &Grid{
		Name: "gated", Scenarios: []ScenarioSpec{{ID: "row"}}, Policies: cols,
		Metrics: []Metric{{Name: "i"}},
		Cell: func(_, pi, _, _ int) CellFunc {
			return func(ctx context.Context, _ uint64) (*Outcome, error) {
				gg.started <- pi
				select {
				case <-gg.gates[pi]:
					return &Outcome{Values: map[string]float64{"i": float64(pi)}}, nil
				case <-ctx.Done():
					return nil, ctx.Err()
				}
			}
		},
	}
	gg.cost = func(c Cell) int64 {
		gg.admits.Add(1)
		if costs == nil {
			return 0
		}
		return costs[c.Index]
	}
	return gg
}

// run starts the grid on a pool of the given width and returns the channel
// its delivery order (or error) arrives on.
func (gg *gatedGrid) run(parallel int) <-chan runResult {
	out := make(chan runResult, 1)
	go func() {
		var delivered []int
		err := (&Runner{Parallel: parallel}).RunStream(bg, gg.Grid, &funcAggregator{
			cell: func(c CellResult) error {
				delivered = append(delivered, c.Index)
				return nil
			},
		})
		out <- runResult{delivered, err}
	}()
	return out
}

type runResult struct {
	delivered []int
	err       error
}

// open releases every cell not yet released.
func (gg *gatedGrid) open(released map[int]bool) {
	for i, g := range gg.gates {
		if !released[i] {
			close(g)
		}
	}
}

// checkDelivered asserts a finished run delivered all n cells in order.
func checkDelivered(t *testing.T, res runResult, n int) {
	t.Helper()
	if res.err != nil {
		t.Fatal(res.err)
	}
	if len(res.delivered) != n {
		t.Fatalf("delivered %d cells, want %d", len(res.delivered), n)
	}
	for i, idx := range res.delivered {
		if idx != i {
			t.Fatalf("delivery %d carried index %d", i, idx)
		}
	}
}

// byCost returns the indices below limit as the dispatcher must take them:
// costliest first, lowest index among equals.
func byCost(costs []int64, limit int) []int {
	order := make([]int, limit)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return costs[order[a]] > costs[order[b]] })
	return order
}

// TestDispatchCostliestAdmittedFirst: with W workers the first W cells
// started are the W costliest of the admitted window — not of the grid: the
// grid's costliest cell lies beyond the window and must wait — with the lowest
// index winning a tie. A single worker then pins the whole order: while the
// head-of-line cell is held nothing is delivered, so nothing is admitted, and
// each release hands the worker the costliest cell left in the window.
func TestDispatchCostliestAdmittedFirst(t *testing.T) {
	const workers = 3
	window := streamWindow(workers)
	n := window + 12
	costs := make([]int64, n)
	for i := range costs {
		costs[i] = int64(i * 7 % 11) // many ties
	}
	costs[n-1] = 1000                              // costliest of the grid, not admitted at first
	costs[5], costs[20], costs[33] = 100, 100, 100 // a three-way tie for two of the three workers
	costs[17] = 500                                // the costliest admitted
	want := byCost(costs, window)[:workers]        // 17, 5, 20
	if want[0] != 17 || want[1] != 5 || want[2] != 20 {
		t.Fatalf("test table wrong: expected first cells %v", want)
	}
	gg := newGatedGrid(n, costs)
	done := gg.run(workers)
	got := []int{<-gg.started, <-gg.started, <-gg.started}
	sort.Ints(got)
	sort.Ints(want)
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("first %d cells started: %v, want %v", workers, got, want)
	}
	gg.open(nil)
	checkDelivered(t, <-done, n)

	// One worker, head-of-line cell 0 cheapest: it starts last of its window.
	window = streamWindow(1)
	costs = costs[:window+4]
	costs[0] = -1
	order := byCost(costs, window)
	gg = newGatedGrid(len(costs), costs)
	done = gg.run(1)
	released := map[int]bool{}
	for k, want := range order {
		if got := <-gg.started; got != want {
			t.Fatalf("start %d: cell %d, want %d (order %v)", k, got, want, order)
		}
		if want != 0 {
			close(gg.gates[want])
			released[want] = true
		}
	}
	gg.open(released)
	checkDelivered(t, <-done, len(costs))
}

// TestDispatchEqualCostsKeepEnumerationOrder pins the schedule of a grid whose
// cells cost the same — every custom binding, the Fig. 9 study — to the one
// in-order dispatch ran: a free worker takes the next cell in enumeration
// order.
func TestDispatchEqualCostsKeepEnumerationOrder(t *testing.T) {
	for _, workers := range []int{1, 3} {
		n := 2*streamWindow(workers) + 5
		gg := newGatedGrid(n, nil)
		done := gg.run(workers)
		first := make([]int, workers)
		for i := range first {
			first[i] = <-gg.started
		}
		sort.Ints(first)
		for i, idx := range first {
			if idx != i {
				t.Fatalf("%d workers: first cells started %v, want 0..%d", workers, first, workers-1)
			}
		}
		// Releasing the cells one at a time frees one worker at a time, and
		// it must take the lowest index not yet started.
		for k := 0; k < n; k++ {
			close(gg.gates[k])
			if next := k + workers; next < n {
				if got := <-gg.started; got != next {
					t.Fatalf("%d workers: after cell %d finished, cell %d started, want %d", workers, k, got, next)
				}
			}
		}
		checkDelivered(t, <-done, n)
	}
}

// TestDispatchWindowBoundsAdmission: while the head-of-line cell is held, the
// cells admitted — running, or finished and waiting for delivery — are exactly
// the window, however many of them have finished; delivering the head admits
// the rest.
func TestDispatchWindowBoundsAdmission(t *testing.T) {
	const workers = 2
	window := streamWindow(workers)
	n := 3 * window
	costs := make([]int64, n)
	for i := range costs {
		costs[i] = int64(i) // later cells first: the head starts last
	}
	gg := newGatedGrid(n, costs)
	done := gg.run(workers)
	released := map[int]bool{}
	for k := 0; k < window; k++ {
		i := <-gg.started
		if i >= window {
			t.Fatalf("cell %d started while cell 0 was undelivered: beyond the window of %d", i, window)
		}
		if i != 0 {
			close(gg.gates[i])
			released[i] = true
		}
	}
	// Every cell of the window has started and all but the head have been
	// released; nothing can be delivered, so admission stands at the window.
	if got := gg.admits.Load(); got != int64(window) {
		t.Errorf("%d cells admitted while the head-of-line cell is held, want the window (%d)", got, window)
	}
	gg.open(released)
	checkDelivered(t, <-done, n)
	if got := gg.admits.Load(); got != int64(n) {
		t.Errorf("%d cells admitted over the run, want %d", got, n)
	}
}

// TestDispatchOrderNeverChangesOutput: the Fig. 8 grid encodes to the same
// JSON, CSV and text under the simulator binding's own estimate, under equal
// costs and under shuffled costs, at pool widths 1, 2 and 8.
func TestDispatchOrderNeverChangesOutput(t *testing.T) {
	var ref encoded
	for _, v := range []costVariant{
		{"estimated", nil}, // no hook: simCellCost
		{"zero", func(Cell) int64 { return 0 }},
		{"random", costVariants[2].cost},
	} {
		for _, parallel := range []int{1, 2, 8} {
			g := Fig8Grid(testScale, 77, 1)
			g.cost = v.cost
			got, _ := encodeStreaming(t, &Runner{Parallel: parallel}, g)
			if ref.json == nil {
				ref = got
				continue
			}
			for _, f := range []struct {
				name      string
				want, got []byte
			}{{"JSON", ref.json, got.json}, {"CSV", ref.csv, got.csv}, {"text", ref.text, got.text}} {
				if !bytes.Equal(f.want, f.got) {
					t.Errorf("%s costs, Parallel %d: %s differs from the estimate's at Parallel 1", v.name, parallel, f.name)
				}
			}
		}
	}
}

// TestSimCellCost: the simulator binding's estimate is sim.ColdCost of the
// cell's configuration and policy, and a cell whose configuration or policy
// cannot be built costs 0 and still fails at its own index — the lowest
// failing index wins even though the estimate put later cells first.
func TestSimCellCost(t *testing.T) {
	g := Fig8Grid(testScale, 5, 1)
	s, p := g.Scenarios[3], g.Policies[8]
	cfg, err := s.Config(5)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := simCellCost(s, p, 5), isim.ColdCost(&cfg, isim.NewNoPFS()); p.Name != isim.NameNoPFS || got != want || got <= 0 {
		t.Errorf("simCellCost(%s, %s) = %d, want ColdCost = %d > 0", s.ID, p.Name, got, want)
	}
	if got := g.cellCost(g.Cells()[38]); got != simCellCost(s, p, 5) {
		t.Errorf("cellCost of cell 38 = %d, want the binding's estimate for fig8d/NoPFS", got)
	}

	broken := errors.New("no such dataset")
	bad := ScenarioSpec{ID: "bad", Config: func(uint64) (isim.Config, error) { return isim.Config{}, broken }}
	if got := simCellCost(bad, p, 5); got != 0 {
		t.Errorf("estimate of a failing Config = %d, want 0", got)
	}
	if got := simCellCost(s, PolicySpec{Name: "nil", New: func() isim.Policy { return nil }}, 5); got != 0 {
		t.Errorf("estimate of a nil policy = %d, want 0", got)
	}
	g.Scenarios[1] = bad
	err = (&Runner{Parallel: 4}).RunStream(bg, g, &funcAggregator{})
	if !errors.Is(err, broken) || !strings.Contains(err.Error(), "bad/"+g.Policies[0].Name) {
		t.Errorf("grid with a failing row returned %v, want the row's first cell's error", err)
	}
}
