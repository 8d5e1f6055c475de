package sweep

import (
	"context"
	"fmt"
	"io"

	"repro/internal/perfmodel"
	isim "repro/internal/sim"
)

// This file holds the simulator's cell binding — the engine default — and
// the repo's standard simulator grid definitions: the Fig. 8 panels, the
// Fig. 9 environment study and staging preliminary, and the ablation are each
// a Grid value.

// Simulator metric names (the default schema's Outcome.Values keys).
const (
	MetricExec     = "exec_s"
	MetricStall    = "stall_s"
	MetricSetup    = "setup_s"
	MetricCoverage = "coverage"
	MetricPFS      = "pfs_s"
	MetricRemote   = "remote_s"
	MetricLocal    = "local_s"
)

// SimMetrics is the simulator grids' result schema: execution/stall/setup
// time, dataset coverage, and the per-location fetch-time breakdown.
func SimMetrics() []Metric {
	return []Metric{
		{Name: MetricExec, Label: "exec", Unit: "s"},
		{Name: MetricStall, Label: "stall", Unit: "s"},
		{Name: MetricSetup, Unit: "s", Hide: true},
		{Name: MetricCoverage, Hide: true},
		{Name: MetricPFS, Label: "pfs", Unit: "s"},
		{Name: MetricRemote, Label: "remote", Unit: "s"},
		{Name: MetricLocal, Label: "local", Unit: "s"},
	}
}

// SimOutcome converts one simulator result into the engine's cell outcome,
// keeping the raw result as the payload.
func SimOutcome(r *isim.Result) *Outcome {
	o := &Outcome{Payload: r}
	if r.Failed {
		o.Failed = true
		o.FailReason = r.FailReason
		return o
	}
	o.Values = map[string]float64{
		MetricExec:     r.ExecSeconds,
		MetricStall:    r.StallSeconds,
		MetricSetup:    r.SetupSeconds,
		MetricCoverage: r.Coverage,
		MetricPFS:      r.LocSeconds[perfmodel.LocPFS],
		MetricRemote:   r.LocSeconds[perfmodel.LocRemote],
		MetricLocal:    r.LocSeconds[perfmodel.LocLocal],
	}
	if r.Coverage < 0.999 {
		o.Note = fmt.Sprintf("does not access entire dataset (%.0f%%)", 100*r.Coverage)
	}
	return o
}

// simCellFunc is the default cell binding: materialise the cell's
// configuration (Grid.Config), simulate the column's policy and project the
// result through the grid's Outcome (SimOutcome when nil).
func simCellFunc(g *Grid, si, pi, fi, ai int) CellFunc {
	return func(ctx context.Context, seed uint64) (*Outcome, error) {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		cfg, err := g.Config(si, fi, ai, seed)
		if err != nil {
			return nil, err
		}
		r, err := isim.Run(cfg, g.Policies[pi].New())
		if err != nil {
			return nil, err
		}
		if g.Outcome != nil {
			return g.Outcome(cfg, r), nil
		}
		return SimOutcome(r), nil
	}
}

// simCellCost is the default binding's dispatch estimate: the cold cost the
// scenario's configuration and the policy's rule declare (isim.ColdCost).
// Fault profiles and access patterns are left out — they scale a row's cells
// alike. A configuration that cannot be built costs 0: the cell reports the
// error at its own index.
func simCellCost(s ScenarioSpec, p PolicySpec, seed uint64) int64 {
	cfg, err := s.Config(seed)
	if err != nil {
		return 0
	}
	return isim.ColdCost(&cfg, p.New())
}

// scenarioSpec adapts one Fig. 8 scenario preset into a grid row.
func scenarioSpec(s isim.Scenario, scale float64) ScenarioSpec {
	return scenarioRow(s, scale, fmt.Sprintf("scenario %s at scale %g", s.ID, scale))
}

// scenarioRow adapts a scenario at scale into a grid row; where names the
// row in its configuration errors.
func scenarioRow(s isim.Scenario, scale float64, where string) ScenarioSpec {
	return ScenarioSpec{
		ID: s.ID, Label: s.Label,
		Config: func(seed uint64) (isim.Config, error) {
			cfg, err := s.Config(scale, seed)
			if err != nil {
				return isim.Config{}, fmt.Errorf("%s: %w", where, err)
			}
			return cfg, nil
		},
	}
}

// ScenarioGrid is one Fig. 8 panel × every policy.
func ScenarioGrid(s isim.Scenario, scale float64, baseSeed uint64, replicas int) *Grid {
	return &Grid{
		Name:      s.ID,
		Scenarios: []ScenarioSpec{scenarioSpec(s, scale)},
		Policies:  AllPolicySpecs(),
		Replicas:  replicas, BaseSeed: baseSeed,
	}
}

// Fig8Grid is all six Fig. 8 panels × every policy.
func Fig8Grid(scale float64, baseSeed uint64, replicas int) *Grid {
	var rows []ScenarioSpec
	for _, s := range isim.Fig8Scenarios() {
		rows = append(rows, scenarioSpec(s, scale))
	}
	return &Grid{
		Name: "fig8", Scenarios: rows, Policies: AllPolicySpecs(),
		Replicas: replicas, BaseSeed: baseSeed,
	}
}

// Fig9 sweep axes (GB at paper scale).
var (
	fig9RAMs       = []int{32, 64, 128, 256, 512}
	fig9SSDs       = []int{0, 128, 256, 512, 1024}
	fig9StagingGBs = []int{1, 2, 4, 5}
)

// Fig9Axes returns copies of the RAM × SSD axes (GB at paper scale), in the
// grid's row enumeration order (RAM-major).
func Fig9Axes() (rams, ssds []int) {
	return append([]int(nil), fig9RAMs...), append([]int(nil), fig9SSDs...)
}

// Fig9StagingSizes returns the staging-buffer preliminary sizes (GB).
func Fig9StagingSizes() []int {
	return append([]int(nil), fig9StagingGBs...)
}

// Fig9CellID names one environment-study grid row; presenters key
// aggregated summaries by it.
func Fig9CellID(ramGB, ssdGB int) string {
	return fmt.Sprintf("ram%d-ssd%d", ramGB, ssdGB)
}

// Fig9StagingID names one staging-preliminary grid row.
func Fig9StagingID(gb int) string {
	return fmt.Sprintf("staging%d", gb)
}

// PrintFig9Matrix renders the Fig. 9 environment study from a report of
// Fig9Grid or Fig9FullGrid: mean execution seconds by RAM (rows) and SSD
// (columns).
func PrintFig9Matrix(w io.Writer, rep *Report) {
	exec := map[string]float64{}
	for _, s := range rep.Aggregate() {
		exec[s.Scenario] = s.Metric(MetricExec).Mean
	}
	rams, ssds := Fig9Axes()
	fmt.Fprintf(w, "exec seconds by RAM (rows) x SSD (cols), GB:\n%8s", "")
	for _, ssd := range ssds {
		fmt.Fprintf(w, "%10d", ssd)
	}
	fmt.Fprintln(w)
	for _, ram := range rams {
		fmt.Fprintf(w, "%8d", ram)
		for _, ssd := range ssds {
			fmt.Fprintf(w, "%10.1f", exec[Fig9CellID(ram, ssd)])
		}
		fmt.Fprintln(w)
	}
}

// Fig9Grid is the 25-point RAM × SSD environment study: ImageNet-22k, NoPFS
// under 5× compute, 5 GB staging buffer.
func Fig9Grid(scale float64, baseSeed uint64, replicas int) *Grid {
	var rows []ScenarioSpec
	for _, ram := range fig9RAMs {
		for _, ssd := range fig9SSDs {
			rows = append(rows, ScenarioSpec{
				ID:    Fig9CellID(ram, ssd),
				Label: fmt.Sprintf("ImageNet-22k, NoPFS 5x compute, RAM %d GB, SSD %d GB", ram, ssd),
				Config: func(seed uint64) (isim.Config, error) {
					return isim.Fig9Config(scale, seed, 5, ram, ssd)
				},
			})
		}
	}
	return &Grid{
		Name: "fig9", Scenarios: rows, Policies: []PolicySpec{NoPFS},
		Replicas: replicas, BaseSeed: baseSeed,
	}
}

// Fig9FullGrid is the environment study plus the staging-buffer
// preliminary (1-5 GB staging windows on the smallest Fig. 9 configuration
// perform identically) as one grid, so presenters emit a single report (one
// JSON document, one CSV table) for the whole Fig. 9 study.
func Fig9FullGrid(scale float64, baseSeed uint64, replicas int) *Grid {
	grid := Fig9Grid(scale, baseSeed, replicas)
	for _, gb := range fig9StagingGBs {
		grid.Scenarios = append(grid.Scenarios, ScenarioSpec{
			ID:    Fig9StagingID(gb),
			Label: fmt.Sprintf("staging buffer %d GB, RAM 32 GB, no SSD", gb),
			Config: func(seed uint64) (isim.Config, error) {
				return isim.Fig9Config(scale, seed, gb, 32, 0)
			},
		})
	}
	return grid
}

// AblationGrid isolates each NoPFS design choice on the Fig. 8d regime
// (D < S < ND) under 5× compute — the operating point where placement
// quality, remote fetching, and prefetch depth each become visible.
func AblationGrid(scale float64, baseSeed uint64, replicas int) *Grid {
	s, err := isim.ScenarioByID("fig8d")
	if err != nil {
		panic(err) // fig8d is a compiled-in preset
	}
	base := scenarioSpec(s, scale)
	row := ScenarioSpec{
		ID: "fig8d-5x", Label: s.Label + ", 5x compute",
		Config: func(seed uint64) (isim.Config, error) {
			cfg, err := base.Config(seed)
			if err != nil {
				return isim.Config{}, err
			}
			cfg.Work.ComputeMBps *= 5
			cfg.Work.PreprocMBps *= 5
			return cfg, nil
		},
	}
	var cols []PolicySpec
	for _, v := range []isim.NoPFSVariant{
		{},
		{RandomPlacement: true},
		{NoRemote: true},
		{TinyStaging: true},
	} {
		cols = append(cols, PolicySpec{Name: v.Name(), New: func() isim.Policy {
			return isim.NewNoPFSVariant(v)
		}})
	}
	return &Grid{
		Name: "ablation", Scenarios: []ScenarioSpec{row}, Policies: cols,
		Replicas: replicas, BaseSeed: baseSeed,
	}
}
