// Package sim is the public façade of the NoPFS I/O performance simulator
// (paper Sec. 6): it re-exports scenario presets for every panel of Fig. 8,
// the Fig. 9 environment sweep, the policy registry, and the concurrent
// sweep engine, so downstream users can compare I/O strategies for their own
// dataset/cluster combinations without touching internal packages.
package sim

import (
	"fmt"
	"io"

	isim "repro/internal/sim"
	"repro/internal/sweep"
)

// Re-exported core types.
type (
	// Config describes one simulation run.
	Config = isim.Config
	// Result summarises one policy's simulated execution.
	Result = isim.Result
	// Policy is one I/O strategy.
	Policy = isim.Policy
	// Scenario is a Fig. 8 panel preset.
	Scenario = isim.Scenario
)

// Re-exported sweep-engine types: a Grid of (scenario × policy × replica)
// cells executed by a Runner on a bounded goroutine pool, reported as raw
// cells plus mean/CI Summaries. The engine is generic: a cell is any
// function of a derived seed (CellFunc) returning a metric-bag Outcome, so
// the same Runner also executes trainer experiment grids and live-cluster
// grids (see internal/trainer and package nopfs).
type (
	// Grid is a (scenario × policy × replica) experiment plan.
	Grid = sweep.Grid
	// GridScenario is one grid row: a named config factory.
	GridScenario = sweep.ScenarioSpec
	// GridPolicy is one grid column: a named policy constructor.
	GridPolicy = sweep.PolicySpec
	// CellFunc executes one grid cell from its derived seed.
	CellFunc = sweep.CellFunc
	// Outcome is the engine-visible result of one cell.
	Outcome = sweep.Outcome
	// Metric declares one column of a grid's result schema.
	Metric = sweep.Metric
	// ProfileSpec is one column of a grid's optional fault-profile axis.
	ProfileSpec = sweep.ProfileSpec
	// AccessSpec is one column of a grid's optional access-pattern axis.
	AccessSpec = sweep.AccessSpec
	// Runner executes grids; Parallel bounds the goroutine pool.
	Runner = sweep.Runner
	// Report is the deterministic raw outcome of one grid execution.
	Report = sweep.Report
	// Summary is the per-(scenario, policy) replica aggregate.
	Summary = sweep.Summary
	// CellResult pairs one grid cell with its outcome.
	CellResult = sweep.CellResult
	// Aggregator consumes a grid execution incrementally (Runner.RunStream):
	// giant grids stream through encoders without holding every Result.
	Aggregator = sweep.Aggregator
	// AggregatorMeta describes a grid execution to aggregators up front.
	AggregatorMeta = sweep.Meta
	// ResultMemo caches simulator cell outcomes by configuration digest for
	// incremental re-simulation (Runner.Memo).
	ResultMemo = sweep.ResultMemo
)

// Simulator metric names: the keys of the default schema's Outcome.Values
// and Summary.Metrics.
const (
	MetricExec     = sweep.MetricExec
	MetricStall    = sweep.MetricStall
	MetricSetup    = sweep.MetricSetup
	MetricCoverage = sweep.MetricCoverage
	MetricPFS      = sweep.MetricPFS
	MetricRemote   = sweep.MetricRemote
	MetricLocal    = sweep.MetricLocal
)

// Policy constructors and registry.
var (
	// NewNoPFS builds the paper's policy.
	NewNoPFS = isim.NewNoPFS
	// NewLowerBound builds the no-stall Perfect baseline.
	NewLowerBound = isim.NewLowerBound
	// NewNaive builds synchronous PFS loading.
	NewNaive = isim.NewNaive
	// NewStagingBuffer builds the double-buffering baseline.
	NewStagingBuffer = isim.NewStagingBuffer
	// AllPolicies returns every compared policy in Fig. 8 bar order.
	AllPolicies = isim.AllPolicies
	// PolicyByName resolves a Fig. 8 label.
	PolicyByName = isim.PolicyByName
	// Run simulates one policy under a config.
	Run = isim.Run
	// Fig8Scenarios returns the six Fig. 8 panels.
	Fig8Scenarios = isim.Fig8Scenarios
	// ScenarioByID resolves a panel id or dataset name.
	ScenarioByID = isim.ScenarioByID
)

// Sweep-engine grid presets and encoders.
var (
	// ScenarioGrid is one Fig. 8 panel × every policy.
	ScenarioGrid = sweep.ScenarioGrid
	// Fig8Grid is all six panels × every policy.
	Fig8Grid = sweep.Fig8Grid
	// Fig9Grid is the 25-point RAM × SSD environment study.
	Fig9Grid = sweep.Fig9Grid
	// Fig9StagingGrid is the staging-buffer preliminary.
	Fig9StagingGrid = sweep.Fig9StagingGrid
	// Fig9FullGrid is the environment study plus the staging preliminary
	// as one grid (one report, one document).
	Fig9FullGrid = sweep.Fig9FullGrid
	// Fig9Axes / Fig9StagingSizes / Fig9CellID / Fig9StagingID expose the
	// Fig. 9 grid geometry so presenters can key summaries by row.
	Fig9Axes         = sweep.Fig9Axes
	Fig9StagingSizes = sweep.Fig9StagingSizes
	Fig9CellID       = sweep.Fig9CellID
	Fig9StagingID    = sweep.Fig9StagingID
	// AblationGrid isolates each NoPFS design choice.
	AblationGrid = sweep.AblationGrid
	// AllPolicySpecs is the full policy column set.
	AllPolicySpecs = sweep.AllPolicySpecs
	// ReplicaSeed derives deterministic per-replica seeds.
	ReplicaSeed = sweep.ReplicaSeed
	// ChaosProfiles builds a fault-profile axis from chaos profiles.
	ChaosProfiles = sweep.ChaosProfiles
	// AccessPatterns builds an access-pattern axis from parsed patterns;
	// AccessAxis builds the uniform-vs-pattern axis from an -access spec.
	AccessPatterns = sweep.AccessPatterns
	AccessAxis     = sweep.AccessAxis
	// NewJSONAggregator / NewCSVAggregator / NewTextAggregator are the
	// report encoders: passed to Runner.RunStream they hold only the open
	// summary group in memory.
	NewJSONAggregator = sweep.NewJSONAggregator
	NewCSVAggregator  = sweep.NewCSVAggregator
	NewTextAggregator = sweep.NewTextAggregator
	// WriteJSON / WriteCSV / WriteText replay a collected Report through
	// the same encoders.
	WriteJSON = sweep.WriteJSON
	WriteCSV  = sweep.WriteCSV
	WriteText = sweep.WriteText
	// NewResultMemo builds a size-bounded cell-outcome cache for
	// incremental re-simulation.
	NewResultMemo = sweep.NewResultMemo
)

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
