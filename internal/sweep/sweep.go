// Package sweep is the repo's single experiment-orchestration layer: it runs
// (scenario × policy × replica-seed) grids of independent cells on a bounded
// goroutine pool and folds replica results into mean/median/CI summaries.
//
// The engine is generic over what a cell *is*. A cell is any function of a
// derived seed that returns an Outcome — a named bag of scalar metrics plus
// an optional domain payload. Every grid of the paper runs the default
// binding, the simulator (grids.go):
//
//   - the Fig. 8 panels, the Fig. 9 environment study, and the ablation,
//     under the simulator schema, and
//   - the Sec. 7 studies (sec7.go), with the paper's loaders as policy
//     columns and their own outcome projection, Grid.Outcome.
//
// Determinism is a hard invariant: each cell's PRNG seed is a pure function
// of the grid's base seed and the cell's replica index, never of execution
// order, so the same Grid produces bit-identical Reports at any parallelism
// level (for cells that are themselves deterministic). Policies within one
// (scenario, replica) share the seed — the paper compares policies on
// identical training access streams.
package sweep

import (
	"context"
	"fmt"

	"repro/internal/access"
	"repro/internal/chaos"
	"repro/internal/prng"
	isim "repro/internal/sim"
)

// Metric declares one column of a grid's result schema. Every cell of the
// grid reports its scalar results under these names in Outcome.Values.
type Metric struct {
	// Name is the stable key into Outcome.Values and the CSV column stem.
	Name string `json:"name"`
	// Label is the short text-report column header (defaults to Name).
	Label string `json:"label,omitempty"`
	// Unit is appended to text-report values ("s" for seconds).
	Unit string `json:"unit,omitempty"`
	// Hide omits the metric from text reports; it is still present in JSON
	// and CSV encodings.
	Hide bool `json:"-"`
}

// label returns the text-report header for the metric.
func (m Metric) label() string {
	if m.Label != "" {
		return m.Label
	}
	return m.Name
}

// Outcome is the engine-visible result of executing one cell.
type Outcome struct {
	// Failed marks a cell whose configuration cannot run at all (a
	// legitimate experimental outcome, e.g. LBANN when the dataset exceeds
	// aggregate RAM) — distinct from an error, which aborts the whole grid.
	Failed     bool   `json:"failed,omitempty"`
	FailReason string `json:"failReason,omitempty"`
	// Note is a human remark carried into text reports ("does not access
	// entire dataset (61%)").
	Note string `json:"note,omitempty"`
	// Values holds the cell's scalar metrics, keyed by Metric.Name.
	Values map[string]float64 `json:"values,omitempty"`
	// Payload is the cell's domain-specific result (*isim.Result for every
	// simulator cell, the Sec. 7 studies' included). It is never encoded;
	// presenters that need more than the scalar metrics read it back out of
	// the report cells.
	Payload any `json:"-"`
}

// CellFunc executes one cell of a grid from its deterministically derived
// seed. It must be safe to call concurrently with other cells' funcs, and
// should honour ctx cancellation when the cell blocks (pure-compute
// simulator cells check it on entry).
type CellFunc func(ctx context.Context, seed uint64) (*Outcome, error)

// ScenarioSpec is one row of a Grid. For simulator grids, Config
// materialises the row's simulator configuration, onto which Grid.Config
// stamps each cell's axes; a custom Cell binding may use the spec purely as a
// report label.
type ScenarioSpec struct {
	// ID labels the row in reports ("fig8b", "ram64-ssd256", ...).
	ID string
	// Label is an optional human caption carried into text reports.
	Label string
	// Config materialises the simulator configuration for one cell seed.
	// It must be a pure function of the seed (no shared mutable state) so
	// cells can be materialised concurrently. Nil for non-simulator grids.
	Config func(seed uint64) (isim.Config, error)
}

// PolicySpec is one column of a Grid. For simulator grids, New returns the
// column's policy; a custom Cell binding may use the spec purely as a report
// label.
type PolicySpec struct {
	Name string
	New  func() isim.Policy
}

// AllPolicySpecs returns a column set covering every policy of the Fig. 8
// comparison, in bar order.
func AllPolicySpecs() []PolicySpec {
	var specs []PolicySpec
	for _, p := range isim.AllPolicies() {
		specs = append(specs, PolicySpec{Name: p.Name(), New: func() isim.Policy { return p }})
	}
	return specs
}

// ProfileSpec is one column of a grid's optional fault-profile axis: a named
// chaos scenario every (scenario, policy) pair additionally runs under. The
// empty Profile is a legal column (the explicit fault-free baseline); grids
// without a Profiles axis run exactly one implicit empty profile, preserving
// the legacy cell enumeration byte for byte.
type ProfileSpec struct {
	// Name labels the column in reports; required when the axis is present.
	Name string
	// Profile is the fault scenario, compiled per cell against the cell's
	// replica seed by the engine binding that consumes it.
	Profile chaos.Profile
}

// ChaosProfiles builds a profile axis from chaos profiles, labelling each
// column with the profile's Label.
func ChaosProfiles(profiles ...chaos.Profile) []ProfileSpec {
	specs := make([]ProfileSpec, len(profiles))
	for i, p := range profiles {
		specs[i] = ProfileSpec{Name: p.Label(), Profile: p}
	}
	return specs
}

// ChaosAxis turns a -chaos flag value (preset name or spec grammar, see
// chaos.ParseProfile) into a clean-vs-faulted profile axis, so every report
// pairs both numbers on identical access streams. An empty or no-op spec
// returns no axis at all, preserving byte-identical legacy output. Both
// CLIs build their -chaos axis through this one helper.
func ChaosAxis(spec string) ([]ProfileSpec, error) {
	if spec == "" {
		return nil, nil
	}
	p, err := chaos.ParseProfile(spec)
	if err != nil {
		return nil, err
	}
	if p.Empty() {
		return nil, nil
	}
	return ChaosProfiles(chaos.Profile{Name: "clean"}, p), nil
}

// AccessSpec is one column of a grid's optional access-pattern axis: a named
// workload pattern every (scenario, policy, profile) triple additionally runs
// under. The empty Spec is a legal column (the explicit uniform baseline);
// grids without a Patterns axis run exactly one implicit uniform pattern,
// preserving the legacy cell enumeration byte for byte.
type AccessSpec struct {
	// Name labels the column in reports; required when the axis is present.
	Name string
	// Spec is the canonical access-pattern spec ("" = the uniform shuffle;
	// see access.ParseAccessSpec), stamped onto each simulator cell's config.
	Spec string
}

// AccessPatterns builds a pattern axis from parsed patterns, labelling each
// column with the pattern's Label and storing its canonical spec.
func AccessPatterns(patterns ...access.Pattern) []AccessSpec {
	specs := make([]AccessSpec, len(patterns))
	for i, p := range patterns {
		spec := ""
		if !p.Empty() {
			spec = p.Spec()
		}
		specs[i] = AccessSpec{Name: p.Label(), Spec: spec}
	}
	return specs
}

// AccessAxis turns an -access flag value (preset name or spec grammar, see
// access.ParseAccessSpec) into a uniform-vs-pattern axis, so every report
// pairs the workload against the classic uniform baseline on identical
// replica seeds. An empty or uniform spec returns no axis at all, preserving
// byte-identical legacy output. Both CLIs build their -access axis through
// this one helper, mirroring ChaosAxis.
func AccessAxis(spec string) ([]AccessSpec, error) {
	if spec == "" {
		return nil, nil
	}
	p, err := access.ParseAccessSpec(spec)
	if err != nil {
		return nil, err
	}
	if p.Empty() {
		return nil, nil
	}
	return AccessPatterns(access.Pattern{Name: "uniform"}, p), nil
}

// Grid is a (scenario × policy × fault-profile × access-pattern × replica)
// experiment plan. It is pure data: nothing runs until a Runner executes it.
type Grid struct {
	// Name labels the whole grid in reports.
	Name string
	// Scenarios are the rows; Policies the columns.
	Scenarios []ScenarioSpec
	Policies  []PolicySpec
	// Profiles is the optional fault-profile axis. Empty means one implicit
	// fault-free profile: the legacy (scenario × policy × replica)
	// enumeration, byte-identical reports included.
	Profiles []ProfileSpec
	// Patterns is the optional access-pattern axis. Empty means one implicit
	// uniform pattern, again preserving the legacy enumeration byte for byte.
	Patterns []AccessSpec
	// Replicas is the number of seeds per (scenario, policy, profile,
	// pattern) cell; values below 1 mean 1.
	Replicas int
	// BaseSeed derives every replica seed. Replica 0 uses BaseSeed itself,
	// so a 1-replica grid reproduces the legacy serial paths bit for bit.
	BaseSeed uint64
	// Metrics is the result schema shared by every cell. Nil means the
	// simulator schema (SimMetrics).
	Metrics []Metric
	// Outcome projects one simulated cell — its materialised configuration
	// and result — onto Metrics. Nil means SimOutcome.
	Outcome func(isim.Config, *isim.Result) *Outcome
	// Cell binds the (scenario, policy, profile, pattern) tuple at the given
	// indices to an executable cell. Nil means the simulator binding:
	// Config(si, fi, ai, seed) × Policies[pi].New × isim.Run × Outcome.
	Cell func(scenario, policy, profile, pattern int) CellFunc

	// cost, when set, replaces cellCost's estimate (tests only).
	cost func(Cell) int64
}

// Cell identifies one run within a grid.
type Cell struct {
	// Index is the cell's position in the deterministic enumeration order
	// (scenario-major, then policy, then profile, then replica).
	Index int `json:"index"`
	// Scenario, Policy, Profile and Pattern are report labels; the *Idx
	// fields index into the grid's spec slices. Profile and Pattern are
	// empty for grids without the corresponding axis (keeping their
	// encodings byte-identical).
	Scenario    string `json:"scenario"`
	Policy      string `json:"policy"`
	Profile     string `json:"profile,omitempty"`
	Pattern     string `json:"pattern,omitempty"`
	Replica     int    `json:"replica"`
	Seed        uint64 `json:"seed"`
	ScenarioIdx int    `json:"-"`
	PolicyIdx   int    `json:"-"`
	ProfileIdx  int    `json:"-"`
	PatternIdx  int    `json:"-"`
}

// ReplicaSeed derives the seed for replica r from the grid base seed.
// Replica 0 is the base seed unchanged (legacy-path compatibility); later
// replicas are SplitMix64-derived so they are uncorrelated. The result
// depends only on (base, r) — never on execution order — which is what
// makes Reports bit-identical at any parallelism.
func ReplicaSeed(base uint64, r int) uint64 {
	if r <= 0 {
		return base
	}
	h := prng.NewSplitMix64(base).Next()
	return prng.NewSplitMix64(h + uint64(r)).Next()
}

// replicas returns the effective replica count.
func (g *Grid) replicas() int {
	if g.Replicas < 1 {
		return 1
	}
	return g.Replicas
}

// profiles returns the effective fault-profile axis: the declared columns,
// or one implicit fault-free profile.
func (g *Grid) profiles() []ProfileSpec {
	if len(g.Profiles) > 0 {
		return g.Profiles
	}
	return []ProfileSpec{{}}
}

// patterns returns the effective access-pattern axis: the declared columns,
// or one implicit uniform pattern.
func (g *Grid) patterns() []AccessSpec {
	if len(g.Patterns) > 0 {
		return g.Patterns
	}
	return []AccessSpec{{}}
}

// ProfileCount returns the length of the effective fault-profile axis: a
// grid without one runs one implicit fault-free profile.
func (g *Grid) ProfileCount() int { return len(g.profiles()) }

// metrics returns the effective result schema.
func (g *Grid) metrics() []Metric {
	if len(g.Metrics) > 0 {
		return g.Metrics
	}
	return SimMetrics()
}

// Size returns the number of cells in the grid.
func (g *Grid) Size() int {
	return len(g.Scenarios) * len(g.Policies) * len(g.profiles()) *
		len(g.patterns()) * g.replicas()
}

// Cells enumerates the grid in deterministic order: scenario-major, then
// policy, then profile, then pattern, then replica. All parallelism
// downstream preserves this order in the Report, so output is independent of
// scheduling. Replica seeds are shared across scenarios, policies, profiles
// AND patterns: fault and workload scenarios are compared on identical
// replica seeds, exactly as the paper compares policies.
func (g *Grid) Cells() []Cell {
	cells := make([]Cell, 0, g.Size())
	for si, s := range g.Scenarios {
		for pi, p := range g.Policies {
			for fi, prof := range g.profiles() {
				for ai, pat := range g.patterns() {
					for r := 0; r < g.replicas(); r++ {
						cells = append(cells, Cell{
							Index:    len(cells),
							Scenario: s.ID, Policy: p.Name, Profile: prof.Name,
							Pattern: pat.Name,
							Replica: r, Seed: ReplicaSeed(g.BaseSeed, r),
							ScenarioIdx: si, PolicyIdx: pi, ProfileIdx: fi,
							PatternIdx: ai,
						})
					}
				}
			}
		}
	}
	return cells
}

// cellFunc resolves the executable cell for (scenario, policy, profile,
// pattern) indices, applying the simulator default when the grid carries no
// custom binding.
func (g *Grid) cellFunc(si, pi, fi, ai int) (CellFunc, error) {
	if g.Cell != nil {
		fn := g.Cell(si, pi, fi, ai)
		if fn == nil {
			return nil, fmt.Errorf("sweep: grid %q cell binding returned nil for %s/%s",
				g.Name, g.Scenarios[si].ID, g.Policies[pi].Name)
		}
		return fn, nil
	}
	return simCellFunc(g, si, pi, fi, ai), nil
}

// Config materialises one cell's simulator configuration: row si's config
// for the seed, with the cell's fault profile and access pattern stamped on.
// It is the one axis rule of every simulator binding: the profile column sets
// the fault profile outright (the implicit and the empty column are
// fault-free), and a non-empty pattern spec replaces the row's access spec.
func (g *Grid) Config(si, fi, ai int, seed uint64) (isim.Config, error) {
	cfg, err := g.Scenarios[si].Config(seed)
	if err != nil {
		return isim.Config{}, err
	}
	cfg.Chaos = g.profiles()[fi].Profile
	if pat := g.patterns()[ai].Spec; pat != "" {
		cfg.Access = pat
	}
	return cfg, nil
}

// cellCost estimates a cell's running time, in units only comparable within
// one grid, for RunStream's longest-first dispatch. The simulator binding
// derives it from what the cell declares (simCellCost); a custom binding's
// cells all cost 0, which dispatches them in enumeration order.
func (g *Grid) cellCost(c Cell) int64 {
	switch {
	case g.cost != nil:
		return g.cost(c)
	case g.Cell != nil:
		return 0
	}
	return simCellCost(g.Scenarios[c.ScenarioIdx], g.Policies[c.PolicyIdx], c.Seed)
}

// uniqueLabels reports the first label that repeats on one grid axis.
func uniqueLabels[T any](grid, axis string, specs []T, label func(T) string) error {
	seen := make(map[string]bool, len(specs))
	for _, s := range specs {
		l := label(s)
		if seen[l] {
			return fmt.Errorf("sweep: grid %q has duplicate %s %q", grid, axis, l)
		}
		seen[l] = true
	}
	return nil
}

// Validate reports whether the grid is runnable.
func (g *Grid) Validate() error {
	if len(g.Scenarios) == 0 {
		return fmt.Errorf("sweep: grid %q has no scenarios", g.Name)
	}
	if len(g.Policies) == 0 {
		return fmt.Errorf("sweep: grid %q has no policies", g.Name)
	}
	// Summaries, text blocks and presenters' by-ID maps all take a label for
	// its group: a repeated label on any axis would merge or split groups.
	for _, err := range []error{
		uniqueLabels(g.Name, "scenario ID", g.Scenarios, func(s ScenarioSpec) string { return s.ID }),
		uniqueLabels(g.Name, "policy name", g.Policies, func(p PolicySpec) string { return p.Name }),
		uniqueLabels(g.Name, "profile name", g.Profiles, func(p ProfileSpec) string { return p.Name }),
		uniqueLabels(g.Name, "pattern name", g.Patterns, func(p AccessSpec) string { return p.Name }),
	} {
		if err != nil {
			return err
		}
	}
	for _, prof := range g.Profiles {
		// An explicit axis needs distinguishable column labels (the empty
		// Profile itself is legal: the fault-free baseline column).
		if prof.Name == "" {
			return fmt.Errorf("sweep: grid %q has a fault-profile column without a name", g.Name)
		}
		if err := prof.Profile.Validate(); err != nil {
			return fmt.Errorf("sweep: grid %q profile %q: %w", g.Name, prof.Name, err)
		}
	}
	for _, pat := range g.Patterns {
		if pat.Name == "" {
			return fmt.Errorf("sweep: grid %q has an access-pattern column without a name", g.Name)
		}
		if _, err := access.ParseAccessSpec(pat.Spec); err != nil {
			return fmt.Errorf("sweep: grid %q pattern %q: %w", g.Name, pat.Name, err)
		}
	}
	// A custom binding or projection must declare its own schema: falling
	// back to the simulator metric names would aggregate nothing and emit
	// zero-filled reports.
	if (g.Cell != nil || g.Outcome != nil) && len(g.Metrics) == 0 {
		return fmt.Errorf("sweep: grid %q has a custom cell binding or outcome but no metric schema", g.Name)
	}
	if g.Cell != nil {
		return nil
	}
	for _, s := range g.Scenarios {
		if s.Config == nil {
			return fmt.Errorf("sweep: scenario %q has no config factory", s.ID)
		}
	}
	for _, p := range g.Policies {
		if p.New == nil {
			return fmt.Errorf("sweep: policy %q has no constructor", p.Name)
		}
	}
	return nil
}
