package cli

import (
	"flag"
	"os"
	"strings"

	"repro/internal/access"
	"repro/internal/chaos"
	"repro/internal/profiling"
)

// This file defines the shared flag groups: every command registers the same
// groups, and TestFlagGroupsConsistent pins that shared flags stay identical.
// Deliberate per-command differences are confined to the registration
// parameters below:
//
//   - -scale defaults: sim 0.02 vs train 0.1 (intentional, see
//     EXPERIMENTS.md — the Sec. 7 figures stay faithful at a coarser
//     scale than the simulator panels);
//   - -seed on train overrides the figure's preset seed (default 0),
//     everywhere else it is the training PRNG seed (default 42).

// chaosHelp is the single -chaos grammar description shared by the grid
// commands.
func chaosHelp() string {
	return "fault profile: a preset (" + strings.Join(chaos.PresetNames(), ", ") +
		") or a spec like \"straggler:1x2@1,tier:0x4,drop:0.05\"; adds a clean-vs-faulted" +
		" profile axis to the grid (fault profiles extend beyond the paper's measured configurations)"
}

// accessFlagHelp is the single -access grammar description shared by the
// grid commands.
func accessFlagHelp() string {
	return "workload access pattern: a preset (" + strings.Join(access.PresetNames(), ", ") +
		") or a spec like \"zipf:s=1.1,drift=0.05\" or \"elastic:join=1@1,leave=2@2\";" +
		" adds a uniform-vs-pattern axis to the grid (the empty spec keeps the classic uniform shuffle)"
}

// scaleHelp and seedHelp are the shared wordings.
const (
	scaleHelp    = "dataset/capacity scale (1 = paper size)"
	seedHelp     = "training PRNG seed"
	seedHelpPre  = "override the figure's preset shuffle seed (0 = preset)"
	formatHelp   = "output format: text, json, or csv"
	parallelHelp = "sweep-engine goroutine pool width (0 = GOMAXPROCS)"
	replicasHelp = "replica seeds per grid cell"
	configHelp   = "read flag defaults from FILE (name=value lines, # comments; command-line flags win)"
	dryRunHelp   = "print the plan analysis (grid shape, per-tier placement) and each scenario's simulated NoPFS fetch mix and stall without running the grid"
)

// ScaleFlags is the scale/seed group shared by the experiment commands.
type ScaleFlags struct {
	Scale float64
	Seed  uint64
}

// Register adds the group with the command's defaults (see the file comment
// for why the defaults differ per command).
func (f *ScaleFlags) Register(fs *flag.FlagSet, scaleDefault float64, seedDefault uint64, seedUsage string) {
	fs.Float64Var(&f.Scale, "scale", scaleDefault, scaleHelp)
	fs.Uint64Var(&f.Seed, "seed", seedDefault, seedUsage)
}

// EngineFlags is the sweep-engine group: pool width, replica axis, output
// format, fault-profile axis, and access-pattern axis.
type EngineFlags struct {
	Parallel int
	Replicas int
	Format   string
	Chaos    string
	Access   string
}

// Register adds the group.
func (f *EngineFlags) Register(fs *flag.FlagSet) {
	fs.IntVar(&f.Parallel, "parallel", 0, parallelHelp)
	fs.IntVar(&f.Replicas, "replicas", 1, replicasHelp)
	fs.StringVar(&f.Format, "format", "text", formatHelp)
	fs.StringVar(&f.Chaos, "chaos", "", chaosHelp())
	fs.StringVar(&f.Access, "access", "", accessFlagHelp())
}

// CommonFlags is the group every experiment command carries: config-file
// support, dry-run, and the profiling collectors.
type CommonFlags struct {
	Config string
	DryRun bool
	Prof   profiling.Flags
}

// Register adds the group; withDryRun gates -dry-run (the access and run
// commands have nothing to dry-run).
func (f *CommonFlags) Register(fs *flag.FlagSet, withDryRun bool) {
	fs.StringVar(&f.Config, "config", "", configHelp)
	if withDryRun {
		fs.BoolVar(&f.DryRun, "dry-run", false, dryRunHelp)
	}
	f.Prof.Register(fs)
}

// applyConfigFile loads name=value defaults from path into fs, skipping
// flags already set on the command line (the command line wins). Lines are
// `name = value`; blank lines and #-comments are ignored. Unknown names are
// usage errors — a typo must not silently no-op.
func applyConfigFile(fs *flag.FlagSet, path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return usagef("config: %v", err)
	}
	fromCLI := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { fromCLI[f.Name] = true })
	for i, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, value, ok := strings.Cut(line, "=")
		if !ok {
			return usagef("config %s:%d: want name=value, got %q", path, i+1, line)
		}
		name, value = strings.TrimSpace(name), strings.TrimSpace(value)
		if fs.Lookup(name) == nil {
			return usagef("config %s:%d: unknown flag %q", path, i+1, name)
		}
		if fromCLI[name] {
			continue
		}
		if err := fs.Set(name, value); err != nil {
			return usagef("config %s:%d: flag %q: %v", path, i+1, name, err)
		}
	}
	return nil
}
