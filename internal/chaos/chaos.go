// Package chaos defines deterministic fault and degradation scenarios for
// the NoPFS reproduction: straggler workers, mid-run storage-tier
// degradation, node crashes with clairvoyant-plan redistribution, and fabric
// latency/jitter/transient-failure injection.
//
// The paper's evaluation runs on healthy clusters; NoPFS's value proposition
// is strongest exactly when the hardware misbehaves. A Profile describes a
// fault scenario declaratively and hardware-independently; Compile derives a
// Schedule from a cell seed, and every query on the Schedule is a stateless
// pure function of (seed, query arguments). That statelessness is what makes
// chaos-injected sweeps bit-identical at any engine pool width: no draw
// depends on execution order.
//
// Both execution engines honour the same Profile through the same
// queries — the simulator (internal/sim, chaos.go) and the live middleware
// (package nopfs, chaos.go) reshape a crashed rank's plan by one
// RedistributeStream rule and fail the same remote fetches by one
// FabricCall draw — so sim-vs-live comparisons stay meaningful.
//
// The empty Profile compiles to a nil Schedule and both engines skip every
// chaos hook, so fault-free runs are byte-identical to a build without this
// package.
package chaos

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"
)

// PFSTier is the TierDegradation.Class value selecting the shared parallel
// filesystem instead of a node-local storage class.
const PFSTier = -1

// DefaultLiveTierMBps is the bandwidth the live path assumes for a degraded
// tier whose class has no configured rate (unlimited classes still need a
// finite base to divide by the degradation factor).
const DefaultLiveTierMBps = 1024.0

// Straggler marks one worker as slow: every fetch it performs takes Factor
// times as long from FromEpoch onwards. In the simulator a straggler peer
// also paces the per-iteration allreduce barrier (training advances at the
// slowest worker's rate); the live path slows the straggler rank's own
// prefetch pipeline.
type Straggler struct {
	// Worker is the straggler's rank; engines map it modulo the actual
	// worker count so one profile applies to any cluster size.
	Worker int
	// Factor is the slowdown multiplier (>= 1; 2 = half speed).
	Factor float64
	// FromEpoch is the first epoch the slowdown applies to (0 = from start).
	FromEpoch int
}

// TierDegradation rescales one storage tier's bandwidth: reads from the
// class take Factor times as long from FromEpoch onwards. Class PFSTier
// degrades the shared filesystem itself.
type TierDegradation struct {
	// Class indexes the node's storage classes (0 = fastest), or PFSTier.
	Class int
	// Factor divides the tier's bandwidth (>= 1; 4 = quarter bandwidth).
	Factor float64
	// FromEpoch is the first epoch the degradation applies to.
	FromEpoch int
}

// Crash removes one worker at the start of an epoch. Its clairvoyant plan —
// the stream positions it would have consumed — is redistributed round-robin
// across the survivors, and remote fetches that would have been served from
// its caches fall back to the PFS. Both engines enact it (see the package
// comment); a schedule that crashes every rank is rejected (ErrNoSurvivor).
type Crash struct {
	// Worker is the crashing rank, mapped modulo the worker count.
	Worker int
	// AtEpoch is the epoch at whose start the worker disappears (>= 1, so
	// at least one healthy epoch establishes the plan).
	AtEpoch int
}

// FabricFault injects interconnect misbehaviour into every remote sample
// fetch: a fixed latency, seed-derived uniform jitter on top, and a
// transient failure rate. A failed fetch is not fatal — the caller times out
// against the peer and falls back to the PFS, exactly the miss path the
// remote-progress heuristic already handles.
type FabricFault struct {
	// LatencySeconds is added to every remote call.
	LatencySeconds float64
	// JitterSeconds is the width of the uniform extra delay in [0, Jitter).
	JitterSeconds float64
	// FailRate is the probability in [0, 1) that a remote fetch fails
	// transiently and falls back to the PFS.
	FailRate float64
}

// zero reports whether the fault injects nothing.
func (f FabricFault) zero() bool {
	return f.LatencySeconds == 0 && f.JitterSeconds == 0 && f.FailRate == 0
}

// Profile is one declarative fault scenario: the third axis of the
// (scenario × policy × fault-profile × seed) experiment grids. The zero
// value is the empty profile — no faults, byte-identical behaviour.
type Profile struct {
	// Name labels the profile in reports and grid columns; empty means the
	// canonical Spec string is used.
	Name string

	Stragglers []Straggler
	Tiers      []TierDegradation
	Crashes    []Crash
	Fabric     FabricFault
}

// Empty reports whether the profile injects no faults at all.
func (p Profile) Empty() bool {
	return len(p.Stragglers) == 0 && len(p.Tiers) == 0 && len(p.Crashes) == 0 && p.Fabric.zero()
}

// Validate reports whether the profile is well-formed.
func (p Profile) Validate() error {
	for _, s := range p.Stragglers {
		switch {
		case s.Worker < 0:
			return fmt.Errorf("chaos: straggler worker %d negative", s.Worker)
		case s.Factor < 1:
			return fmt.Errorf("chaos: straggler factor %g < 1", s.Factor)
		case s.FromEpoch < 0:
			return fmt.Errorf("chaos: straggler from-epoch %d negative", s.FromEpoch)
		}
	}
	for _, t := range p.Tiers {
		switch {
		case t.Class < PFSTier:
			return fmt.Errorf("chaos: tier class %d invalid", t.Class)
		case t.Factor < 1:
			return fmt.Errorf("chaos: tier factor %g < 1", t.Factor)
		case t.FromEpoch < 0:
			return fmt.Errorf("chaos: tier from-epoch %d negative", t.FromEpoch)
		}
	}
	for _, c := range p.Crashes {
		switch {
		case c.Worker < 0:
			return fmt.Errorf("chaos: crash worker %d negative", c.Worker)
		case c.AtEpoch < 1:
			return fmt.Errorf("chaos: crash at epoch %d (need >= 1: the plan needs one healthy epoch)", c.AtEpoch)
		}
	}
	f := p.Fabric
	switch {
	case f.LatencySeconds < 0 || f.JitterSeconds < 0:
		return fmt.Errorf("chaos: negative fabric latency/jitter")
	case f.FailRate < 0 || f.FailRate >= 1:
		return fmt.Errorf("chaos: fabric fail rate %g outside [0, 1)", f.FailRate)
	}
	return nil
}

// Label returns the profile's report label: Name when set, else the
// canonical Spec string.
func (p Profile) Label() string {
	if p.Name != "" {
		return p.Name
	}
	if p.Empty() {
		return "none"
	}
	return p.Spec()
}

// Spec renders the profile in the -chaos flag grammar (see ParseProfile);
// ParseProfile(p.Spec()) reproduces the profile.
func (p Profile) Spec() string {
	var parts []string
	for _, s := range p.Stragglers {
		d := fmt.Sprintf("straggler:%dx%s", s.Worker, trimFloat(s.Factor))
		if s.FromEpoch > 0 {
			d += "@" + strconv.Itoa(s.FromEpoch)
		}
		parts = append(parts, d)
	}
	for _, t := range p.Tiers {
		class := strconv.Itoa(t.Class)
		if t.Class == PFSTier {
			class = "pfs"
		}
		d := fmt.Sprintf("tier:%sx%s", class, trimFloat(t.Factor))
		if t.FromEpoch > 0 {
			d += "@" + strconv.Itoa(t.FromEpoch)
		}
		parts = append(parts, d)
	}
	for _, c := range p.Crashes {
		parts = append(parts, fmt.Sprintf("crash:%d@%d", c.Worker, c.AtEpoch))
	}
	if f := p.Fabric; !f.zero() {
		if f.LatencySeconds > 0 {
			parts = append(parts, "lat:"+secondsToSpec(f.LatencySeconds))
		}
		if f.JitterSeconds > 0 {
			parts = append(parts, "jitter:"+secondsToSpec(f.JitterSeconds))
		}
		if f.FailRate > 0 {
			parts = append(parts, "drop:"+trimFloat(f.FailRate))
		}
	}
	return strings.Join(parts, ",")
}

// trimFloat formats a factor/rate without trailing zeros.
func trimFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// secondsToSpec renders a duration in the spec grammar.
func secondsToSpec(s float64) string {
	return time.Duration(s * float64(time.Second)).String()
}

// ParseProfile parses the -chaos flag grammar: either a preset name
// (see Presets) or a comma-separated list of directives:
//
//	straggler:<worker>x<factor>[@<epoch>]   worker runs <factor>x slower
//	tier:<class|pfs>x<factor>[@<epoch>]     tier bandwidth divided by <factor>
//	crash:<worker>@<epoch>                  worker crashes at epoch start
//	lat:<duration>                          remote-call latency (e.g. 5ms)
//	jitter:<duration>                       uniform extra remote-call delay
//	drop:<rate>                             transient remote-fetch failure rate
//
// Example: "straggler:1x2@1,tier:0x4@2,lat:2ms,drop:0.05".
func ParseProfile(spec string) (Profile, error) {
	spec = strings.TrimSpace(spec)
	if spec == "" || spec == "none" {
		return Profile{}, nil
	}
	if p, err := PresetByName(spec); err == nil {
		return p, nil
	}
	var p Profile
	for _, raw := range strings.Split(spec, ",") {
		d := strings.TrimSpace(raw)
		if d == "" {
			continue
		}
		kind, rest, ok := strings.Cut(d, ":")
		if !ok {
			return Profile{}, fmt.Errorf("chaos: directive %q is not <kind>:<args> and %q is not a preset (presets: %s)",
				d, spec, strings.Join(PresetNames(), ", "))
		}
		var err error
		switch kind {
		case "straggler":
			var s Straggler
			s.Worker, s.Factor, s.FromEpoch, err = parseWorkerFactor(rest)
			p.Stragglers = append(p.Stragglers, s)
		case "tier":
			var t TierDegradation
			t.Class, t.Factor, t.FromEpoch, err = parseTier(rest)
			p.Tiers = append(p.Tiers, t)
		case "crash":
			var c Crash
			c.Worker, c.AtEpoch, err = parseCrash(rest)
			p.Crashes = append(p.Crashes, c)
		case "lat":
			p.Fabric.LatencySeconds, err = parseDurationSeconds(rest)
		case "jitter":
			p.Fabric.JitterSeconds, err = parseDurationSeconds(rest)
		case "drop":
			p.Fabric.FailRate, err = strconv.ParseFloat(rest, 64)
		default:
			return Profile{}, fmt.Errorf("chaos: unknown directive kind %q in %q", kind, d)
		}
		if err != nil {
			return Profile{}, fmt.Errorf("chaos: directive %q: %w", d, err)
		}
	}
	if err := p.Validate(); err != nil {
		return Profile{}, err
	}
	return p, nil
}

// parseWorkerFactor parses "<worker>x<factor>[@<epoch>]".
func parseWorkerFactor(s string) (worker int, factor float64, from int, err error) {
	s, from, err = splitEpoch(s)
	if err != nil {
		return 0, 0, 0, err
	}
	w, f, ok := strings.Cut(s, "x")
	if !ok {
		return 0, 0, 0, fmt.Errorf("want <worker>x<factor>")
	}
	worker, err = strconv.Atoi(w)
	if err != nil {
		return 0, 0, 0, err
	}
	factor, err = strconv.ParseFloat(f, 64)
	return worker, factor, from, err
}

// parseTier parses "<class|pfs>x<factor>[@<epoch>]".
func parseTier(s string) (class int, factor float64, from int, err error) {
	s, from, err = splitEpoch(s)
	if err != nil {
		return 0, 0, 0, err
	}
	c, f, ok := strings.Cut(s, "x")
	if !ok {
		return 0, 0, 0, fmt.Errorf("want <class|pfs>x<factor>")
	}
	if c == "pfs" {
		class = PFSTier
	} else if class, err = strconv.Atoi(c); err != nil {
		return 0, 0, 0, err
	}
	factor, err = strconv.ParseFloat(f, 64)
	return class, factor, from, err
}

// parseCrash parses "<worker>@<epoch>".
func parseCrash(s string) (worker, at int, err error) {
	w, e, ok := strings.Cut(s, "@")
	if !ok {
		return 0, 0, fmt.Errorf("want <worker>@<epoch>")
	}
	if worker, err = strconv.Atoi(w); err != nil {
		return 0, 0, err
	}
	at, err = strconv.Atoi(e)
	return worker, at, err
}

// splitEpoch strips an optional "@<epoch>" suffix.
func splitEpoch(s string) (rest string, epoch int, err error) {
	head, tail, ok := strings.Cut(s, "@")
	if !ok {
		return s, 0, nil
	}
	epoch, err = strconv.Atoi(tail)
	return head, epoch, err
}

// parseDurationSeconds parses a time.Duration spec into seconds.
func parseDurationSeconds(s string) (float64, error) {
	d, err := time.ParseDuration(s)
	if err != nil {
		return 0, err
	}
	if d < 0 {
		return 0, fmt.Errorf("negative duration %s", d)
	}
	return d.Seconds(), nil
}

// Presets returns the named fault scenarios shipped with the repo, the
// quick vocabulary for -chaos flags and smoke tests.
func Presets() []Profile {
	return []Profile{
		{
			Name:       "straggler",
			Stragglers: []Straggler{{Worker: 1, Factor: 2, FromEpoch: 1}},
		},
		{
			Name:  "degraded-tier",
			Tiers: []TierDegradation{{Class: 0, Factor: 4, FromEpoch: 1}},
		},
		{
			Name:  "slow-pfs",
			Tiers: []TierDegradation{{Class: PFSTier, Factor: 3, FromEpoch: 1}},
		},
		{
			Name:   "flaky-fabric",
			Fabric: FabricFault{LatencySeconds: 0.002, JitterSeconds: 0.003, FailRate: 0.02},
		},
		{
			Name:    "node-crash",
			Crashes: []Crash{{Worker: 1, AtEpoch: 1}},
		},
		{
			Name:       "meltdown",
			Stragglers: []Straggler{{Worker: 1, Factor: 2, FromEpoch: 1}},
			Tiers:      []TierDegradation{{Class: 0, Factor: 4, FromEpoch: 2}, {Class: PFSTier, Factor: 2, FromEpoch: 1}},
			Crashes:    []Crash{{Worker: 2, AtEpoch: 2}},
			Fabric:     FabricFault{LatencySeconds: 0.001, JitterSeconds: 0.002, FailRate: 0.01},
		},
	}
}

// PresetNames returns the preset names, sorted.
func PresetNames() []string {
	var names []string
	for _, p := range Presets() {
		names = append(names, p.Name)
	}
	sort.Strings(names)
	return names
}

// PresetByName resolves one preset profile.
func PresetByName(name string) (Profile, error) {
	for _, p := range Presets() {
		if p.Name == name {
			return p, nil
		}
	}
	return Profile{}, fmt.Errorf("chaos: unknown preset %q (have: %s)", name, strings.Join(PresetNames(), ", "))
}
