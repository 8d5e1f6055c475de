package access

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"repro/internal/prng"
)

// This file implements the access-pattern layer: the generators that decide
// *which* sample order each epoch draws, behind the same Plan surface the
// uniform Fisher-Yates shuffle always used. A Pattern is declared by a spec
// string (the `-access` flag grammar), parsed once, and then drives
// EpochOrder / the stream partition deterministically from the plan seed —
// every order remains a pure function of (Seed, spec, epoch).
//
// Kinds:
//
//	uniform                                  legacy per-epoch permutation
//	zipf:s=<exp>[,drift=<frac>]              importance sampling, Zipf weights
//	boost:frac=<f>,factor=<x>[,drift=<frac>] boost-set importance sampling
//	curriculum:buckets=<B>[,shuffle=off]     difficulty-ordered epochs
//	mix:w=<w1>/<w2>/...                      multi-dataset weighted interleave
//	elastic:join=<rank>@<epoch>,leave=...    rank join/leave at epoch bounds
//
// zipf and boost draw F samples per epoch *with replacement* (non-uniform,
// optionally drifting frequencies); curriculum and mix emit a permutation
// per epoch; elastic keeps the uniform order and changes the worker
// partition instead.

// Pattern kinds. The empty kind is the uniform baseline.
const (
	KindUniform    = "uniform"
	KindZipf       = "zipf"
	KindBoost      = "boost"
	KindCurriculum = "curriculum"
	KindMix        = "mix"
	KindElastic    = "elastic"
)

// MemberEvent is one elastic membership change: Rank joins (or leaves) the
// active set at the start of epoch Epoch.
type MemberEvent struct {
	Rank  int
	Epoch int
}

// Pattern is a parsed access-pattern declaration. The zero value is the
// uniform pattern. Patterns are carried on a Plan as their canonical Spec()
// string (plans stay comparable map keys); parse cost is negligible next to
// order generation.
type Pattern struct {
	// Name is the preset this pattern was parsed from ("" for raw specs).
	Name string
	// Kind selects the generator ("" = uniform).
	Kind string

	// S is the Zipf exponent (zipf).
	S float64
	// Drift shifts the weight-to-sample mapping by floor(drift*e*F) ids
	// each epoch e (zipf, boost).
	Drift float64
	// Frac is the boosted fraction of the dataset; Factor its weight
	// multiplier (boost).
	Frac, Factor float64
	// Buckets is the number of difficulty buckets; Shuffle permutes within
	// each bucket per epoch (curriculum).
	Buckets int
	Shuffle bool
	// Weights are the mixture rates of the K contiguous dataset parts (mix).
	Weights []float64
	// Joins and Leaves are the elastic membership schedule (elastic).
	Joins, Leaves []MemberEvent
}

// presets are the named access patterns, the -access analogue of the chaos
// presets: each is a worked instance of one generator kind.
func presets() []Pattern {
	return []Pattern{
		{Name: "zipf", Kind: KindZipf, S: 1.1},
		{Name: "drifting-zipf", Kind: KindZipf, S: 1.1, Drift: 0.05},
		{Name: "hot-set", Kind: KindBoost, Frac: 0.1, Factor: 8},
		{Name: "curriculum", Kind: KindCurriculum, Buckets: 4, Shuffle: true},
		{Name: "mix", Kind: KindMix, Weights: []float64{0.6, 0.3, 0.1}},
		{Name: "elastic", Kind: KindElastic,
			Joins:  []MemberEvent{{Rank: 1, Epoch: 1}},
			Leaves: []MemberEvent{{Rank: 2, Epoch: 2}}},
	}
}

// Presets returns the built-in named patterns.
func Presets() []Pattern { return presets() }

// PresetNames returns the built-in pattern names in declaration order.
func PresetNames() []string {
	ps := presets()
	names := make([]string, len(ps))
	for i, p := range ps {
		names[i] = p.Name
	}
	return names
}

// PresetByName returns the named preset.
func PresetByName(name string) (Pattern, bool) {
	for _, p := range presets() {
		if p.Name == name {
			return p, true
		}
	}
	return Pattern{}, false
}

// Empty reports whether the pattern is the uniform baseline.
func (pat Pattern) Empty() bool { return pat.Kind == "" || pat.Kind == KindUniform }

// Elastic reports whether the pattern carries a membership schedule.
func (pat Pattern) Elastic() bool { return pat.Kind == KindElastic }

// Label returns the human label: the preset name when the pattern came from
// one, the canonical spec otherwise, "uniform" for the baseline.
func (pat Pattern) Label() string {
	if pat.Name != "" {
		return pat.Name
	}
	return pat.Spec()
}

// Spec renders the canonical spec string; ParseAccessSpec(Spec()) round-trips.
func (pat Pattern) Spec() string {
	switch pat.Kind {
	case "", KindUniform:
		return KindUniform
	case KindZipf:
		s := "zipf:s=" + trimFloat(pat.S)
		if pat.Drift > 0 {
			s += ",drift=" + trimFloat(pat.Drift)
		}
		return s
	case KindBoost:
		s := "boost:frac=" + trimFloat(pat.Frac) + ",factor=" + trimFloat(pat.Factor)
		if pat.Drift > 0 {
			s += ",drift=" + trimFloat(pat.Drift)
		}
		return s
	case KindCurriculum:
		s := "curriculum:buckets=" + strconv.Itoa(pat.Buckets)
		if !pat.Shuffle {
			s += ",shuffle=off"
		}
		return s
	case KindMix:
		parts := make([]string, len(pat.Weights))
		for i, w := range pat.Weights {
			parts[i] = trimFloat(w)
		}
		return "mix:w=" + strings.Join(parts, "/")
	case KindElastic:
		var dirs []string
		for _, ev := range sortedEvents(pat.Joins) {
			dirs = append(dirs, fmt.Sprintf("join=%d@%d", ev.Rank, ev.Epoch))
		}
		for _, ev := range sortedEvents(pat.Leaves) {
			dirs = append(dirs, fmt.Sprintf("leave=%d@%d", ev.Rank, ev.Epoch))
		}
		return "elastic:" + strings.Join(dirs, ",")
	}
	return pat.Kind
}

// sortedEvents returns the events ordered by (epoch, rank) — the canonical
// rendering order.
func sortedEvents(evs []MemberEvent) []MemberEvent {
	out := append([]MemberEvent(nil), evs...)
	sort.Slice(out, func(i, j int) bool {
		if out[i].Epoch != out[j].Epoch {
			return out[i].Epoch < out[j].Epoch
		}
		return out[i].Rank < out[j].Rank
	})
	return out
}

// trimFloat renders a float without trailing zeros (8 → "8", 0.05 → "0.05").
func trimFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// ParseAccessSpec parses an access-pattern spec: a preset name, "uniform"
// (or the empty string), or a `kind:args` declaration from the grammar in
// the file comment. The parsed pattern is validated.
func ParseAccessSpec(spec string) (Pattern, error) {
	spec = strings.TrimSpace(spec)
	if spec == "" || spec == KindUniform {
		return Pattern{}, nil
	}
	if p, ok := PresetByName(spec); ok {
		return p, nil
	}
	kind, args, ok := strings.Cut(spec, ":")
	if !ok {
		return Pattern{}, fmt.Errorf("access: unknown pattern %q (presets: %s; or kind:args with kinds zipf, boost, curriculum, mix, elastic)",
			spec, strings.Join(PresetNames(), ", "))
	}
	var pat Pattern
	var err error
	switch kind {
	case KindZipf:
		err = pat.parseZipf(args)
	case KindBoost:
		err = pat.parseBoost(args)
	case KindCurriculum:
		err = pat.parseCurriculum(args)
	case KindMix:
		err = pat.parseMix(args)
	case KindElastic:
		err = pat.parseElastic(args)
	default:
		return Pattern{}, fmt.Errorf("access: unknown pattern kind %q (want zipf, boost, curriculum, mix, or elastic)", kind)
	}
	if err != nil {
		return Pattern{}, err
	}
	if err := pat.Validate(); err != nil {
		return Pattern{}, err
	}
	return pat, nil
}

// CanonicalSpec parses a spec and returns its canonical rendering, with the
// uniform baseline normalised to the empty string. Entry points (CLI flags,
// nopfs options, the sweep axis) canonicalise before stamping a Plan so two
// spellings of one pattern ("zipf" vs "zipf:s=1.1") share plan digests
// and cache entries.
func CanonicalSpec(spec string) (string, error) {
	pat, err := ParseAccessSpec(spec)
	if err != nil {
		return "", err
	}
	if pat.Empty() {
		return "", nil
	}
	return pat.Spec(), nil
}

// keyVals splits "k1=v1,k2=v2" argument lists.
func keyVals(kind, args string) ([][2]string, error) {
	if strings.TrimSpace(args) == "" {
		return nil, fmt.Errorf("access: %s: empty argument list", kind)
	}
	var out [][2]string
	for _, part := range strings.Split(args, ",") {
		k, v, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok || k == "" || v == "" {
			return nil, fmt.Errorf("access: %s: want key=value, got %q", kind, part)
		}
		out = append(out, [2]string{k, v})
	}
	return out, nil
}

func parseFloatArg(kind, key, v string) (float64, error) {
	f, err := strconv.ParseFloat(v, 64)
	if err != nil || math.IsNaN(f) || math.IsInf(f, 0) {
		return 0, fmt.Errorf("access: %s: bad %s value %q", kind, key, v)
	}
	return f, nil
}

func (pat *Pattern) parseZipf(args string) error {
	pat.Kind = KindZipf
	kvs, err := keyVals(KindZipf, args)
	if err != nil {
		return err
	}
	for _, kv := range kvs {
		switch kv[0] {
		case "s":
			if pat.S, err = parseFloatArg(KindZipf, "s", kv[1]); err != nil {
				return err
			}
		case "drift":
			if pat.Drift, err = parseFloatArg(KindZipf, "drift", kv[1]); err != nil {
				return err
			}
		default:
			return fmt.Errorf("access: zipf: unknown key %q (want s, drift)", kv[0])
		}
	}
	return nil
}

func (pat *Pattern) parseBoost(args string) error {
	pat.Kind = KindBoost
	kvs, err := keyVals(KindBoost, args)
	if err != nil {
		return err
	}
	for _, kv := range kvs {
		switch kv[0] {
		case "frac":
			if pat.Frac, err = parseFloatArg(KindBoost, "frac", kv[1]); err != nil {
				return err
			}
		case "factor":
			if pat.Factor, err = parseFloatArg(KindBoost, "factor", kv[1]); err != nil {
				return err
			}
		case "drift":
			if pat.Drift, err = parseFloatArg(KindBoost, "drift", kv[1]); err != nil {
				return err
			}
		default:
			return fmt.Errorf("access: boost: unknown key %q (want frac, factor, drift)", kv[0])
		}
	}
	return nil
}

func (pat *Pattern) parseCurriculum(args string) error {
	pat.Kind = KindCurriculum
	pat.Shuffle = true
	kvs, err := keyVals(KindCurriculum, args)
	if err != nil {
		return err
	}
	for _, kv := range kvs {
		switch kv[0] {
		case "buckets":
			n, err := strconv.Atoi(kv[1])
			if err != nil {
				return fmt.Errorf("access: curriculum: bad buckets value %q", kv[1])
			}
			pat.Buckets = n
		case "shuffle":
			switch kv[1] {
			case "on":
				pat.Shuffle = true
			case "off":
				pat.Shuffle = false
			default:
				return fmt.Errorf("access: curriculum: bad shuffle value %q (want on or off)", kv[1])
			}
		default:
			return fmt.Errorf("access: curriculum: unknown key %q (want buckets, shuffle)", kv[0])
		}
	}
	return nil
}

func (pat *Pattern) parseMix(args string) error {
	pat.Kind = KindMix
	kvs, err := keyVals(KindMix, args)
	if err != nil {
		return err
	}
	for _, kv := range kvs {
		if kv[0] != "w" {
			return fmt.Errorf("access: mix: unknown key %q (want w)", kv[0])
		}
		for _, part := range strings.Split(kv[1], "/") {
			w, err := parseFloatArg(KindMix, "w", part)
			if err != nil {
				return err
			}
			pat.Weights = append(pat.Weights, w)
		}
	}
	return nil
}

func (pat *Pattern) parseElastic(args string) error {
	pat.Kind = KindElastic
	kvs, err := keyVals(KindElastic, args)
	if err != nil {
		return err
	}
	for _, kv := range kvs {
		ev, err := parseEvent(kv[0], kv[1])
		if err != nil {
			return err
		}
		switch kv[0] {
		case "join":
			pat.Joins = append(pat.Joins, ev)
		case "leave":
			pat.Leaves = append(pat.Leaves, ev)
		default:
			return fmt.Errorf("access: elastic: unknown key %q (want join, leave)", kv[0])
		}
	}
	return nil
}

// parseEvent parses "<rank>@<epoch>".
func parseEvent(key, v string) (MemberEvent, error) {
	r, e, ok := strings.Cut(v, "@")
	if !ok {
		return MemberEvent{}, fmt.Errorf("access: elastic: %s wants rank@epoch, got %q", key, v)
	}
	rank, err1 := strconv.Atoi(r)
	epoch, err2 := strconv.Atoi(e)
	if err1 != nil || err2 != nil {
		return MemberEvent{}, fmt.Errorf("access: elastic: %s wants rank@epoch, got %q", key, v)
	}
	return MemberEvent{Rank: rank, Epoch: epoch}, nil
}

// Validate checks the pattern's plan-independent constraints. Plan-dependent
// constraints (elastic ranks within N, nonempty active sets, mixture parts
// and curriculum buckets within F) are checked by Plan.Validate.
func (pat Pattern) Validate() error {
	switch pat.Kind {
	case "", KindUniform:
		return nil
	case KindZipf:
		if pat.S <= 0 {
			return fmt.Errorf("access: zipf: exponent s must be > 0, got %s", trimFloat(pat.S))
		}
	case KindBoost:
		if pat.Frac <= 0 || pat.Frac > 1 {
			return fmt.Errorf("access: boost: frac must be in (0,1], got %s", trimFloat(pat.Frac))
		}
		if pat.Factor < 1 {
			return fmt.Errorf("access: boost: factor must be >= 1, got %s", trimFloat(pat.Factor))
		}
	case KindCurriculum:
		if pat.Buckets <= 0 {
			return fmt.Errorf("access: curriculum: buckets must be > 0, got %d", pat.Buckets)
		}
	case KindMix:
		if len(pat.Weights) < 2 {
			return errors.New("access: mix: need at least 2 mixture weights")
		}
		for _, w := range pat.Weights {
			if w <= 0 {
				return fmt.Errorf("access: mix: weights must be > 0, got %s", trimFloat(w))
			}
		}
	case KindElastic:
		if len(pat.Joins)+len(pat.Leaves) == 0 {
			return errors.New("access: elastic: need at least one join or leave event")
		}
		seen := map[[2]int]bool{}
		check := func(key string, evs []MemberEvent, kind int) error {
			for _, ev := range evs {
				if ev.Rank < 0 {
					return fmt.Errorf("access: elastic: %s rank %d must be >= 0", key, ev.Rank)
				}
				if ev.Epoch < 1 {
					return fmt.Errorf("access: elastic: %s epoch %d must be >= 1 (membership changes at epoch boundaries)", key, ev.Epoch)
				}
				if seen[[2]int{kind, ev.Rank}] {
					return fmt.Errorf("access: elastic: duplicate %s event for rank %d", key, ev.Rank)
				}
				seen[[2]int{kind, ev.Rank}] = true
			}
			return nil
		}
		if err := check("join", pat.Joins, 0); err != nil {
			return err
		}
		if err := check("leave", pat.Leaves, 1); err != nil {
			return err
		}
		for _, j := range pat.Joins {
			for _, l := range pat.Leaves {
				if j.Rank == l.Rank && l.Epoch <= j.Epoch {
					return fmt.Errorf("access: elastic: rank %d leaves at epoch %d but only joins at %d", j.Rank, l.Epoch, j.Epoch)
				}
			}
		}
	default:
		return fmt.Errorf("access: unknown pattern kind %q", pat.Kind)
	}
	if pat.Drift < 0 {
		return fmt.Errorf("access: %s: drift must be >= 0, got %s", pat.Kind, trimFloat(pat.Drift))
	}
	return nil
}

// validateFor checks the plan-dependent constraints.
func (pat Pattern) validateFor(p *Plan) error {
	switch pat.Kind {
	case KindCurriculum:
		if pat.Buckets > p.F {
			return fmt.Errorf("access: curriculum: %d buckets exceed dataset size %d", pat.Buckets, p.F)
		}
	case KindMix:
		if len(pat.Weights) > p.F {
			return fmt.Errorf("access: mix: %d parts exceed dataset size %d", len(pat.Weights), p.F)
		}
	case KindElastic:
		for _, ev := range append(append([]MemberEvent(nil), pat.Joins...), pat.Leaves...) {
			if ev.Rank >= p.N {
				return fmt.Errorf("access: elastic: rank %d out of range for N=%d workers", ev.Rank, p.N)
			}
		}
		for e := 0; e < p.E; e++ {
			if len(pat.activeRanks(e, p.N)) == 0 {
				return fmt.Errorf("access: elastic: epoch %d has no active ranks", e)
			}
		}
	}
	return nil
}

// activeRanks returns epoch e's active rank set, ascending. A rank with a
// join event is inactive before its join epoch; one with a leave event is
// inactive from its leave epoch on.
func (pat Pattern) activeRanks(e, n int) []int {
	out := make([]int, 0, n)
rank:
	for r := 0; r < n; r++ {
		for _, ev := range pat.Joins {
			if ev.Rank == r && e < ev.Epoch {
				continue rank
			}
		}
		for _, ev := range pat.Leaves {
			if ev.Rank == r && e >= ev.Epoch {
				continue rank
			}
		}
		out = append(out, r)
	}
	return out
}

// uniformOrder reports whether the pattern keeps the uniform per-epoch
// permutation (elastic changes the partition, not the order).
func (pat Pattern) uniformOrder() bool { return pat.Empty() || pat.Kind == KindElastic }

// orderInto fills out (length F) with epoch e's global access order. Every
// draw comes from the plan's derived epoch generator, so the order is a pure
// function of (Seed, spec, e) and parallel per-epoch generation stays
// bit-identical to the serial loop.
func (pat Pattern) orderInto(p *Plan, e int, out []SampleID) {
	switch pat.Kind {
	case "", KindUniform, KindElastic:
		p.epochGen(e).Perm32Into(out)
	case KindZipf, KindBoost:
		pat.weightedInto(p, e, out)
	case KindCurriculum:
		pat.curriculumInto(p, e, out)
	case KindMix:
		pat.mixInto(p, e, out)
	default:
		panic(fmt.Sprintf("access: unknown pattern kind %q", pat.Kind))
	}
}

// weightedInto draws F samples with replacement from the pattern's weight
// table (Zipf ranks or the boost set), the importance-sampling generators.
// Drift rotates the weight-to-sample mapping by floor(drift*e*F) ids.
func (pat Pattern) weightedInto(p *Plan, e int, out []SampleID) {
	f := p.F
	shift := 0
	if pat.Drift > 0 {
		shift = int(pat.Drift*float64(e)*float64(f)) % f
	}
	cum := make([]float64, f)
	total := 0.0
	hot := 0
	if pat.Kind == KindBoost {
		hot = int(math.Ceil(pat.Frac * float64(f)))
	}
	for i := 0; i < f; i++ {
		// rank i carries the weight; it maps to sample (i+shift) mod f —
		// cum stays a monotone table over ranks, samples rotate under it.
		var w float64
		if pat.Kind == KindZipf {
			w = 1 / math.Pow(float64(i+1), pat.S)
		} else if i < hot {
			w = pat.Factor
		} else {
			w = 1
		}
		total += w
		cum[i] = total
	}
	g := p.epochGen(e)
	for j := range out {
		x := g.Float64() * total
		rank := sort.Search(f, func(i int) bool { return cum[i] > x })
		if rank >= f {
			rank = f - 1
		}
		out[j] = SampleID((rank + shift) % f)
	}
}

// curriculumInto emits the difficulty-ordered epoch: sample ids ascending
// (id as the difficulty proxy) in Buckets near-equal buckets, optionally
// permuted within each bucket per epoch.
func (pat Pattern) curriculumInto(p *Plan, e int, out []SampleID) {
	for i := range out {
		out[i] = SampleID(i)
	}
	if !pat.Shuffle {
		return
	}
	g := p.epochGen(e)
	f, b := p.F, pat.Buckets
	for k := 0; k < b; k++ {
		shuffle32(g, out[k*f/b:(k+1)*f/b])
	}
}

// mixInto emits the merged multi-dataset epoch: the K contiguous near-equal
// parts of [0,F) are independently permuted (one derived sub-generator per
// part) and interleaved by largest-remainder weighted credit, so each part's
// samples appear exactly once per epoch at the declared mixture rate.
func (pat Pattern) mixInto(p *Plan, e int, out []SampleID) {
	f, k := p.F, len(pat.Weights)
	g := p.epochGen(e)
	parts := make([][]SampleID, k)
	for i := range parts {
		lo, hi := i*f/k, (i+1)*f/k
		part := make([]SampleID, hi-lo)
		for j := range part {
			part[j] = SampleID(lo + j)
		}
		shuffle32(g.Derive(uint64(i)+1), part)
		parts[i] = part
	}
	credits := make([]float64, k)
	idx := make([]int, k)
	for n := 0; n < f; n++ {
		// Renormalise accrual over the non-exhausted parts so late samples
		// of a light part still interleave instead of bunching at the end.
		total := 0.0
		for i := range parts {
			if idx[i] < len(parts[i]) {
				total += pat.Weights[i]
			}
		}
		best := -1
		for i := range parts {
			if idx[i] >= len(parts[i]) {
				continue
			}
			credits[i] += pat.Weights[i] / total
			if best < 0 || credits[i] > credits[best] {
				best = i // strict > keeps ties on the lowest index
			}
		}
		out[n] = parts[best][idx[best]]
		idx[best]++
		credits[best]--
	}
}

// MixPart returns the mixture part owning a sample id: part k of K covers
// the contiguous id range [k*F/K, (k+1)*F/K). It is the per-dataset
// accounting rule the mixture conservation law checks against.
func MixPart(id SampleID, f, k int) int {
	// Inverse of the near-equal split: binary-search-free since parts are
	// contiguous; candidate from proportional position, corrected ±1.
	p := int(int64(id) * int64(k) / int64(f))
	for p+1 < k && int(id) >= (p+1)*f/k {
		p++
	}
	for p > 0 && int(id) < p*f/k {
		p--
	}
	return p
}

// shuffle32 Fisher-Yates-shuffles a SampleID slice in place with g's draws.
func shuffle32(g *prng.Generator, s []SampleID) {
	for i := len(s) - 1; i > 0; i-- {
		j := g.Intn(i + 1)
		s[i], s[j] = s[j], s[i]
	}
}
