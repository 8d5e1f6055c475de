package cli

import (
	"context"
	"flag"
	"fmt"
	"io"

	"repro/internal/access"
)

// accessOptions holds the access command's parsed flags.
type accessOptions struct {
	F     int
	N     int
	E     int
	Seed  uint64
	Delta float64
	CommonFlags
}

// accessFlags builds the access command's flag set. -seed carries the shared
// wording (the command's shuffle seed is the training PRNG seed — the drift
// fix); there is no grid to dry-run, so CommonFlags registers without it.
func accessFlags(prog string) (*flag.FlagSet, *accessOptions) {
	fs := flag.NewFlagSet(prog, flag.ContinueOnError)
	o := &accessOptions{}
	fs.IntVar(&o.F, "f", 100000, "dataset size F (paper Fig. 3 uses 1,281,167)")
	fs.IntVar(&o.N, "n", 16, "workers N")
	fs.IntVar(&o.E, "e", 90, "epochs E")
	fs.Uint64Var(&o.Seed, "seed", 42, seedHelp)
	fs.Float64Var(&o.Delta, "delta", 0.8, "heavy-hitter threshold factor δ")
	o.CommonFlags.Register(fs, false)
	return fs, o
}

// RunAccess is the `nopfs access` command: the access-pattern analysis of
// paper Sec. 3 — the per-worker access-frequency distribution (Fig. 3), the
// analytic binomial heavy-hitter estimate versus the measured count, and a
// Lemma 1 check on the generated plan.
func RunAccess(prog string, args []string, stdout, stderr io.Writer) int {
	fs, o := accessFlags(prog)
	return execute(prog, fs, args, stderr, &o.Config, func(ctx context.Context) error {
		// Bad plan parameters are a usage problem (exit 2), where the legacy
		// binary conflated them with runtime failures (exit 1).
		plan := &access.Plan{Seed: o.Seed, F: o.F, N: o.N, E: o.E, BatchPerWorker: 4, DropLast: true}
		if err := plan.Validate(); err != nil {
			return usageError{err: err}
		}

		fmt.Fprintf(stdout, "Fig. 3: access frequency for worker 0 of %d, %d epochs, F=%d\n\n", o.N, o.E, o.F)
		freq := plan.WorkerFrequencies(0)
		hist := access.FrequencyHistogram(freq)
		fmt.Fprint(stdout, hist.String())

		// The analysis stages are pure compute; cancellation is honoured
		// between them (execute maps the context error to exit 130).
		if err := ctx.Err(); err != nil {
			return err
		}
		r := access.HeavyHitters(plan, 0, o.Delta)
		fmt.Fprintf(stdout, "\nmean accesses per worker        mu = E/N = %.3f\n", r.Mu)
		fmt.Fprintf(stdout, "heavy hitters: accessed more than %d times ((1+%.1f)*mu)\n", r.Threshold, o.Delta)
		fmt.Fprintf(stdout, "  analytic  F*P(X > %d), X~Binomial(%d, 1/%d): %.0f\n", r.Threshold, o.E, o.N, r.Analytic)
		fmt.Fprintf(stdout, "  measured from the actual shuffles:           %d\n", r.Measured)
		fmt.Fprintf(stdout, "  (paper, at F=1,281,167: analytic 31,635 vs measured 31,863)\n")

		if err := ctx.Err(); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "\nLemma 1 verification over all %d samples:\n", o.F)
		freqs := plan.Frequencies()
		for _, d := range []float64{0.25, 0.5, 1.0} {
			v := access.Lemma1Violations(freqs, o.E, d)
			fmt.Fprintf(stdout, "  delta=%.2f: %d violations\n", d, v)
		}
		if k, tot := access.TotalAccessInvariant(plan, freqs); k >= 0 {
			fmt.Fprintf(stdout, "  INVARIANT BROKEN: sample %d accessed %d times\n", k, tot)
			return fmt.Errorf("total-access invariant broken at sample %d", k)
		}
		fmt.Fprintf(stdout, "  every sample accessed exactly once per epoch: ok\n")
		return nil
	})
}
