// Package cli is the implementation behind the `nopfs` subcommand binary
// (cmd/nopfs). Every command body is a pure function of (program name, args,
// stdout, stderr) returning an exit code, so tests drive it in process.
//
// One exit-code contract across every command:
//
//	0   success
//	1   runtime error (a run started and failed)
//	2   usage error (bad flag, bad flag value, unknown scenario/figure/
//	    subcommand, no mode selected) — usage is printed to stderr
//	130 interrupted (SIGINT/SIGTERM canceled the run context)
package cli

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"
)

// Exit codes shared by every command.
const (
	ExitOK        = 0
	ExitError     = 1
	ExitUsage     = 2
	ExitInterrupt = 130
)

// Command is one `nopfs` subcommand.
type Command struct {
	// Name is the subcommand token ("sim").
	Name string
	// Summary is the one-line usage description.
	Summary string
	// Run executes the command. prog is the program name used in error
	// messages ("nopfs sim").
	Run func(prog string, args []string, stdout, stderr io.Writer) int
	// Flags returns the command's full flag set (for usage rendering and
	// the cross-command drift test); it must register exactly the flags Run
	// parses.
	Flags func(prog string) *flag.FlagSet
}

// Commands returns every subcommand in usage order.
func Commands() []Command {
	return []Command{
		{
			Name:    "sim",
			Summary: "run the I/O performance simulator (Fig. 8/9, ablation, Table 1)",
			Run:     RunSim,
			Flags:   func(prog string) *flag.FlagSet { fs, _ := simFlags(prog); return fs },
		},
		{
			Name:    "train",
			Summary: "reproduce the real-system evaluation figures (Figs. 10-16)",
			Run:     RunTrain,
			Flags:   func(prog string) *flag.FlagSet { fs, _ := trainFlags(prog); return fs },
		},
		{
			Name:    "access",
			Summary: "analyse the clairvoyant access pattern (Fig. 3, Lemma 1)",
			Run:     RunAccess,
			Flags:   func(prog string) *flag.FlagSet { fs, _ := accessFlags(prog); return fs },
		},
		{
			Name:    "run",
			Summary: "execute a live in-process training cluster with metrics",
			Run:     RunLive,
			Flags:   func(prog string) *flag.FlagSet { fs, _ := runFlags(prog); return fs },
		},
		{
			Name:    "lint",
			Summary: "run the repo's static-analysis suite (determinism, ctxfirst, goroutine, metricnames, exitcodes)",
			Run:     RunLint,
			Flags:   func(prog string) *flag.FlagSet { fs, _ := lintFlags(prog); return fs },
		},
	}
}

// Main dispatches `nopfs <subcommand> [flags]` and returns the exit code.
func Main(args []string, stdout, stderr io.Writer) int {
	if len(args) == 0 {
		printUsage(stderr)
		return ExitUsage
	}
	switch args[0] {
	case "help", "-h", "-help", "--help":
		printUsage(stdout)
		return ExitOK
	}
	for _, c := range Commands() {
		if c.Name == args[0] {
			return c.Run("nopfs "+c.Name, args[1:], stdout, stderr)
		}
	}
	fmt.Fprintf(stderr, "nopfs: unknown command %q\n\n", args[0])
	printUsage(stderr)
	return ExitUsage
}

// printUsage renders the subcommand tree.
func printUsage(w io.Writer) {
	fmt.Fprintln(w, "usage: nopfs <command> [flags]")
	fmt.Fprintln(w)
	fmt.Fprintln(w, "commands:")
	for _, c := range Commands() {
		fmt.Fprintf(w, "  %-8s %s\n", c.Name, c.Summary)
	}
	fmt.Fprintln(w)
	fmt.Fprintln(w, "run 'nopfs <command> -h' for the command's flags")
}

// usageError marks an error that should print usage and exit ExitUsage.
type usageError struct{ err error }

func (u usageError) Error() string { return u.err.Error() }
func (u usageError) Unwrap() error { return u.err }

// usagef builds a usage error.
func usagef(format string, a ...any) error {
	return usageError{err: fmt.Errorf(format, a...)}
}

// isUsage reports whether err is (or wraps) a usage error.
func isUsage(err error) bool {
	var u usageError
	return errors.As(err, &u)
}

// execute is the shared command shell: it parses flags (applying -config
// file defaults when the options carry a config path), installs the
// interrupt context, runs the body, and maps errors onto the exit-code
// contract.
func execute(prog string, fs *flag.FlagSet, args []string, stderr io.Writer,
	configPath *string, body func(ctx context.Context) error) int {
	fs.SetOutput(stderr)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return ExitOK
		}
		return ExitUsage // flag package already printed the error and usage
	}
	if configPath != nil && *configPath != "" {
		if err := applyConfigFile(fs, *configPath); err != nil {
			fmt.Fprintf(stderr, "%s: %v\n", prog, err)
			fs.Usage()
			return ExitUsage
		}
	}
	// Ctrl-C / SIGTERM cancels the run context: in-flight work aborts
	// promptly instead of running to completion.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	err := body(ctx)
	switch {
	case err == nil:
		return ExitOK
	case errors.Is(err, context.Canceled) || ctx.Err() != nil && errors.Is(err, ctx.Err()):
		fmt.Fprintf(stderr, "%s: interrupted\n", prog)
		return ExitInterrupt
	case isUsage(err):
		fmt.Fprintf(stderr, "%s: %v\n", prog, err)
		fs.Usage()
		return ExitUsage
	default:
		fmt.Fprintf(stderr, "%s: %v\n", prog, err)
		return ExitError
	}
}
