package cli

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/chaos"
	isim "repro/internal/sim"
	"repro/nopfs"
)

// runMain invokes Main with captured streams.
func runMain(args ...string) (code int, stdout, stderr string) {
	var out, errw bytes.Buffer
	code = Main(args, &out, &errw)
	return code, out.String(), errw.String()
}

// TestExitCodes pins the one exit-code contract across every command: 0
// success, 1 runtime error, 2 usage error (with usage on stderr).
func TestExitCodes(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want int
	}{
		{"no subcommand", nil, ExitUsage},
		{"unknown subcommand", []string{"bogus"}, ExitUsage},
		{"help", []string{"help"}, ExitOK},
		{"sim no mode", []string{"sim"}, ExitUsage},
		{"sim unknown scenario", []string{"sim", "-scenario", "bogus"}, ExitUsage},
		{"sim bad format", []string{"sim", "-all", "-format", "xml"}, ExitUsage},
		{"sim bad chaos", []string{"sim", "-all", "-chaos", "nonsense:spec"}, ExitUsage},
		{"sim bad access", []string{"sim", "-all", "-access", "nonsense:spec"}, ExitUsage},
		{"sim bad flag", []string{"sim", "-no-such-flag"}, ExitUsage},
		{"sim table1", []string{"sim", "-table1"}, ExitOK},
		{"sim runtime error", []string{"sim", "-scenario", "fig8a", "-scale", "0.002"}, ExitError},
		// A failing cell exits 1 on the streamed structured formats too, with
		// the truncated document left on stdout.
		{"sim runtime error json", []string{"sim", "-scenario", "fig8a", "-scale", "0.002", "-format", "json"}, ExitError},
		// The encoders always stream; there is no knob to ask for it.
		{"sim stream flag", []string{"sim", "-all", "-stream"}, ExitUsage},
		{"train stream flag", []string{"train", "-fig", "10", "-stream"}, ExitUsage},
		{"train unknown fig", []string{"train", "-fig", "99"}, ExitUsage},
		{"train bad gpus", []string{"train", "-gpus", "x"}, ExitUsage},
		{"train gpus match nothing", []string{"train", "-fig", "10", "-gpus", "7"}, ExitUsage},
		{"access bad plan", []string{"access", "-f", "-1"}, ExitUsage},
		{"access ok", []string{"access", "-f", "2000", "-n", "4", "-e", "3"}, ExitOK},
		{"run bad workers", []string{"run", "-workers", "0"}, ExitUsage},
		{"run bad chaos", []string{"run", "-chaos", "nonsense:spec"}, ExitUsage},
		{"run bad access", []string{"run", "-access", "nonsense:spec"}, ExitUsage},
		{"run bad resilience", []string{"run", "-resilience", "nonsense:spec"}, ExitUsage},
		// The lint command joins the same contract: 0 on a clean tree, 1
		// when the suite finds violations, 2 on a bad flag or pattern. The
		// fixtures under internal/analysis/testdata provide a known-clean
		// and a known-dirty package (cli tests run with cwd internal/cli).
		{"lint clean", []string{"lint", "../analysis/testdata/src/internal/clean"}, ExitOK},
		{"lint findings", []string{"lint", "../analysis/testdata/src/internal/exitlib"}, ExitError},
		{"lint bad flag", []string{"lint", "-no-such-flag"}, ExitUsage},
		{"lint bad pattern", []string{"lint", "./no/such/dir"}, ExitUsage},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			code, _, stderr := runMain(tc.args...)
			if code != tc.want {
				t.Fatalf("Main(%q) = %d, want %d (stderr: %s)", tc.args, code, tc.want, stderr)
			}
			if tc.want == ExitUsage && !strings.Contains(stderr, "usage") && !strings.Contains(stderr, "Usage") {
				t.Errorf("Main(%q): usage exit without usage text on stderr:\n%s", tc.args, stderr)
			}
		})
	}
}

// drift is one permitted cross-command flag difference.
type drift struct{ flag, command string }

// TestFlagGroupsConsistent asserts that a flag name shared by several
// subcommands means the same thing everywhere — identical usage text and
// default — except for the explicitly intended differences below. This is
// the regression net for the copy-paste drift the shared groups replaced.
func TestFlagGroupsConsistent(t *testing.T) {
	// The intended deviations; anything else is drift.
	allowUsage := map[drift]bool{
		{"seed", "train"}: true, // overrides the figure's preset seed
		{"chaos", "run"}:  true, // injects into the live run, no grid axis
		{"access", "run"}: true, // shapes the live run, no grid axis
	}
	allowDefault := map[drift]bool{
		{"scale", "train"}: true, // figures stay faithful at 0.1, sim panels at 0.02
		{"seed", "train"}:  true, // 0 = keep the figure's preset
	}

	type info struct{ usage, def, command string }
	first := map[string]info{}
	for _, c := range Commands() {
		fs := c.Flags("nopfs " + c.Name)
		fs.VisitAll(func(f *flag.Flag) {
			prev, seen := first[f.Name]
			if !seen {
				first[f.Name] = info{usage: f.Usage, def: f.DefValue, command: c.Name}
				return
			}
			if f.Usage != prev.usage &&
				!allowUsage[drift{f.Name, c.Name}] && !allowUsage[drift{f.Name, prev.command}] {
				t.Errorf("flag -%s usage drifted between %s and %s:\n  %q\n  %q",
					f.Name, prev.command, c.Name, prev.usage, f.Usage)
			}
			if f.DefValue != prev.def &&
				!allowDefault[drift{f.Name, c.Name}] && !allowDefault[drift{f.Name, prev.command}] {
				t.Errorf("flag -%s default drifted between %s and %s: %q vs %q",
					f.Name, prev.command, c.Name, prev.def, f.DefValue)
			}
		})
	}
	// The groups must actually be shared: every engine flag appears on both
	// grid commands.
	for _, name := range []string{"parallel", "replicas", "format", "chaos", "access", "config"} {
		for _, cmd := range Commands() {
			if cmd.Name != "sim" && cmd.Name != "train" {
				continue
			}
			if cmd.Flags("nopfs "+cmd.Name).Lookup(name) == nil {
				t.Errorf("command %s is missing shared flag -%s", cmd.Name, name)
			}
		}
	}
}

// TestConfigFile covers the -config file path: defaults applied, command
// line winning, comments skipped, and unknown or malformed lines rejected
// as usage errors.
func TestConfigFile(t *testing.T) {
	dir := t.TempDir()
	write := func(name, content string) string {
		t.Helper()
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}

	t.Run("defaults and precedence", func(t *testing.T) {
		path := write("good.conf", "# sweep defaults\nreplicas = 3\nformat=json\n\n")
		fs, o := simFlags("nopfs sim")
		if err := fs.Parse([]string{"-replicas", "2"}); err != nil {
			t.Fatal(err)
		}
		if err := applyConfigFile(fs, path); err != nil {
			t.Fatal(err)
		}
		if o.Replicas != 2 {
			t.Errorf("replicas = %d, want 2 (command line must win)", o.Replicas)
		}
		if o.Format != "json" {
			t.Errorf("format = %q, want %q (config default must apply)", o.Format, "json")
		}
	})

	t.Run("unknown flag", func(t *testing.T) {
		path := write("unknown.conf", "no-such-flag = 1\n")
		fs, _ := simFlags("nopfs sim")
		if err := fs.Parse(nil); err != nil {
			t.Fatal(err)
		}
		if err := applyConfigFile(fs, path); err == nil || !isUsage(err) {
			t.Fatalf("unknown config flag: err = %v, want usage error", err)
		}
	})

	t.Run("removed stream flag", func(t *testing.T) {
		path := write("stream.conf", "stream = true\n")
		for _, cmd := range []string{"sim", "train"} {
			if code, _, _ := runMain(cmd, "-config", path); code != ExitUsage {
				t.Errorf("%s with stream = true in -config: exit %d, want %d", cmd, code, ExitUsage)
			}
		}
	})

	t.Run("malformed line", func(t *testing.T) {
		path := write("malformed.conf", "replicas\n")
		fs, _ := simFlags("nopfs sim")
		if err := fs.Parse(nil); err != nil {
			t.Fatal(err)
		}
		if err := applyConfigFile(fs, path); err == nil || !isUsage(err) {
			t.Fatalf("malformed config line: err = %v, want usage error", err)
		}
	})

	t.Run("missing file is a usage exit", func(t *testing.T) {
		code, _, _ := runMain("sim", "-table1", "-config", filepath.Join(dir, "absent.conf"))
		if code != ExitUsage {
			t.Fatalf("missing -config file: exit %d, want %d", code, ExitUsage)
		}
	})

	t.Run("end to end", func(t *testing.T) {
		path := write("e2e.conf", "scenario = fig8a\nscale = 0.01\n")
		code, out, stderr := runMain("sim", "-config", path)
		if code != ExitOK {
			t.Fatalf("exit %d, want 0 (stderr: %s)", code, stderr)
		}
		if !strings.Contains(out, "fig8a") {
			t.Errorf("config-selected scenario missing from output:\n%s", out)
		}
	})
}

// TestDryRunExecutesNoCells is the tentpole's acceptance check: --dry-run
// prints the full plan analysis without running a single simulation cell.
func TestDryRunExecutesNoCells(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want []string
	}{
		{
			name: "sim scenario",
			args: []string{"sim", "-scenario", "fig8a", "-dry-run"},
			want: []string{"dry run: grid \"fig8a\"", "placement (NoPFS policy, worker 0):", "predicted fetch mix"},
		},
		{
			name: "sim sweep",
			args: []string{"sim", "-sweep", "-scale", "0.005", "-dry-run"},
			want: []string{"dry run: grid", "predicted time:"},
		},
		{
			name: "train",
			args: []string{"train", "-fig", "10", "-scale", "0.02", "-gpus", "32", "-dry-run"},
			want: []string{"dry run: grid \"fig10-pizdaint\"", "dry run: grid \"fig10-lassen\"", "placement (NoPFS policy, worker 0):"},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			before := isim.SimulateCount()
			code, out, stderr := runMain(tc.args...)
			if code != ExitOK {
				t.Fatalf("exit %d, want 0 (stderr: %s)", code, stderr)
			}
			if got := isim.SimulateCount() - before; got != 0 {
				t.Fatalf("dry run executed %d simulation cells, want 0", got)
			}
			for _, want := range tc.want {
				if !strings.Contains(out, want) {
					t.Errorf("dry-run output missing %q:\n%s", want, out)
				}
			}
		})
	}
}

// TestRunInstallsMetricsOnlyOnRequest: `nopfs run` puts the cluster on the
// instrumented fetch path only when -metrics-out will print the series; a
// fetch trace alone needs no registry.
func TestRunInstallsMetricsOnlyOnRequest(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want bool
	}{
		{nil, false},
		{[]string{"-trace-fetches", "trace.txt"}, false},
		{[]string{"-metrics-out", "-"}, true},
		{[]string{"-metrics-out", "m.prom", "-trace-fetches", "trace.txt"}, true},
	} {
		fs, o := runFlags("nopfs run")
		if err := fs.Parse(tc.args); err != nil {
			t.Fatal(err)
		}
		opts := o.liveOptions(chaos.Profile{}, nopfs.ResiliencePolicy{})
		if got := opts.Metrics != nil; got != tc.want {
			t.Errorf("run %v: metrics registry installed = %v, want %v", tc.args, got, tc.want)
		}
	}
}
