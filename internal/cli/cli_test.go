package cli

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"repro/internal/access"
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

// TestNoSurvivorExitsOne: a crash schedule that leaves no rank alive is a
// runtime error of both engines' commands, reported with the chaos
// package's error text, in bounded time (redistributing over no survivors
// never ends).
func TestNoSurvivorExitsOne(t *testing.T) {
	want := chaos.ErrNoSurvivor.Error()
	for _, args := range [][]string{
		{"sim", "-scenario", "fig8a", "-scale", "0.005", "-chaos", "crash:0@1,crash:1@1,crash:2@1,crash:3@1"},
		{"run", "-workers", "2", "-epochs", "3", "-samples", "64", "-chaos", "crash:0@1,crash:1@2"},
	} {
		type result struct {
			code   int
			stderr string
		}
		done := make(chan result, 1)
		go func() {
			code, _, stderr := runMain(args...)
			done <- result{code, stderr}
		}()
		select {
		case r := <-done:
			if r.code != ExitError || !strings.Contains(r.stderr, want) {
				t.Errorf("Main(%q) = %d with stderr %q, want %d naming %q", args, r.code, r.stderr, ExitError, want)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("Main(%q) did not return within 5 s", args)
		}
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

// TestDryRunRunsOneKernelPerScenario: --dry-run prints the plan analysis
// and runs the simulator's NoPFS kernel once per explained scenario, and no
// sweep cell.
func TestDryRunRunsOneKernelPerScenario(t *testing.T) {
	cases := []struct {
		name    string
		args    []string
		kernels int64
		want    []string
	}{
		{
			name:    "sim scenario",
			args:    []string{"sim", "-scenario", "fig8a", "-dry-run"},
			kernels: 1,
			want:    []string{"dry run: grid \"fig8a\"", "placement (NoPFS policy, worker 0):", "simulated NoPFS run (worker 0):"},
		},
		{
			name:    "sim sweep",
			args:    []string{"sim", "-sweep", "-scale", "0.005", "-dry-run"},
			kernels: 29,
			want:    []string{"dry run: grid", ", stall "},
		},
		{
			name:    "train",
			args:    []string{"train", "-fig", "10", "-scale", "0.02", "-gpus", "32", "-dry-run"},
			kernels: 2,
			want:    []string{"dry run: grid \"fig10-pizdaint\"", "dry run: grid \"fig10-lassen\"", "placement (NoPFS policy, worker 0):"},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			before := isim.SimulateCount()
			code, out, stderr := runMain(tc.args...)
			if code != ExitOK {
				t.Fatalf("exit %d, want 0 (stderr: %s)", code, stderr)
			}
			got := isim.SimulateCount() - before
			if scenarios := int64(strings.Count(out, "\n== ")); got != tc.kernels || got != scenarios {
				t.Fatalf("dry run executed %d kernels for %d explained scenarios, want %d", got, scenarios, tc.kernels)
			}
			for _, want := range tc.want {
				if !strings.Contains(out, want) {
					t.Errorf("dry-run output missing %q:\n%s", want, out)
				}
			}
		})
	}
}

// dryRunLocation and dryRunTimes match the dry-run's per-location line and
// its time line; explainedScenario matches a scenario header.
var (
	dryRunLocation    = regexp.MustCompile(`^\s+(pfs|remote|local)\s+([0-9.]+)%\s+([0-9]+) fetches\s+([0-9.]+)s$`)
	dryRunTimes       = regexp.MustCompile(`^\s+setup ([0-9.]+)s, stall ([0-9.]+)s, exec ([0-9.]+)s$`)
	explainedScenario = regexp.MustCompile(`^== ([^: ]+)`)
)

// dryRunNumbers parses a dry-run transcript into each explained scenario's
// printed NoPFS figures, keyed "exec", "stall", "setup", "<loc>_s" (seconds)
// and "<loc>_pct" (share of fetches), exactly as printed.
func dryRunNumbers(t *testing.T, out string) map[string]map[string]string {
	t.Helper()
	got := map[string]map[string]string{}
	var cur map[string]string
	for _, line := range strings.Split(out, "\n") {
		if m := explainedScenario.FindStringSubmatch(line); m != nil {
			cur = map[string]string{}
			got[m[1]] = cur
		} else if m := dryRunLocation.FindStringSubmatch(line); m != nil && cur != nil {
			cur[m[1]+"_pct"], cur[m[1]+"_s"] = m[2], m[4]
		} else if m := dryRunTimes.FindStringSubmatch(line); m != nil && cur != nil {
			cur["setup"], cur["stall"], cur["exec"] = m[1], m[2], m[3]
		}
	}
	return got
}

// nopfsRows decodes the JSON report(s) of a run and returns the NoPFS cell
// of every scenario.
func nopfsRows(t *testing.T, out string) map[string]map[string]float64 {
	t.Helper()
	rows := map[string]map[string]float64{}
	dec := json.NewDecoder(strings.NewReader(out))
	for dec.More() {
		var rep struct {
			Cells []struct {
				Scenario, Policy string
				Outcome          struct{ Values map[string]float64 }
			}
		}
		if err := dec.Decode(&rep); err != nil {
			t.Fatal(err)
		}
		for _, c := range rep.Cells {
			if c.Policy == "NoPFS" {
				rows[c.Scenario] = c.Outcome.Values
			}
		}
	}
	return rows
}

// TestDryRunMatchesRun: the dry-run's NoPFS figures are the NoPFS row of the
// same command run for real, to the last printed digit — exec, stall and
// per-location seconds on every Fig. 8 panel; exec, stall and the fetch mix
// on Fig. 10, whose report carries shares instead of seconds.
func TestDryRunMatchesRun(t *testing.T) {
	for _, tc := range []struct {
		name      string
		args      []string
		scenarios int
		// fields maps a dry-run key to the report metric it prints: seconds
		// to three decimals, a "_pct" share as a percentage to one.
		fields map[string]string
	}{
		{"fig8", []string{"sim", "-all"}, 6, map[string]string{
			"exec": "exec_s", "stall": "stall_s", "setup": "setup_s",
			"pfs_s": "pfs_s", "remote_s": "remote_s", "local_s": "local_s",
		}},
		{"fig10", []string{"train", "-fig", "10"}, 10, map[string]string{
			"exec": "exec_s", "stall": "stall_s",
			"pfs_pct": "pfs_frac", "remote_pct": "remote_frac", "local_pct": "local_frac",
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			code, dry, stderr := runMain(append(tc.args, "-dry-run")...)
			if code != ExitOK {
				t.Fatalf("dry run: exit %d (stderr: %s)", code, stderr)
			}
			code, run, stderr := runMain(append(tc.args, "-format", "json")...)
			if code != ExitOK {
				t.Fatalf("run: exit %d (stderr: %s)", code, stderr)
			}
			explained, rows := dryRunNumbers(t, dry), nopfsRows(t, run)
			if len(explained) != tc.scenarios || len(rows) != tc.scenarios {
				t.Fatalf("dry run explained %d scenarios, the run reported NoPFS on %d, want %d", len(explained), len(rows), tc.scenarios)
			}
			for id, printed := range explained {
				row, ok := rows[id]
				if !ok {
					t.Errorf("%s: explained but not in the run's report", id)
					continue
				}
				for key, metric := range tc.fields {
					want := fmt.Sprintf("%.3f", row[metric])
					if strings.HasSuffix(key, "_pct") {
						want = fmt.Sprintf("%.1f", 100*row[metric])
					}
					if printed[key] != want {
						t.Errorf("%s: dry run prints %s %q, the run's NoPFS row has %q", id, key, printed[key], want)
					}
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

// TestAccessShufflesOncePerEpoch: one `nopfs access` report generates each
// epoch's shuffle once — its histogram, heavy-hitter count and Lemma 1 check
// all read one Frequencies pass.
func TestAccessShufflesOncePerEpoch(t *testing.T) {
	before := access.ShuffleCount()
	if code, _, stderr := runMain("access", "-f", "2000", "-n", "16", "-e", "90"); code != ExitOK {
		t.Fatalf("access exited %d: %s", code, stderr)
	}
	if n := access.ShuffleCount() - before; n != 90 {
		t.Errorf("a 90-epoch access report generated %d shuffles, want 90", n)
	}
}
