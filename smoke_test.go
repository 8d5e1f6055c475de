package repro_test

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
)

// Smoke coverage for the cmd/ and examples/ trees: every main package must
// build, and the fast CLIs must run end to end with exit 0 and non-empty
// output. (Before these tests, `go test ./...` reported "[no test files]"
// for all six main packages.)

// smokeBinDir records the shared build directory for TestMain cleanup.
var smokeBinDir string

// smokeBin builds every main package exactly once per test binary and
// returns the directory holding the executables.
var smokeBin = sync.OnceValues(func() (string, error) {
	dir, err := os.MkdirTemp("", "repro-smoke-*")
	if err != nil {
		return "", err
	}
	smokeBinDir = dir
	cmd := exec.Command("go", "build", "-o", dir+string(os.PathSeparator),
		"./cmd/...", "./examples/...")
	out, err := cmd.CombinedOutput()
	if err != nil {
		return "", &buildError{out: out, err: err}
	}
	return dir, nil
})

// TestMain removes the shared build directory after the package's tests.
func TestMain(m *testing.M) {
	code := m.Run()
	if smokeBinDir != "" {
		os.RemoveAll(smokeBinDir)
	}
	os.Exit(code)
}

type buildError struct {
	out []byte
	err error
}

func (e *buildError) Error() string {
	return e.err.Error() + "\n" + string(e.out)
}

// binary returns the path of one built executable, building all of them on
// first use.
func binary(t *testing.T, name string) string {
	t.Helper()
	dir, err := smokeBin()
	if err != nil {
		t.Fatalf("building main packages: %v", err)
	}
	p := filepath.Join(dir, name)
	if runtime.GOOS == "windows" {
		p += ".exe"
	}
	if _, err := os.Stat(p); err != nil {
		t.Fatalf("main package %s did not produce a binary: %v", name, err)
	}
	return p
}

// runBinary executes a built CLI and returns its stdout, failing on non-zero
// exit.
func runBinary(t *testing.T, name string, args ...string) string {
	t.Helper()
	var stdout, stderr bytes.Buffer
	cmd := exec.Command(binary(t, name), args...)
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		t.Fatalf("%s %s: %v\nstderr:\n%s", name, strings.Join(args, " "), err, stderr.String())
	}
	return stdout.String()
}

// TestSmokeBuildAllMainPackages asserts every cmd/ and examples/ main
// builds and yields an executable.
func TestSmokeBuildAllMainPackages(t *testing.T) {
	t.Parallel()
	for _, name := range []string{
		"nopfs",
		"chaos", "cosmoflow", "imagenet", "quickstart", "sysdesign",
	} {
		binary(t, name)
	}
}

// TestSmokeNopfsDryRun runs both --dry-run paths end to end: fast, exit 0,
// and carrying the plan analysis and the simulated NoPFS run.
func TestSmokeNopfsDryRun(t *testing.T) {
	t.Parallel()
	sim := runBinary(t, "nopfs", "sim", "-scenario", "fig8a", "-scale", "0.005", "-dry-run")
	for _, want := range []string{"dry run: grid", "placement (NoPFS policy, worker 0):", "simulated NoPFS run (worker 0):"} {
		if !strings.Contains(sim, want) {
			t.Errorf("nopfs sim -dry-run output missing %q:\n%s", want, sim)
		}
	}
	train := runBinary(t, "nopfs", "train", "-fig", "10", "-scale", "0.02", "-gpus", "32", "-dry-run")
	for _, want := range []string{"dry run: grid \"fig10-pizdaint\"", ", stall "} {
		if !strings.Contains(train, want) {
			t.Errorf("nopfs train -dry-run output missing %q:\n%s", want, train)
		}
	}
}

// TestSmokeNopfsRunMetrics exercises the live-cluster subcommand with the
// Prometheus dump on stdout: the observability acceptance check through a
// real process.
func TestSmokeNopfsRunMetrics(t *testing.T) {
	t.Parallel()
	out := runBinary(t, "nopfs", "run",
		"-workers", "2", "-epochs", "2", "-samples", "128", "-sample-kb", "8",
		"-pfs-mbps", "4", "-ram-mb", "1", "-metrics-out", "-")
	for _, want := range []string{
		"rank  delivered",
		"nopfs_fetches_total{",
		"nopfs_tier_hits_total{",
		"nopfs_stall_seconds_total{",
		`nopfs_limiter_wait_seconds_total{limiter="pfs"}`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("nopfs run output missing %q:\n%s", want, out)
		}
	}
}

// TestSmokeAccessCLI runs the access-pattern analysis at tiny scale.
func TestSmokeAccessCLI(t *testing.T) {
	t.Parallel()
	out := runBinary(t, "nopfs", "access", "-f", "2000", "-n", "4", "-e", "6")
	if len(out) == 0 {
		t.Fatal("nopfs access produced no output")
	}
	for _, want := range []string{"heavy hitters", "every sample accessed exactly once per epoch"} {
		if !strings.Contains(out, want) {
			t.Errorf("nopfs access output missing %q:\n%s", want, out)
		}
	}
}

// TestSmokeSimCLI runs one Fig. 8 panel at tiny scale in every format.
func TestSmokeSimCLI(t *testing.T) {
	t.Parallel()
	text := runBinary(t, "nopfs", "sim", "-scenario", "fig8a", "-scale", "0.005")
	if !strings.Contains(text, "NoPFS") || !strings.Contains(text, "fig8a") {
		t.Errorf("nopfs sim text output unexpected:\n%s", text)
	}
	jsonOut := runBinary(t, "nopfs", "sim", "-scenario", "fig8a", "-scale", "0.005", "-format", "json")
	if !strings.Contains(jsonOut, `"grid": "fig8a"`) {
		t.Errorf("nopfs sim json output unexpected:\n%.400s", jsonOut)
	}
	csvOut := runBinary(t, "nopfs", "sim", "-scenario", "fig8a", "-scale", "0.005", "-format", "csv")
	if !strings.HasPrefix(csvOut, "grid,scenario,policy") {
		t.Errorf("nopfs sim csv output unexpected:\n%.200s", csvOut)
	}
}

// TestSmokeSimCLIChaosDeterministic runs one panel under a fault profile at
// pool widths 1 and 8: chaos injection is seed-derived and stateless, so
// faulted reports must stay bit-identical across parallelism, and the
// profile column must appear in the encoding.
func TestSmokeSimCLIChaosDeterministic(t *testing.T) {
	t.Parallel()
	args := []string{"sim", "-scenario", "fig8a", "-scale", "0.005", "-chaos", "meltdown", "-replicas", "2", "-format", "json"}
	serial := runBinary(t, "nopfs", append(args, "-parallel", "1")...)
	wide := runBinary(t, "nopfs", append(args, "-parallel", "8")...)
	if serial != wide {
		t.Error("chaos-injected nopfs sim output differs between -parallel 1 and -parallel 8")
	}
	for _, want := range []string{`"profile": "meltdown"`, `"profile": "clean"`} {
		if !strings.Contains(serial, want) {
			t.Errorf("chaos report missing %s", want)
		}
	}
}

// TestSmokeTrainCLIDeterministicAcrossParallelism runs a trimmed Fig. 10
// through the real CLI at pool widths 1 and 8 and requires byte-identical
// output — the engine's determinism contract, observed end to end.
func TestSmokeTrainCLIDeterministicAcrossParallelism(t *testing.T) {
	t.Parallel()
	args := []string{"train", "-fig", "10", "-scale", "0.05", "-gpus", "32,64"}
	serial := runBinary(t, "nopfs", append(args, "-parallel", "1")...)
	wide := runBinary(t, "nopfs", append(args, "-parallel", "8")...)
	if len(serial) == 0 {
		t.Fatal("nopfs train produced no output")
	}
	if serial != wide {
		t.Errorf("nopfs train output differs between -parallel 1 and -parallel 8:\n-- serial --\n%s\n-- wide --\n%s", serial, wide)
	}
	if !strings.Contains(serial, "Piz Daint") || !strings.Contains(serial, "NoPFS") {
		t.Errorf("nopfs train output unexpected:\n%s", serial)
	}
}
