package cli

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/access"
	"repro/internal/chaos"
	"repro/internal/dataset"
	"repro/nopfs"
)

// runOptions holds the run command's parsed flags.
type runOptions struct {
	Workers          int
	Epochs           int
	Batch            int
	Samples          int
	SampleKB         int
	StagingMB        int
	RAMMB            int
	SSDMB            int
	PFSMBps          float64
	InterconnectMBps float64
	Fabric           string
	Seed             uint64
	Verify           bool
	Chaos            string
	Access           string
	Resilience       string
	MetricsOut       string
	TraceFetches     string
	CommonFlags
}

// runFlags builds the run command's flag set. -chaos here injects the fault
// profile into the live cluster rather than adding a grid axis, so its help
// deliberately differs from the grid commands' shared wording (the drift
// test allowlists it).
func runFlags(prog string) (*flag.FlagSet, *runOptions) {
	fs := flag.NewFlagSet(prog, flag.ContinueOnError)
	o := &runOptions{}
	fs.IntVar(&o.Workers, "workers", 4, "cluster size (one rank per worker)")
	fs.IntVar(&o.Epochs, "epochs", 2, "training epochs")
	fs.IntVar(&o.Batch, "batch", 16, "per-worker mini-batch size")
	fs.IntVar(&o.Samples, "samples", 2000, "dataset size F")
	fs.IntVar(&o.SampleKB, "sample-kb", 16, "mean sample size in KiB")
	fs.IntVar(&o.StagingMB, "staging-mb", 4, "per-worker staging-buffer budget in MiB")
	fs.IntVar(&o.RAMMB, "ram-mb", 16, "per-worker ram cache class capacity in MiB (0 = none)")
	fs.IntVar(&o.SSDMB, "ssd-mb", 0, "per-worker ssd cache class capacity in MiB (0 = none)")
	fs.Float64Var(&o.PFSMBps, "pfs-mbps", 64, "shared-PFS aggregate bandwidth in MB/s (0 = unlimited)")
	fs.Float64Var(&o.InterconnectMBps, "interconnect-mbps", 0, "fabric bandwidth in MB/s (0 = unlimited)")
	fs.StringVar(&o.Fabric, "fabric", nopfs.FabricChan, "cluster fabric: chan (in-process) or tcp (loopback sockets)")
	fs.Uint64Var(&o.Seed, "seed", 42, seedHelp)
	fs.BoolVar(&o.Verify, "verify", false, "CRC-check every delivered sample payload")
	fs.StringVar(&o.Chaos, "chaos", "", "fault profile injected into the live run: a preset or a spec like \"straggler:1x2@1,tier:0x4,drop:0.05\"")
	fs.StringVar(&o.Access, "access", "", "workload access pattern for the live run: a preset or a spec like \"zipf:s=1.1\" or \"elastic:join=1@1,leave=2@2\"")
	fs.StringVar(&o.Resilience, "resilience", "", "fetch-path fault handling: \"none\", \"default\", or a spec like \"retries:3,backoff:1ms..32ms,jitter:0.25,timeout:250ms,breaker:3@50ms\"")
	fs.StringVar(&o.MetricsOut, "metrics-out", "", "write Prometheus text metrics to FILE after the run (\"-\" = stdout)")
	fs.StringVar(&o.TraceFetches, "trace-fetches", "", "write one line per staged fetch to FILE")
	o.CommonFlags.Register(fs, false)
	return fs, o
}

// RunLive is the `nopfs run` command: an end-to-end in-process training
// cluster through the public nopfs API — the quickstart, parameterised and
// instrumented. It exists so the observability layer is drivable from the
// CLI: metrics and the per-fetch decision trace come from a real run, not
// the simulator.
func RunLive(prog string, args []string, stdout, stderr io.Writer) int {
	fs, o := runFlags(prog)
	return execute(prog, fs, args, stderr, &o.Config, func(ctx context.Context) error {
		if o.Workers < 1 {
			return usagef("-workers must be at least 1, got %d", o.Workers)
		}
		profile, err := chaos.ParseProfile(o.Chaos)
		if err != nil {
			return usageError{err: err}
		}
		resilience, err := nopfs.ParseResilience(o.Resilience)
		if err != nil {
			return usageError{err: err}
		}
		if _, err := access.CanonicalSpec(o.Access); err != nil {
			return usageError{err: err}
		}
		ds, err := dataset.Cached(dataset.Spec{
			Name: "live", F: o.Samples, MeanSize: int64(o.SampleKB) << 10,
			StddevSize: int64(o.SampleKB) << 8, Classes: 10, Seed: o.Seed,
		})
		if err != nil {
			return usageError{err: err}
		}

		opts := o.liveOptions(profile, resilience)
		if o.TraceFetches != "" {
			traceFile, err := os.Create(o.TraceFetches)
			if err != nil {
				return err
			}
			defer traceFile.Close()
			nopfs.WithFetchTrace(traceFile)(&opts)
		}

		stats, err := nopfs.RunCluster(ctx, ds, o.Workers, opts, nopfs.DrainAll(nil))
		if err != nil {
			return err
		}

		// local/remote/pfs are staged fetches by source; pfs-reads is every
		// filesystem read the rank issued, class fills included.
		fmt.Fprintln(stdout, "rank  delivered  local  remote  pfs   pfs-reads  stall     cached")
		for _, s := range stats {
			fmt.Fprintf(stdout, "%4d  %9d  %5d  %6d  %4d  %9d  %6.2fs  %6.1f MiB\n",
				s.Rank, s.Delivered,
				s.Fetches[nopfs.SourceLocal], s.Fetches[nopfs.SourceRemote], s.Fetches[nopfs.SourcePFS],
				s.PFSReads, s.StallSeconds, float64(s.CachedBytes)/(1<<20))
		}
		return dumpMetrics(stdout, opts.Metrics, o.MetricsOut)
	})
}

// liveOptions builds the cluster options from the parsed flags. A metrics
// registry is installed only when -metrics-out asks for the series: with one,
// every staged fetch takes the instrumented path (a clock read per fetch, a
// counter per class probe), which a run that discards them should not pay.
func (o *runOptions) liveOptions(profile chaos.Profile, resilience nopfs.ResiliencePolicy) nopfs.Options {
	var classes []nopfs.Class
	if o.RAMMB > 0 {
		classes = append(classes, nopfs.Class{Name: "ram", CapacityBytes: int64(o.RAMMB) << 20, Threads: 2})
	}
	if o.SSDMB > 0 {
		classes = append(classes, nopfs.Class{Name: "ssd", CapacityBytes: int64(o.SSDMB) << 20, Threads: 1})
	}
	opts := nopfs.NewOptions(
		nopfs.WithSeed(o.Seed),
		nopfs.WithEpochs(o.Epochs),
		nopfs.WithBatchPerWorker(o.Batch),
		nopfs.WithStagingBuffer(int64(o.StagingMB)<<20),
		nopfs.WithClasses(classes...),
		nopfs.WithPFSBandwidth(o.PFSMBps),
		nopfs.WithInterconnectBandwidth(o.InterconnectMBps),
		nopfs.WithFabric(o.Fabric),
		nopfs.WithVerifySamples(o.Verify),
		nopfs.WithChaos(profile),
		nopfs.WithAccessPattern(o.Access),
		nopfs.WithResilience(resilience),
	)
	if o.MetricsOut != "" {
		nopfs.WithMetrics(nopfs.NewMetricsRegistry())(&opts)
	}
	return opts
}

// dumpMetrics writes the registry in Prometheus text exposition format to
// dest ("" = skip, "-" = stdout, else a file path).
func dumpMetrics(stdout io.Writer, reg *nopfs.MetricsRegistry, dest string) error {
	switch dest {
	case "":
		return nil
	case "-":
		fmt.Fprintln(stdout)
		return reg.WritePrometheus(stdout)
	default:
		f, err := os.Create(dest)
		if err != nil {
			return err
		}
		if err := reg.WritePrometheus(f); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	}
}
