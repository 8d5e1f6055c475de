// nopfs is the consolidated command-line front end for the NoPFS
// reproduction: the simulator, the real-system evaluation figures, the
// access-pattern analysis, and a live instrumented training cluster, as
// subcommands of one binary sharing flag groups, config-file support, and
// one exit-code contract.
//
// Usage:
//
//	nopfs sim -all                     # the Fig. 8 policy comparison
//	nopfs sim -sweep -replicas 5       # Fig. 9, 5 seeds per cell
//	nopfs sim -all -dry-run            # plan analysis + simulated NoPFS run
//	nopfs train -fig 12                # NoPFS cache stats (Fig. 12)
//	nopfs train -fig 10 -dry-run       # placement + simulated stall
//	nopfs access -f 1281167            # paper-scale Fig. 3 analysis
//	nopfs run -workers 4 -metrics-out - # live cluster + Prometheus dump
//	nopfs help                         # the full subcommand list
package main

import (
	"os"

	"repro/internal/cli"
)

func main() {
	os.Exit(cli.Main(os.Args[1:], os.Stdout, os.Stderr))
}
