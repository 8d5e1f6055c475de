// System design with the performance simulator (the paper's Sec. 6.2 use
// case): before buying hardware, sweep candidate storage configurations and
// see which actually move training time.
//
// This reproduces the Fig. 9 methodology on a scaled ImageNet-22k: fix the
// staging buffer (after verifying it is not the bottleneck), then sweep RAM
// and SSD sizes under a 5x-compute future-accelerator assumption.
//
//	go run ./examples/sysdesign
package main

import (
	"context"
	"fmt"
	"log"
	"os"

	"repro/internal/sweep"
)

func main() {
	const scale = 0.005 // ImageNet-22k at 0.5% size; regimes preserved

	// One grid holds both steps: the staging preliminary and the RAM x SSD
	// environment study, NoPFS on every row.
	rep, err := new(sweep.Runner).Run(context.Background(), sweep.Fig9FullGrid(scale, 7, 1))
	if err != nil {
		log.Fatal(err)
	}
	exec := map[string]float64{}
	for _, c := range rep.Cells {
		exec[c.Scenario] = c.Outcome.Values[sweep.MetricExec]
	}

	// Step 1: is the staging buffer a limiting factor? (Paper: no.)
	fmt.Println("step 1: staging buffer sweep (RAM=32 GB, no SSD):")
	for _, gb := range sweep.Fig9StagingSizes() {
		fmt.Printf("  staging %d GB -> %.1fs\n", gb, exec[sweep.Fig9StagingID(gb)])
	}
	fmt.Println("  => staging size is irrelevant here; fix it at 5 GB")

	// Step 2: the RAM x SSD grid.
	fmt.Println("\nstep 2: RAM x SSD sweep (NoPFS, ImageNet-22k, 5x compute):")
	sweep.PrintFig9Matrix(os.Stdout, rep)

	// Step 3: read off the design guidance the paper highlights.
	fmt.Println("\ndesign observations (paper Sec. 6.2):")
	fmt.Printf("  max RAM, no SSD:    %.1fs\n", exec[sweep.Fig9CellID(512, 0)])
	fmt.Printf("  max RAM, max SSD:   %.1fs  (SSD barely matters once RAM is large)\n", exec[sweep.Fig9CellID(512, 1024)])
	fmt.Printf("  min RAM, no SSD:    %.1fs\n", exec[sweep.Fig9CellID(32, 0)])
	fmt.Printf("  min RAM, max SSD:   %.1fs  (cheap SSD compensates for scarce RAM)\n", exec[sweep.Fig9CellID(32, 1024)])
}
