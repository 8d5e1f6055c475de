// Package perfmodel implements the training-I/O performance model of
// paper Sec. 4. Every quantity is expressed in the paper's units (MB,
// MB/s, seconds). A Model couples a system with a workload; Compile turns
// it into Rates, the model's evaluator, which supplies:
//
//   - write_i(k): time to preprocess a sample and place it in the staging
//     buffer, max(s/β, s/(w₀(p₀)/p₀)), with preprocessing and writing
//     pipelined;
//   - fetch times for the three data locations (PFS under γ-client
//     contention, a remote worker's storage class over the interconnect,
//     and a local storage class);
//   - source ranking: which available location minimises fetch time.
//
// The discrete-event simulator (internal/sim) is the package's one
// consumer: every simulated time, and the CLI's dry-run, which prints a
// simulator run, comes from these rates.
package perfmodel

import (
	"fmt"

	"repro/internal/hwspec"
)

// Location identifies where a sample is fetched from.
type Location int

// Fetch locations, fastest typically last.
const (
	// LocPFS reads from the shared parallel filesystem.
	LocPFS Location = iota
	// LocRemote reads from another worker's storage class over the network.
	LocRemote
	// LocLocal reads from a local storage class.
	LocLocal
)

// String returns the location's report label.
func (l Location) String() string {
	switch l {
	case LocPFS:
		return "pfs"
	case LocRemote:
		return "remote"
	case LocLocal:
		return "local"
	default:
		return fmt.Sprintf("location(%d)", int(l))
	}
}

// Model is one system coupled with one workload; Compile evaluates it.
type Model struct {
	Sys  hwspec.System
	Work hwspec.Workload
}

// New validates and couples a system with a workload.
func New(sys hwspec.System, work hwspec.Workload) (*Model, error) {
	if err := sys.Validate(); err != nil {
		return nil, err
	}
	if err := work.Validate(); err != nil {
		return nil, err
	}
	return &Model{Sys: sys, Work: work}, nil
}

// Choice is the outcome of source selection for one sample.
type Choice struct {
	Loc Location
	// Class is the storage-class index for local/remote fetches (-1 for PFS).
	Class int
	// Seconds is the fetch time (excluding the staging write).
	Seconds float64
}
